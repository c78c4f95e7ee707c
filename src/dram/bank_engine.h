/**
 * @file
 * Per-bank state engine for one channel.
 *
 * Owns the rank/bank FSMs (open row, open PRA mask, hit streak, timing
 * registers, state epochs) plus the controller-side pending-work
 * bookkeeping: how many queued requests target each bank and how many
 * of those could hit the currently open (possibly partial) row. The
 * controller's scheduling paths, its background-power accounting and
 * the maintenance engine all query bank state through this one API
 * instead of reaching into parallel arrays.
 */
#ifndef PRA_DRAM_BANK_ENGINE_H
#define PRA_DRAM_BANK_ENGINE_H

#include <cstddef>
#include <vector>

#include "dram/config.h"
#include "dram/rank.h"
#include "dram/request.h"

namespace pra::dram {

/** Rank/bank state plus pending-work counters for one channel. */
class BankEngine
{
  public:
    explicit BankEngine(const DramConfig &cfg);

    unsigned numRanks() const
    {
        return static_cast<unsigned>(ranks_.size());
    }
    Rank &rank(unsigned r) { return ranks_[r]; }
    const Rank &rank(unsigned r) const { return ranks_[r]; }

    Bank &bank(unsigned r, unsigned b) { return ranks_[r].bank(b); }
    const Bank &bank(unsigned r, unsigned b) const
    {
        return ranks_[r].bank(b);
    }

    /**
     * Row-buffer probe of @p req against its bank, cached per request
     * and invalidated by the bank's state epoch (activate/precharge) or
     * a footprint change (write combining).
     */
    RowProbe
    probe(Request &req) const
    {
        const Bank &bank = ranks_[req.loc.rank].bank(req.loc.bank);
        if (req.probeEpoch != bank.stateEpoch()) {
            req.cachedProbe = bank.probe(req.loc.row, req.need);
            req.probeEpoch = bank.stateEpoch();
            // A read that false-hits a speculatively opened row has
            // outlived its prediction: pin the full-row fallback so the
            // re-activation after the precharge covers the demand (one
            // seam shared by the live controller and the model checker).
            if (req.cachedProbe == RowProbe::FalseHit && !req.isWrite)
                req.fullRowFallback = true;
        }
        return req.cachedProbe;
    }

    // --- Pending-work bookkeeping ----------------------------------------

    /** Queued requests targeting bank (r, b). */
    unsigned queued(unsigned r, unsigned b) const
    {
        return info(r, b).queued;
    }

    /** Of those, requests the open row can serve (mask-aware). */
    unsigned openRowMatches(unsigned r, unsigned b) const
    {
        return info(r, b).openRowMatches;
    }

    /** Any queued request targeting rank @p r. */
    bool anyQueuedInRank(unsigned r) const { return rankQueued_[r] > 0; }

    /** Account a newly queued @p req (also primes its probe cache). */
    void
    onEnqueue(Request &req)
    {
        BankInfo &bi = info(req.loc.rank, req.loc.bank);
        ++bi.queued;
        ++rankQueued_[req.loc.rank];
        if (probe(req) == RowProbe::Hit)
            ++bi.openRowMatches;
    }

    /** Account a request leaving the queues via a column access. */
    void
    onDequeue(const Request &req)
    {
        BankInfo &bi = info(req.loc.rank, req.loc.bank);
        --bi.queued;
        --rankQueued_[req.loc.rank];
        if (bi.openRowMatches > 0)
            --bi.openRowMatches;
    }

    /** A precharge closed the row: nothing can hit it any more. */
    void
    onPrecharge(unsigned r, unsigned b)
    {
        info(r, b).openRowMatches = 0;
    }

    /**
     * Recount open-row matches for bank (r, b) after an activation
     * changed the open row/mask, with the cached probe. Each of
     * @p queues is a range of Request &; requests of other banks are
     * skipped, so a caller may pass whole queues or just the bank's own
     * lists. Returns the number of requests examined.
     */
    template <typename... Queues>
    std::size_t
    recountOpenRowMatches(unsigned r, unsigned b, Queues &&...queues)
    {
        BankInfo &bi = info(r, b);
        bi.openRowMatches = 0;
        if (!bank(r, b).isOpen())
            return 0;
        std::size_t visited = 0;
        auto count = [&](auto &&queue) {
            for (Request &req : queue) {
                ++visited;
                if (req.loc.rank == r && req.loc.bank == b &&
                    probe(req) == RowProbe::Hit) {
                    ++bi.openRowMatches;
                }
            }
        };
        (count(queues), ...);
        return visited;
    }

    /**
     * Analysis probe seam: fold every rank/bank FSM plus the per-bank
     * pending-work counters into @p h, timing registers normalized to
     * @p now and saturated at @p horizon (see Bank::fingerprint). The
     * per-rank queued sums and the open-bank masks are derived from
     * those and stay out. Used by the offline model checker
     * (src/analysis) for state deduplication.
     */
    void fingerprint(Fnv1a &h, Cycle now, Cycle horizon) const;

  private:
    struct BankInfo
    {
        unsigned queued = 0;         //!< Requests targeting this bank.
        unsigned openRowMatches = 0; //!< Of those, servable by open row.
    };

    BankInfo &info(unsigned r, unsigned b)
    {
        return bankInfo_[r * cfg_->banksPerRank + b];
    }
    const BankInfo &info(unsigned r, unsigned b) const
    {
        return bankInfo_[r * cfg_->banksPerRank + b];
    }

    const DramConfig *cfg_;
    std::vector<Rank> ranks_;
    std::vector<BankInfo> bankInfo_;
    std::vector<unsigned> rankQueued_;   //!< Sum of queued over a rank.
};

} // namespace pra::dram

#endif // PRA_DRAM_BANK_ENGINE_H
