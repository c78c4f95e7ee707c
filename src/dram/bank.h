/**
 * @file
 * One DRAM bank: row-buffer state (including the PRA latch) plus the
 * earliest-issue-cycle registers that enforce intra-bank timing
 * constraints (tRCD, tRAS, tRP, tRTP, tWR, tRC).
 */
#ifndef PRA_DRAM_BANK_H
#define PRA_DRAM_BANK_H

#include <algorithm>

#include "common/hash.h"
#include "common/types.h"
#include "core/row_buffer.h"
#include "dram/timing_tables.h"

namespace pra::dram {

/** Bank FSM with earliest-allowed-cycle timing registers. */
class Bank
{
  public:
    explicit Bank(const BankTables &t) : t_(t) {}

    const RowBufferState &rowBuffer() const { return rowBuf_; }
    bool isOpen() const { return rowBuf_.isOpen(); }

    /** Probe the row buffer for a request footprint. */
    RowProbe
    probe(std::uint32_t row, WordMask need) const
    {
        return rowBuf_.probe(row, need);
    }

    bool conventionalHit(std::uint32_t row) const
    {
        return rowBuf_.conventionalHit(row);
    }

    // --- Timing queries -------------------------------------------------

    bool canActivate(Cycle now) const
    {
        return !rowBuf_.isOpen() && now >= earliestAct_;
    }
    bool canRead(Cycle now) const
    {
        return rowBuf_.isOpen() && now >= earliestColumn_;
    }
    bool canWrite(Cycle now) const { return canRead(now); }
    bool canPrecharge(Cycle now) const
    {
        return rowBuf_.isOpen() && now >= earliestPre_;
    }
    Cycle earliestPrecharge() const { return earliestPre_; }
    Cycle earliestActivate() const { return earliestAct_; }
    Cycle earliestColumnAccess() const { return earliestColumn_; }

    /**
     * Monotonic counter bumped whenever the row-buffer contents change
     * (activate/precharge). A probe result cached against an epoch stays
     * valid while the epoch is unchanged and the request footprint is
     * unchanged.
     */
    std::uint32_t stateEpoch() const { return stateEpoch_; }

    // --- Command effects --------------------------------------------------
    //
    // Activate and precharge change the open state, which the owning
    // Rank mirrors in its open-bank mask; they are private so every such
    // change goes through Rank::activateBank / Rank::prechargeBank.

    /** Column read at @p now; burst occupies @p burst_cycles. */
    void read(Cycle now, unsigned burst_cycles);

    /** Column write at @p now; data arrives after WL. */
    void write(Cycle now, unsigned burst_cycles);

    /** Block activations until @p until (refresh / power-down exit). */
    void
    blockUntil(Cycle until)
    {
        if (until > earliestAct_)
            earliestAct_ = until;
    }

    // --- Row-hit cap bookkeeping -----------------------------------------

    unsigned hitCount() const { return hitCount_; }
    void recordHit() { ++hitCount_; }

    /** Restricted close-page: auto-precharge pending after column op. */
    bool autoPrechargePending() const { return autoPre_; }
    void setAutoPrecharge() { autoPre_ = true; }

    // --- Analysis probe seam ----------------------------------------------

    /**
     * Fold the protocol-relevant bank state into @p h, with every timing
     * register expressed as a delta from @p now saturated at @p horizon.
     * Two banks whose futures are indistinguishable (all gates released,
     * same row-buffer contents) hash equal regardless of how they got
     * there — the normalization the offline model checker's state
     * deduplication relies on (src/analysis).
     */
    void
    fingerprint(Fnv1a &h, Cycle now, Cycle horizon) const
    {
        auto delta = [&](Cycle reg) {
            h.add(reg <= now ? Cycle{0} : std::min(reg - now, horizon));
        };
        h.add(rowBuf_.isOpen());
        h.add(rowBuf_.isOpen() ? rowBuf_.openRow() : kInvalidRow);
        h.add(rowBuf_.openMask().bits());
        delta(earliestAct_);
        delta(earliestColumn_);
        delta(earliestPre_);
        h.add(hitCount_);
        h.add(autoPre_);
    }

  private:
    friend class Rank;

    /**
     * Activate @p row covering @p mask at cycle @p now.
     * @param partial  True when a PRA mask must be delivered first, which
     *                 delays sensing by praMaskCycles (paper Fig. 7a).
     */
    void activate(Cycle now, std::uint32_t row, WordMask mask, bool partial);

    /** Precharge at @p now. */
    void precharge(Cycle now);

    BankTables t_;
    RowBufferState rowBuf_;

    Cycle earliestAct_ = 0;     //!< tRP / tRC / tRFC gated.
    Cycle earliestColumn_ = 0;  //!< tRCD gated.
    Cycle earliestPre_ = 0;     //!< tRAS / tRTP / tWR gated.
    unsigned hitCount_ = 0;     //!< Column accesses since activation.
    bool autoPre_ = false;
    std::uint32_t stateEpoch_ = 0;  //!< Row-buffer change counter.
};

} // namespace pra::dram

#endif // PRA_DRAM_BANK_H
