/**
 * @file
 * One DRAM rank: the set of banks operating in lockstep across the
 * chips of a DIMM, plus the rank-level constraints — tRRD and the
 * (activation-weighted) tFAW window, refresh scheduling, and the
 * precharge power-down state used by the power model.
 *
 * PRA's relaxed tRRD/tFAW (paper Section 4.1.3): partial activations
 * draw proportionally less current, so they are charged against the
 * four-activation power window by their power weight instead of by
 * count, and the post-ACT tRRD gap shrinks proportionally.
 */
#ifndef PRA_DRAM_RANK_H
#define PRA_DRAM_RANK_H

#include <deque>
#include <vector>

#include "common/types.h"
#include "dram/bank.h"
#include "dram/config.h"
#include "power/power_model.h"

namespace pra::dram {

/** Power-relevant rank state. */
enum class RankState
{
    ActiveStandby,   //!< At least one bank has an open row.
    PrechargeStandby, //!< All banks idle, clocks on.
    PowerDown,       //!< Precharge power-down.
    Refreshing,      //!< Inside tRFC of an all-bank refresh.
};

/** Rank model: banks + rank-level activation and refresh constraints. */
class Rank
{
  public:
    Rank(const DramConfig &cfg, unsigned index);

    Bank &bank(unsigned b) { return banks_[b]; }
    const Bank &bank(unsigned b) const { return banks_[b]; }
    unsigned numBanks() const { return static_cast<unsigned>(banks_.size()); }

    /** True when no bank has an open row. */
    bool allBanksClosed() const;

    // --- Activation budget ------------------------------------------------

    /**
     * Rank-level check: may an activation of weight @p weight issue at
     * @p now? Enforces weighted tFAW and the post-ACT tRRD gap.
     */
    bool canActivate(Cycle now, double weight) const;

    /** Record an activation of weight @p weight at @p now. */
    void recordActivation(Cycle now, double weight);

    // --- Refresh ------------------------------------------------------------

    /** True when the refresh deadline has passed. */
    bool refreshDue(Cycle now) const { return now >= nextRefresh_; }

    /** Cycle at which the next refresh becomes due. */
    Cycle nextRefreshAt() const { return nextRefresh_; }

    /** Earliest cycle the tRRD gate allows another activation. */
    Cycle nextActAllowedAt() const { return nextActAllowed_; }

    /**
     * Earliest tFAW-window expiry, or the all-ones sentinel when the
     * window is empty — the exact cycle the activation budget next
     * loosens (entries are appended in issue order, so the front is the
     * oldest).
     */
    Cycle
    earliestActWindowExpiry() const
    {
        return actWindow_.empty() ? ~Cycle{0}
                                  : actWindow_.front().first + t_.fawWindow;
    }

    /** All banks closed and past their tRP so REF may issue. */
    bool canRefresh(Cycle now) const;

    /** Issue an all-bank refresh at @p now. */
    void refresh(Cycle now);

    bool refreshing(Cycle now) const { return now < refreshDone_; }

    /** Cycle the in-progress (or last) refresh releases the banks. */
    Cycle refreshDoneAt() const { return refreshDone_; }

    // --- RFM (PRAC mitigation, DESIGN.md §13) -------------------------------

    /**
     * Issue an all-bank RFM at @p now: banks block for tRFM exactly as
     * refresh blocks them for tRFC. Preconditions match canRefresh()
     * (all banks closed, past tRP).
     */
    void rfm(Cycle now);

    /** True inside the tRFM window of an in-progress RFM. */
    bool rfmBusy(Cycle now) const { return now < rfmDone_; }

    /** Cycle the in-progress (or last) RFM releases the banks. */
    Cycle rfmDoneAt() const { return rfmDone_; }

    // --- Power-down ----------------------------------------------------------

    /**
     * Update the power-down state machine. @p has_queued_work is true
     * when the controller holds any request for this rank.
     */
    void updatePowerState(Cycle now, bool has_queued_work);

    /** Power-relevant state at @p now (after updatePowerState). */
    RankState powerState(Cycle now) const;

    /** True when in power-down; activations must first wake the rank. */
    bool poweredDown() const { return poweredDown_; }

    /** Leave power-down; banks stall tXP before the next ACT. */
    void wake(Cycle now);

    /**
     * Cycle-skip fast path: account the background power of the cycles
     * [@p from, @p to) in one jump, assuming no command issues and no
     * request arrives in that window (so bank open state and
     * @p has_queued_work are constant). Performs exactly the state
     * transitions and energy counting that per-cycle
     * updatePowerState()+powerState() accounting would, verified against
     * a cycle-by-cycle replay in debug builds.
     */
    void fastForwardBackground(Cycle from, Cycle to, bool has_queued_work,
                               power::EnergyCounts &energy);

    // --- Analysis probe seam ----------------------------------------------

    /**
     * Fold the protocol-relevant rank state (banks, weighted tFAW
     * window, tRRD gate, refresh schedule, power-down) into @p h with
     * all cycle registers normalized to @p now and saturated at
     * @p horizon — see Bank::fingerprint.
     */
    void fingerprint(Fnv1a &h, Cycle now, Cycle horizon) const;

    /**
     * The rank-level registers alone (weighted tFAW window, tRRD gate,
     * refresh schedule, power-down) without the per-bank FSMs. The
     * model checker's symmetry reduction hashes banks separately so it
     * can canonicalize their order within a bank group; fingerprint()
     * composes this with every Bank::fingerprint in index order.
     */
    void fingerprintRankLevel(Fnv1a &h, Cycle now, Cycle horizon) const;

  private:
    const DramConfig *cfg_;   //!< Power-down policy knobs only.
    RankTables t_;
    std::vector<Bank> banks_;

    // Weighted tFAW window: (cycle, weight) of recent activations.
    mutable std::deque<std::pair<Cycle, double>> actWindow_;
    Cycle nextActAllowed_ = 0;   //!< tRRD gate.

    Cycle nextRefresh_;
    Cycle refreshDone_ = 0;
    Cycle rfmDone_ = 0;

    bool poweredDown_ = false;
    Cycle idleSince_ = 0;
    bool wasIdle_ = false;
};

} // namespace pra::dram

#endif // PRA_DRAM_RANK_H
