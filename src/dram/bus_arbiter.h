/**
 * @file
 * Command- and data-bus arbiter for one channel.
 *
 * Owns every channel-level shared-resource gate the controller used to
 * scatter across its tick path:
 *
 *  - command/address-bus occupancy (one slot per command, plus the
 *    extra PRA mask cycles of a partial activation);
 *  - data-bus reservation with the tRTRS rank-switch bubble;
 *  - the tWTR write-to-read turnaround gate;
 *  - DDR4 bank-group column spacing (tCCD_L within a group, tCCD_S
 *    across groups) at the channel level.
 *
 * The scheduler and maintenance paths ask may-issue questions here and
 * report issued commands back.
 */
#ifndef PRA_DRAM_BUS_ARBITER_H
#define PRA_DRAM_BUS_ARBITER_H

#include <algorithm>
#include <vector>

#include "common/hash.h"
#include "dram/config.h"
#include "dram/timing_tables.h"

namespace pra::dram {

/** Channel-level bus and turnaround gating (see file header). */
class BusArbiter
{
  public:
    explicit BusArbiter(const DramConfig &cfg)
        : cfg_(&cfg), t_(TimingTables::build(cfg).channel)
    {
    }

    // --- Command/address bus ---------------------------------------------

    bool cmdBusBusy(Cycle now) const { return now < cmdBusFree_; }

    /** Cycle the command bus frees (exact wake bound when busy). */
    Cycle cmdBusFreeAt() const { return cmdBusFree_; }

    /** Occupy the command bus at @p now for 1 + @p extra cycles. */
    void holdCmdBus(Cycle now, unsigned extra = 0)
    {
        cmdBusFree_ = now + 1 + extra;
    }

    // --- Write-to-read turnaround ----------------------------------------

    /** tWTR: read commands blocked until the write data window clears. */
    bool readBlocked(Cycle now) const
    {
        if (cfg_->faultIgnoreTwtr)
            return false;   // Test-only fault: checker must catch this.
        return now < readCmdBlockedUntil_;
    }

    /** A write command at @p now blocks reads for wl + burst + tWTR. */
    void noteWriteIssued(Cycle now, unsigned burst)
    {
        readCmdBlockedUntil_ = now + t_.writeToRead + burst;
    }

    /** Cycle the tWTR gate releases (exact wake bound when blocked). */
    Cycle
    readBlockedUntil() const
    {
        // Test-only fault: report a stale (cycle-0) bound while
        // readBlocked() keeps gating. noteWake's c > now rule
        // drops stale bounds, so the event engine loses the tWTR
        // release wakeup — the model checker's wakeup-soundness
        // property must catch this.
        if (cfg_->faultSuppressWakeTwtr)
            return 0;
        return readCmdBlockedUntil_;
    }

    // --- Data bus ---------------------------------------------------------

    /** May a burst to @p rank_id start its data at @p start? */
    bool
    dataBusFree(Cycle start, unsigned rank_id) const
    {
        Cycle earliest = dataBusFree_;
        if (rank_id != lastBusRank_)
            earliest += t_.rankSwitch;
        return start >= earliest;
    }

    void
    reserveDataBus(Cycle start, unsigned burst, unsigned rank_id)
    {
        dataBusFree_ = start + burst;
        lastBusRank_ = rank_id;
    }

    /** Earliest data-start cycle for @p rank_id (wake-bound query). */
    Cycle
    dataBusFreeAt(unsigned rank_id) const
    {
        return rank_id != lastBusRank_ ? dataBusFree_ + t_.rankSwitch
                                       : dataBusFree_;
    }

    // --- DDR4 bank-group column spacing ------------------------------------

    /** tCCD_S/tCCD_L spacing against the last column command. */
    bool
    columnGateOk(unsigned bank_id, Cycle now) const
    {
        if (t_.bankGroups <= 1 || !anyColumnIssued_)
            return true;
        const bool same_group = groupOf(bank_id) == lastColumnGroup_;
        // Test-only fault: treat same-group spacing as cross-group, so
        // the independent TimingChecker must flag the tCCD_L violation.
        const Cycle gap = same_group && !cfg_->faultIgnoreTccdL
                              ? t_.columnSameGroup
                              : t_.columnCrossGroup;
        return now >= lastColumnCycle_ + gap;
    }

    /** Cycle the tCCD spacing for @p bank_id releases (wake bound). */
    Cycle
    columnGateFreeAt(unsigned bank_id) const
    {
        if (t_.bankGroups <= 1 || !anyColumnIssued_)
            return 0;
        const bool same_group = groupOf(bank_id) == lastColumnGroup_;
        const Cycle gap = same_group && !cfg_->faultIgnoreTccdL
                              ? t_.columnSameGroup
                              : t_.columnCrossGroup;
        return lastColumnCycle_ + gap;
    }

    void
    noteColumnIssued(unsigned bank_id, Cycle now)
    {
        if (t_.bankGroups > 1) {
            lastColumnCycle_ = now;
            lastColumnGroup_ = groupOf(bank_id);
            anyColumnIssued_ = true;
        }
    }

    // --- Analysis probe seam ----------------------------------------------

    /**
     * Fold the channel bus state into @p h, cycle registers normalized
     * to @p now and saturated at @p horizon (see Bank::fingerprint).
     * The tCCD_S/L reference point is hashed as the two release cycles
     * it implies rather than the raw command cycle, so long-expired
     * column history does not keep otherwise-identical states apart.
     * When @p rank_rename is non-null it maps rank ids to canonical
     * positions (the model checker's symmetry reduction) before the
     * live data-bus rank is hashed.
     */
    void
    fingerprint(Fnv1a &h, Cycle now, Cycle horizon,
                const std::vector<unsigned> *rank_rename = nullptr) const
    {
        auto delta = [&](Cycle reg) {
            h.add(reg <= now ? Cycle{0} : std::min(reg - now, horizon));
        };
        delta(cmdBusFree_);
        delta(dataBusFree_);
        unsigned bus_rank = lastBusRank_;
        if (rank_rename && bus_rank < rank_rename->size())
            bus_rank = (*rank_rename)[bus_rank];
        h.add(dataBusFree_ > now ? bus_rank : 0u);
        delta(readCmdBlockedUntil_);
        if (t_.bankGroups > 1 && anyColumnIssued_) {
            delta(lastColumnCycle_ + t_.columnCrossGroup);
            delta(lastColumnCycle_ + t_.columnSameGroup);
            const bool live =
                lastColumnCycle_ + t_.columnSameGroup > now;
            h.add(live ? lastColumnGroup_ : ~0u);
        }
    }

  private:
    unsigned groupOf(unsigned bank_id) const
    {
        return bank_id /
               (cfg_->banksPerRank / static_cast<unsigned>(t_.bankGroups));
    }

    const DramConfig *cfg_;   //!< Fault hooks + geometry only.
    ChannelTables t_;
    Cycle cmdBusFree_ = 0;
    Cycle dataBusFree_ = 0;
    unsigned lastBusRank_ = 0;
    Cycle readCmdBlockedUntil_ = 0;  //!< tWTR gate after write data.
    Cycle lastColumnCycle_ = 0;      //!< DDR4 tCCD_S/tCCD_L gating.
    unsigned lastColumnGroup_ = ~0u;
    bool anyColumnIssued_ = false;
};

} // namespace pra::dram

#endif // PRA_DRAM_BUS_ARBITER_H
