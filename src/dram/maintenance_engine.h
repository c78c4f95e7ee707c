/**
 * @file
 * Maintenance engine: refresh scheduling and row-close policies.
 *
 * Owns the *decisions* that keep the array healthy and the row buffers
 * policy-conformant — when an all-bank refresh issues, when the relaxed
 * close policy shuts a useless open row, when a restricted-close
 * auto-precharge retires — while the controller keeps the *mechanism*
 * (stats, checker/auditor reporting, bus accounting) behind the
 * MaintenanceHooks interface it implements.
 *
 * Maintenance operations with their own issue windows — PRAC alert
 * recovery (prac_rfm, DESIGN.md §13), targeted-row-refresh, scrubbing —
 * plug in through registerOp(): an op is polled once per scheduling
 * round after refresh and before the request scheduler, and returns
 * true when it consumed the round's command slot (see DESIGN.md §9).
 * The named overload additionally carries a nextWakeAt bound so the
 * event engine can sleep through the op's quiet stretches; unnamed ops
 * stay opaque (polled every cycle).
 */
#ifndef PRA_DRAM_MAINTENANCE_ENGINE_H
#define PRA_DRAM_MAINTENANCE_ENGINE_H

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "dram/bank_engine.h"
#include "dram/config.h"
#include "dram/prac.h"

namespace pra::dram {

/** Command mechanisms the maintenance engine drives (the controller). */
class MaintenanceHooks
{
  public:
    /** Explicit PRE command (occupies a command-bus slot). */
    virtual void issuePrecharge(unsigned rank_id, unsigned bank_id,
                                Cycle now) = 0;
    /** Auto-precharge retire (RDA/WRA-encoded; no command-bus slot). */
    virtual void issueAutoPrecharge(unsigned rank_id, unsigned bank_id,
                                    Cycle now) = 0;
    /** All-bank refresh to @p rank_id. */
    virtual void issueRefresh(unsigned rank_id, Cycle now) = 0;

    /**
     * All-bank RFM mitigation to @p rank_id (PRAC alert recovery,
     * DESIGN.md §13). Default no-op so hooks that never enable PRAC —
     * the model checker's null hooks included — need not implement it.
     */
    virtual void
    issueRfm(unsigned rank_id, Cycle now)
    {
        (void)rank_id;
        (void)now;
    }

  protected:
    ~MaintenanceHooks() = default;
};

/** Refresh + close-policy decision engine (see file header). */
class MaintenanceEngine
{
  public:
    MaintenanceEngine(const DramConfig &cfg, BankEngine &banks,
                      MaintenanceHooks &hooks)
        : cfg_(&cfg), banks_(&banks), hooks_(&hooks)
    {
    }

    /**
     * Retire pending auto-precharges (restricted close-page). Runs
     * every cycle — the precharge is encoded in the previous column
     * command, so it needs no command-bus slot.
     */
    void stepAutoPrecharge(Cycle now);

    /** Issue an all-bank refresh to any rank that is due and ready. */
    bool tryRefresh(Cycle now);

    /**
     * Close open rows that no queued request can use (relaxed close
     * policy), or that a due refresh needs shut. Open-page keeps rows
     * open unless refresh forces the close.
     */
    bool tryMaintenanceClose(Cycle now);

    /**
     * A pluggable maintenance operation: returns true when it issued a
     * command (consuming this round's slot).
     */
    using MaintenanceOp = std::function<bool(Cycle)>;

    /**
     * An op's event-engine wake contract: the earliest cycle at which
     * the op could newly issue, or the all-ones sentinel when it is
     * state-gated (a command inside a round must enable it first).
     * Bounds at or before now are clamped to now + 1 by opWakeBound(),
     * so a sloppy bound can never livelock the event engine.
     */
    using OpWakeBound = std::function<Cycle(Cycle)>;

    /** Register an opaque @p op; polled in registration order. */
    void
    registerOp(MaintenanceOp op)
    {
        ops_.push_back({std::string(), std::move(op), nullptr});
    }

    /**
     * Register @p op under @p name with an event-engine wake bound.
     * The name is the coverage handle the maintop-coverage lint rule
     * traces (tests + canonicalConfig must reference it).
     */
    void
    registerOp(std::string name, MaintenanceOp op, OpWakeBound wake)
    {
        ops_.push_back({std::move(name), std::move(op), std::move(wake)});
    }

    /** True when any pluggable op is registered. */
    bool hasOps() const { return !ops_.empty(); }

    /**
     * True when an op without a wake contract is registered: the event
     * engine must then poll every cycle (DESIGN.md §11). Bounded ops
     * publish through opWakeBound() instead.
     */
    bool
    hasOpaqueOps() const
    {
        for (const auto &e : ops_) {
            if (!e.wake)
                return true;
        }
        return false;
    }

    /**
     * Minimum wake bound over the bounded ops, clamped strictly past
     * @p now (see OpWakeBound); the all-ones sentinel when every bound
     * is quiet. Opaque ops are excluded — hasOpaqueOps() covers them.
     */
    Cycle
    opWakeBound(Cycle now) const
    {
        Cycle next = ~Cycle{0};
        for (const auto &e : ops_) {
            if (!e.wake)
                continue;
            Cycle c = e.wake(now);
            if (c != ~Cycle{0} && c <= now)
                c = now + 1;
            next = std::min(next, c);
        }
        return next;
    }

    /**
     * Event-engine wake bound (DESIGN.md §11): the earliest cycle > @p
     * now at which a maintenance decision could newly fire — a refresh
     * deadline or tRFC completion, a pending auto-precharge retiring, a
     * close-policy precharge whose tRAS/tWR/tRTP gate releases, or a due
     * refresh becoming issuable once every bank clears tRP. Exact for
     * the no-intervening-commands window the event engine guarantees:
     * every input (open rows, pending-work counters, deadlines) can
     * otherwise change only inside a scheduling round.
     */
    Cycle nextWakeAt(Cycle now) const;

    /** Poll registered ops; true when one consumed the round. */
    bool
    tryOps(Cycle now)
    {
        for (auto &e : ops_) {
            if (e.op(now))
                return true;
        }
        return false;
    }

    // --- PRAC / RFM (DESIGN.md §13) ----------------------------------------

    /**
     * Attach the PRAC counter state the RFM decision paths consult (not
     * owned; nullptr keeps every RFM path inert). The close policy also
     * reads it: an outstanding alert forces useless-row closes exactly
     * like a due refresh, so the rank can drain toward the mitigation.
     */
    void setPracState(const PracState *prac) { prac_ = prac; }

    /** Ranks an RFM mitigation may issue to at @p now, in rank order. */
    std::vector<unsigned> rfmCandidates(Cycle now) const;

    /** First rank in rfmCandidates() order; true when an RFM issued. */
    bool tryRfm(Cycle now);

    /**
     * Wake bound for the prac_rfm op (see OpWakeBound): the earliest
     * cycle an alerted rank's banks all clear tRP and the (possibly
     * faulted) readiness gate opens. Sentinel when no alert is pending
     * or the drain is state-gated.
     */
    Cycle rfmWakeBound(Cycle now) const;

    // --- Analysis choice-enumeration seams ---------------------------------
    //
    // The offline model checker (src/analysis) explores *every* legal
    // maintenance decision, not just the first one the try*/step*
    // methods would take. These enumerators are the single source of
    // truth: the try*/step* methods above are implemented on top of
    // them, so the live controller and the checker can never disagree
    // about which commands are candidates at a given cycle.

    /** (rank, bank) pair identifying a maintenance target. */
    using BankRef = std::pair<unsigned, unsigned>;

    /** Ranks whose refresh is due and issuable at @p now, in rank order. */
    std::vector<unsigned> refreshCandidates(Cycle now) const;

    /**
     * Banks the close policy may precharge at @p now (useless open rows
     * under relaxed close, or any open row blocking a due refresh), in
     * (rank, bank) order.
     */
    std::vector<BankRef> closeCandidates(Cycle now) const;

    /** Banks whose pending auto-precharge can retire at @p now. */
    std::vector<BankRef> autoPrechargeCandidates(Cycle now) const;

    /**
     * Banks examined so far by the decision scans and wake bounds above
     * (EngineStats::maintBankVisits). Observational: a work count that
     * feeds no decision.
     */
    std::uint64_t bankVisits() const { return bankVisits_; }

  private:
    struct OpEntry
    {
        std::string name;     //!< Empty for opaque (unnamed) ops.
        MaintenanceOp op;
        OpWakeBound wake;     //!< nullptr for opaque ops.
    };

    // Shared decision predicates: the try*/step* hot paths and the
    // vector-returning enumerators above both reduce to these, so the
    // live controller and the model checker can never disagree about
    // which commands are candidates at a given cycle.
    bool autoPreReady(const Bank &bank, Cycle now) const;
    bool refreshReady(const Rank &rank, Cycle now) const;
    bool rfmReady(unsigned r, const Rank &rank, Cycle now) const;
    bool closeEligible(unsigned r, unsigned b, const Bank &bank,
                       bool want_maint, Cycle now) const;
    /** Rank needs its banks shut: refresh due or PRAC alert pending. */
    bool wantMaint(unsigned r, const Rank &rank, Cycle now) const;
    /** Latest earliestActivate over every bank of @p rank (tRP/tRFC). */
    Cycle latestActGate(const Rank &rank) const;

    const DramConfig *cfg_;
    BankEngine *banks_;
    MaintenanceHooks *hooks_;
    const PracState *prac_ = nullptr;
    std::vector<OpEntry> ops_;
    mutable std::uint64_t bankVisits_ = 0;   //!< See bankVisits().
};

} // namespace pra::dram

#endif // PRA_DRAM_MAINTENANCE_ENGINE_H
