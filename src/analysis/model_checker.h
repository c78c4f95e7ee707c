/**
 * @file
 * Bounded exhaustive protocol model checker for the decomposed memory
 * controller (DESIGN.md §10).
 *
 * The live controller picks *one* command per cycle; a scheduling or
 * gating bug that only manifests under a choice the default policy
 * never makes stays invisible to simulation-based testing. This checker
 * explores the *product* of the controller's layers — BankEngine bank
 * FSMs x BusArbiter channel gates x MaintenanceEngine decisions — by
 * enumerating, at every cycle of every explored path, every command the
 * layer gates declare legal (not just the policy's pick), issuing it on
 * a copied state, and validating the resulting command stream against
 * the independent TimingChecker plus the PRA mask invariants:
 *
 *  - reads are served only by fully open rows;
 *  - column accesses fall inside the open (possibly partial) PRA mask;
 *  - an activation opens exactly the scheme-derived mask (the union of
 *    the queued same-row writes' dirty MAT groups for PRA writes).
 *
 * On top of safety, the checker verifies *liveness* (bounded progress)
 * under work-conserving exploration (a cycle may pass unused only when
 * no command is legal — the over-approximation of every real policy,
 * since the controller always issues when something is legal):
 *
 *  - every queued request is serviced within Options::livenessBound
 *    cycles of its arrival;
 *  - refresh never overruns its deadline by more than
 *    Options::refreshSlack cycles past tREFI;
 *  - a rank with queued work is granted some command within the bound;
 *  - wakeup soundness: at every quiet state (nothing legal), the wake
 *    bound the event engine would publish (DESIGN.md §11.2) is no later
 *    than the first cycle at which idling actually changes the legal
 *    command set — a statically explored "no lost wakeup" proof.
 *
 * Under a PRAC-enabled model (DESIGN.md §13) a third family —
 * *disturbance safety* — joins in:
 *
 *  - no row's modeled activation count (every ACT counted, partial or
 *    not, in a spec-side per-row shadow independent of the controller's
 *    tag CAM) reaches Options::disturbanceThreshold on any explored
 *    path without an intervening RFM mitigation of that row;
 *  - an Alert Back-Off never stays outstanding past the configured
 *    recovery window (DramConfig::pracRecoveryWindow) — the RFM must
 *    land inside it, and RFM never collides with refresh (the
 *    TimingChecker rejects commands inside tRFC/tRFM);
 *  - the prac_rfm maintenance op's published wake bound obeys the same
 *    wakeup-soundness contract as every other layer.
 *
 * Exploration is depth-first over a reduced-timing model configuration
 * (small tRCD/tRAS/tREFI so refresh and every turnaround rule fire
 * within a shallow horizon), with visited-state deduplication keyed on
 * the engines' fingerprint() seams: all timing registers are hashed as
 * now-relative saturated deltas, so time-shifted but future-equivalent
 * states merge. Options::reduction additionally collapses forced-idle
 * stretches into one time leap, canonicalizes bank/rank permutation
 * symmetry in the fingerprint, and prunes commutative command
 * interleavings with sleep sets (DESIGN.md §10.1). Dedup only prunes
 * re-exploration — every reported violation lies on a concretely
 * simulated path and is emitted as a replayable CommandScript.
 *
 * The seven deliberate fault hooks (DramConfig::auditFaultWidenAct,
 * faultIgnoreTccdL, faultIgnoreTwtr, faultSuppressWakeTwtr,
 * faultStarveAgedCycles, faultPracDropCount, faultPracLateRfm) weaken
 * controller-side gates without touching the checker; the default
 * budgets must find a counterexample for each
 * (tests/test_modelcheck_regressions.cpp pins this), and must find none
 * with no fault armed.
 */
#ifndef PRA_ANALYSIS_MODEL_CHECKER_H
#define PRA_ANALYSIS_MODEL_CHECKER_H

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/command_script.h"
#include "dram/config.h"

namespace pra::analysis {

/** Which deliberate fault hook the explored configuration arms. */
enum class Fault
{
    None,         //!< Unfaulted build: exploration must stay clean.
    WidenAct,     //!< auditFaultWidenAct: ACT masks widened covertly.
    IgnoreTccdL,  //!< faultIgnoreTccdL: same-group tCCD_L gate dropped.
    IgnoreTwtr,   //!< faultIgnoreTwtr: write-to-read tWTR gate dropped.
    SuppressWake, //!< faultSuppressWakeTwtr: tWTR wake bound suppressed.
    StarveAged,   //!< faultStarveAgedCycles: aged requests never issue.
    DropCount,    //!< faultPracDropCount: partial ACTs left uncounted.
    LateRfm,      //!< faultPracLateRfm: RFM released one window too late.
};

/** Config-flag spelling of @p f (none, widen_act, ...). */
const char *faultName(Fault f);

/** Inverse of faultName(); returns false on unknown spellings. */
bool parseFault(const std::string &name, Fault &out);

/**
 * googletest's printer for Fault (found by argument-dependent lookup):
 * the faultName() spelling, so a test parameterised over faults is named
 * after the fault rather than its bytes.
 */
void PrintTo(Fault f, std::ostream *os);

/** One request of the exploration workload. */
struct ModelRequest
{
    Cycle arrival = 0;
    bool isWrite = false;
    unsigned rank = 0;
    unsigned bank = 0;
    std::uint32_t row = 0;
    unsigned col = 0;
    std::uint8_t mask = 0xff;  //!< Dirty-word mask (writes).
};

/** Outcome of one bounded exploration. */
struct ModelCheckResult
{
    bool violationFound = false;
    /** First violation message (checker rule, mask or liveness). */
    std::string violation;
    /** Replayable path ending in the violating command. */
    CommandScript counterexample;
    /** Longest violation-free path seen (near-miss --emit-test seed). */
    CommandScript deepestPath;
    std::uint64_t statesExplored = 0;
    std::uint64_t statesDeduped = 0;
    std::uint64_t commandsIssued = 0;
    Cycle deepestCycle = 0;
    bool budgetExhausted = false;  //!< maxStates hit before completion.
    /** Reduction diagnostics: forced-idle stretches collapsed and
     *  sleep-set-pruned command interleavings. */
    std::uint64_t idleLeaps = 0;
    std::uint64_t interleavingsPruned = 0;
    /** Liveness headroom actually observed on clean runs: the longest
     *  any request waited and the furthest any refresh ran past its
     *  tREFI deadline. Used to tune the default bounds. */
    Cycle maxRequestWait = 0;
    Cycle maxRefreshOverrun = 0;
    /** Disturbance-safety headroom (PRAC models): the longest any
     *  Alert Back-Off stayed outstanding before its RFM landed. Used to
     *  tune DramConfig::pracRecoveryWindow the same way. */
    Cycle maxRecoveryWait = 0;
};

/** Bounded exhaustive explorer (see file header). */
class ModelChecker
{
  public:
    struct Options
    {
        Cycle depth = kDefaultDepth;
        std::uint64_t maxStates = kDefaultMaxStates;
        dram::SchedulerKind scheduler = dram::SchedulerKind::FrFcfs;
        Fault fault = Fault::None;
        /**
         * Registered scheme name to explore under (see core/scheme.h);
         * empty keeps the model default ("pra"). schemeByName() rejects
         * unknown spellings up front.
         */
        std::string scheme;
        /**
         * Bounded-progress horizon: a queued request older than this
         * (or a rank with queued work granted nothing for this long)
         * is a liveness violation. 0 disables the liveness properties
         * *and* work-conserving exploration (an Idle edge is then
         * enumerated beside every command, the pre-liveness semantics).
         */
        Cycle livenessBound = kDefaultLivenessBound;
        /** Refresh may run at most this far past its tREFI deadline. */
        Cycle refreshSlack = kDefaultRefreshSlack;
        /**
         * Non-zero arms PRAC on the model config (when the fault alone
         * does not) and overrides the disturbance threshold the safety
         * property checks against; 0 keeps the model default (PRAC off
         * unless the fault is a PRAC drill). Exploration under PRAC
         * switches to pracWorkload() and disables the symmetry
         * canonicalizer (per-row counters break rank/bank symmetry).
         */
        unsigned disturbanceThreshold = 0;
        /** Check the published-wake-bound contract at quiet states. */
        bool wakeupSoundness = true;
        /** Idle time-leap + symmetry canonicalization + sleep sets. */
        bool reduction = true;
        /**
         * Geometry overrides for degenerate-edge coverage (0 = keep
         * the model default). The workload is folded modulo the
         * overridden geometry; bank groups are reduced to 1 when they
         * no longer divide the bank count.
         */
        unsigned overrideRanks = 0;
        unsigned overrideBanks = 0;
        unsigned overrideBankGroups = 0;
    };

    static constexpr Cycle kDefaultDepth = 96;
    /** The unfaulted default-workload space converges at ~515k states
     *  (depth-independent past ~32 — the interleaving breadth, not the
     *  horizon, dominates); the budget leaves ~2x headroom. */
    static constexpr std::uint64_t kDefaultMaxStates = 1000000;
    /**
     * Default liveness bound, tuned above the longest wait any request
     * experiences on clean work-conserving paths (measured: 81 cycles,
     * stable from depth 96 through 130 — ModelCheckResult::
     * maxRequestWait pins the headroom in
     * tests/test_modelcheck_regressions.cpp) yet low enough that the
     * starve-aged fault's progress deadline (arrival + bound + 1)
     * lands inside the default depth.
     */
    static constexpr Cycle kDefaultLivenessBound = 88;
    /** Default refresh slack past tREFI (measured clean-run maximum
     *  overrun: 21 cycles), tuned the same way. */
    static constexpr Cycle kDefaultRefreshSlack = 32;
    /** Disturbance threshold the PRAC model arms when a PRAC fault (or
     *  a replayed RFM-bearing script) enables PRAC without an explicit
     *  Options::disturbanceThreshold override. Three keeps the full
     *  alert → RFM → re-activate cycle (and both PRAC fault drills)
     *  inside the default depth and liveness budgets: the hammer rows
     *  re-activate serially under rowHitCap 1, so each extra counted
     *  ACT costs a full ACT/WR/PRE round trip of drain time. */
    static constexpr unsigned kDefaultDisturbanceThreshold = 3;

    explicit ModelChecker(const Options &opts);

    /** Explore; stops at the first violation or when budgets drain. */
    ModelCheckResult run();

    /**
     * The reduced-timing model configuration: every checked rule fires
     * within the default depth budget (tREFI and tRFC included), DDR4
     * bank groups are on with tCCD_L > tCCD_S so the group rule is
     * observable, and the scheme is PRA so partial-activation masks
     * exercise the mask invariants.
     *
     * A non-zero @p disturbanceThreshold arms the PRAC model (counters,
     * ABO, RFM, reduced tRFM and recovery window) when the fault alone
     * does not, and overrides the threshold either way — the same
     * arming Options::disturbanceThreshold applies to an exploration.
     */
    static dram::DramConfig modelConfig(Fault fault,
                                        unsigned disturbanceThreshold = 0);

    /**
     * The deterministic exploration workload: same-row partial writes
     * (mask merging), same- and cross-group reads (tCCD_L/tCCD_S),
     * cross-rank traffic (tRTRS), a row conflict, and enough banks in
     * one rank to saturate the weighted tFAW window.
     */
    static std::vector<ModelRequest> defaultWorkload();

    /**
     * The PRAC hammer workload (used whenever the explored config has
     * pracEnabled): alternating same-bank rows whose re-activations are
     * all partial write ACTs — the merged mask union stays below a full
     * row, so the drop_count fault suppresses exactly the counting the
     * threshold property watches — plus one cross-rank read so the
     * second rank's refresh and liveness clocks stay exercised while
     * rank 0 is alert-blocked.
     */
    static std::vector<ModelRequest> pracWorkload();

  private:
    Options opts_;
};

} // namespace pra::analysis

#endif // PRA_ANALYSIS_MODEL_CHECKER_H
