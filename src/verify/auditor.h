/**
 * @file
 * Simulation-wide invariant auditor.
 *
 * A second, independently written implementation of the paper's
 * *semantics* (where dram::TimingChecker is a second implementation of
 * the DDR3 *timing*). The auditor observes raw events from every layer —
 * write-queue admissions, DRAM commands, cache writebacks, fast-path
 * transitions — keeps its own shadow state, and checks a registry of
 * named cross-layer invariants:
 *
 *  - dram.act.read-full-row      reads always activate the full row;
 *  - dram.act.mask-conformance   every partial ACT's mask equals the
 *                                union of dirty-word MAT groups of the
 *                                queued writes it serves (granularity,
 *                                mask-cycle flag and tFAW weight too);
 *  - dram.col.within-open-mask   no column command touches a MAT group
 *                                outside the open activation's mask;
 *  - dram.shadow.row-state       commands are legal against the shadow
 *                                bank/queue state (ACT to closed banks,
 *                                columns to the open row, ...);
 *  - cache.wb.mask-exact         a writeback's PRA mask is exactly the
 *                                word-collapse of its FGD dirty bytes,
 *                                and the line is clean everywhere once
 *                                the writeback is emitted;
 *  - cache.dirty-inclusion       L1 dirty lines are resident in the
 *                                (inclusive) L2, and every L1 line has
 *                                its core's sharer bit set there; the
 *                                DBI tracks exactly the dirty L2 lines
 *                                (sampled scan);
 *  - power.event-conservation    per-command energy events sum to the
 *                                aggregate PowerModel totals (counts
 *                                exactly; windowed energy within 1 ulp
 *                                per window);
 *  - fastpath.skip-quiescent     cycle-skip windows are command-free
 *                                when replayed through the slow path
 *                                (PRA_AUDIT_REPLAY=1);
 *  - fastpath.fork-fingerprint   warm-snapshot exports/forks replicate
 *                                the hierarchy state bit-exactly
 *                                (PRA_AUDIT_REPLAY=1);
 *  - fastpath.event-wake-sound   scheduling rounds before the event
 *                                engine's published wake cycle do
 *                                nothing when forced to run anyway
 *                                (PRA_AUDIT_REPLAY=1);
 *  - dram.prac.count-conservation
 *                                the controller's PRAC activation
 *                                counters are conservation-exact: its
 *                                reported tracked-count sum equals the
 *                                replayed-CAM sum, which by construction
 *                                equals ACTs counted minus counts
 *                                mitigated (pracEnabled only).
 *
 * Attachment mirrors DramConfig::enableChecker: set
 * sim::SystemConfig::enableAudit (or export PRA_AUDIT=1, which also
 * turns violations into an abort with a full report). Per-event checks
 * always run; the cache coherence scan is sampled at a configurable
 * stride (denser in debug builds). On the first violation the auditor
 * snapshots a ring buffer of the last commands/events, and report()
 * renders it with the config fingerprint so the failure is reproducible
 * from the report alone.
 */
#ifndef PRA_VERIFY_AUDITOR_H
#define PRA_VERIFY_AUDITOR_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bitmask.h"
#include "common/types.h"
#include "core/scheme.h"
#include "power/power_model.h"
#include "verify/events.h"

namespace pra::cache {
class Hierarchy;
}

namespace pra::verify {

/**
 * The configuration slice the auditor needs to re-derive expectations.
 * Built by the attaching layer (sim::System or a test) from its own
 * config so the auditor does not depend on dram:: headers.
 */
struct AuditConfig
{
    /** Scheme under audit (registry singleton; never null once set). */
    const SchemeModel *scheme = &baselineScheme();
    bool mergeWriteMasks = true;
    bool weightedActWindow = true;
    unsigned minActGranularity = 1;

    unsigned channels = 1;
    unsigned ranksPerChannel = 1;
    unsigned banksPerRank = 8;

    power::PowerParams power{};
    unsigned chipsPerRank = 8;
    unsigned eccChipsPerRank = 0;

    // PRAC (DramConfig::pracEnabled &c.); the auditor replays its own
    // tag-CAM from the raw command stream and checks conservation.
    bool pracEnabled = false;
    unsigned pracThreshold = 512;
    unsigned pracCamEntries = 8;

    /** Coherence-scan stride in accesses; 0 = auto (denser in debug). */
    unsigned scanStride = 0;
    /** FNV-1a of the canonical config, echoed in every report. */
    std::uint64_t configFingerprint = 0;
};

/** Named invariants checked by the auditor (see file header). */
enum class Invariant
{
    ReadFullRow,
    ActMaskConformance,
    ColumnWithinMask,
    ShadowRowState,
    WritebackMaskExact,
    DirtyInclusion,
    EnergyConservation,
    SkipQuiescent,
    ForkFingerprint,
    EventWakeSound,
    PracConservation,
    Count_,
};

/** Per-invariant bookkeeping surfaced by report(). */
struct InvariantStats
{
    const char *name = "";
    const char *what = "";
    std::uint64_t checks = 0;
    std::uint64_t violations = 0;
};

/** The cross-layer invariant auditor (one per simulated system). */
class Auditor
{
  public:
    explicit Auditor(const AuditConfig &cfg);

    /** Enable the cache-side invariants (optional; may be null). */
    void attachHierarchy(const cache::Hierarchy *hier) { hier_ = hier; }

    // --- Event intake -------------------------------------------------
    void onWriteEnqueue(const WriteQueueEvent &ev);
    void onCommand(const DramCommandEvent &ev);
    void onWriteback(const WritebackEvent &ev);
    /** One core access completed; samples the coherence scan. */
    void onCacheAccess();

    // --- Fast-path equivalence (PRA_AUDIT_REPLAY=1) -------------------
    /** A cycle-skip window [from, to) is being replayed tick-by-tick. */
    void beginQuiescentWindow(Cycle from, Cycle to);
    void endQuiescentWindow();
    /**
     * The event engine was forced (replay mode) to run a scheduling
     * round at @p cycle although its published wake-up target was
     * @p wake (> cycle); @p activity reports whether the round issued a
     * command, retired an auto-precharge, or delivered a completion —
     * any of which proves the published wake-up set unsound.
     */
    void onEventRound(Cycle cycle, Cycle wake, bool activity);
    /** Compare a snapshot/fork state fingerprint against its source. */
    void checkFingerprint(const char *what, std::uint64_t expected,
                          std::uint64_t actual);

    /**
     * End-of-run conservation checks against the aggregate counts the
     * power model is evaluated on.
     */
    void finalize(const power::EnergyCounts &aggregate);

    // --- Results ------------------------------------------------------
    bool clean() const { return totalViolations_ == 0; }
    const std::vector<std::string> &violations() const
    {
        return violations_;
    }
    const std::array<InvariantStats,
                     static_cast<std::size_t>(Invariant::Count_)> &
    invariants() const
    {
        return stats_;
    }
    std::uint64_t eventsAudited() const { return events_; }
    std::uint64_t scansRun() const { return scans_; }

    /** Full report: config fingerprint, invariant table, ring buffer. */
    std::string report() const;

    /** PRA_AUDIT=1: audit every System and abort on violations. */
    static bool envEnabled();
    /** PRA_AUDIT_REPLAY=1: replay fast paths through the slow path. */
    static bool envReplay();

  private:
    struct ShadowBank
    {
        bool open = false;
        std::uint32_t row = 0;
        WordMask mask = WordMask::none();
    };

    /** Shadow image of one queued (possibly combined) write. */
    struct ShadowWrite
    {
        Addr addr = 0;
        unsigned rank = 0;
        unsigned bank = 0;
        std::uint32_t row = 0;
        WordMask mask = WordMask::none();
        std::uint8_t chipMask = 0;
    };

    /** One tracked row of the auditor's independent PRAC CAM replica. */
    struct ShadowPracEntry
    {
        std::uint32_t row = 0;
        std::uint32_t count = 0;
    };

    /** Independent PRAC shadow for one rank: per-bank CAM + ledger. */
    struct ShadowPracRank
    {
        std::vector<std::vector<ShadowPracEntry>> cams;  //!< Per bank.
        std::uint64_t acts = 0;        //!< ACTs that must be counted.
        std::uint64_t mitigated = 0;   //!< Counts cleared by RFMs.
    };

    struct ShadowChannel
    {
        std::vector<ShadowBank> banks;
        std::vector<ShadowWrite> writes;   //!< Controller queue order.
        std::vector<ShadowPracRank> prac;  //!< Empty unless pracEnabled.
    };

    /** Compact raw entry for the pre-violation ring buffer. */
    struct RingEntry
    {
        char tag = 0;   //!< A/R/W/P/F command, q enqueue, b writeback.
        Cycle cycle = 0;
        unsigned channel = 0;
        unsigned rank = 0;
        unsigned bank = 0;
        std::uint32_t row = 0;
        Addr addr = 0;
        std::uint8_t mask = 0;
        std::uint8_t need = 0;
        bool partial = false;
    };

    InvariantStats &stat(Invariant inv)
    {
        return stats_[static_cast<std::size_t>(inv)];
    }
    ShadowBank &shadowBank(const DramCommandEvent &ev);

    void fail(Invariant inv, Cycle cycle, const std::string &why);
    void record(const RingEntry &entry);
    std::string formatRing() const;
    void checkActivate(const DramCommandEvent &ev, ShadowChannel &ch);
    void pracCountActivate(const DramCommandEvent &ev, ShadowChannel &ch);
    void pracCheckRfm(const DramCommandEvent &ev, ShadowChannel &ch);
    static std::uint64_t pracTrackedSum(const ShadowPracRank &pr);
    void accountCommandEnergy(const DramCommandEvent &ev);
    void closeEnergyWindow();
    void runCoherenceScan();

    AuditConfig cfg_;
    power::PowerModel model_;
    const cache::Hierarchy *hier_ = nullptr;

    std::vector<ShadowChannel> channels_;

    // Shadow energy accounting (command-driven categories only).
    power::EnergyCounts shadow_{};
    power::EnergyCounts window_{};
    std::uint64_t windowEvents_ = 0;
    std::uint64_t windowsClosed_ = 0;
    double windowEnergySum_ = 0.0;

    // Quiescent-window replay state.
    bool inQuiescentWindow_ = false;
    Cycle windowFrom_ = 0;
    Cycle windowTo_ = 0;

    // Coherence-scan sampling.
    unsigned scanStride_ = 1;
    std::uint64_t accesses_ = 0;
    std::uint64_t scans_ = 0;
    std::size_t l2ScanCursor_ = 0;

    // Ring buffer of recent events; snapshot taken at first violation.
    std::array<RingEntry, 64> ring_{};
    std::size_t ringNext_ = 0;
    std::size_t ringFill_ = 0;
    std::string firstViolationRing_;

    std::array<InvariantStats, static_cast<std::size_t>(Invariant::Count_)>
        stats_{};
    std::vector<std::string> violations_;
    std::uint64_t totalViolations_ = 0;
    std::uint64_t events_ = 0;
};

} // namespace pra::verify

#endif // PRA_VERIFY_AUDITOR_H
