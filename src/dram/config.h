/**
 * @file
 * DRAM system configuration: organization, controller policy, scheme,
 * timing, and power parameters. Defaults reproduce the paper's Table 3
 * baseline: 8 GB, 2 channels x 2 ranks x 8 chips (x8), 2Gb DDR3-1600
 * devices with 8 banks, 32k rows, 1k columns.
 */
#ifndef PRA_DRAM_CONFIG_H
#define PRA_DRAM_CONFIG_H

#include "common/types.h"
#include "core/scheme.h"
#include "dram/timing.h"
#include "power/power_params.h"

namespace pra::dram {

/** Row-buffer management policy. */
enum class PagePolicy
{
    /**
     * Relaxed close-page: a row stays open while queued requests can hit
     * it (up to the row-hit cap), then the bank precharges; idle ranks
     * enter precharge power-down.
     */
    RelaxedClose,
    /**
     * Restricted close-page: every request is an atomic ACT + column
     * access + (auto-)precharge.
     */
    RestrictedClose,
    /**
     * Open page: rows stay open until a conflicting request or refresh
     * forces them shut (no hit cap, no idle close). Maximizes row-buffer
     * reuse at the cost of conflict latency and background power.
     */
    OpenPage,
};

/** Request scheduling policy (src/dram/sched/). */
enum class SchedulerKind
{
    /**
     * FR-FCFS (paper baseline): row hits first within each queue, reads
     * prioritized over writes with watermark-driven drain hysteresis,
     * at most rowHitCap consecutive hits per activation.
     */
    FrFcfs,
    /** Strict in-order service per queue: no row-hit reordering. */
    Fcfs,
    /**
     * FR-FCFS plus oldest-write promotion: once the oldest queued write
     * has waited longer than writeAgePromotionCycles, writes are
     * serviced ahead of reads even below the high watermark, bounding
     * write starvation under read-heavy traffic.
     */
    FrFcfsWriteAge,
};

/** Physical address interleaving. */
enum class AddrMapping
{
    /** row:rank:bank:channel:col — open-page friendly (paper default). */
    RowInterleaved,
    /** row:col:rank:bank:channel — spreads consecutive lines, used with
     *  the restricted close-page policy. */
    LineInterleaved,
};

/** Complete DRAM system configuration. */
struct DramConfig
{
    // Organization (Table 3).
    unsigned channels = 2;
    unsigned ranksPerChannel = 2;
    unsigned banksPerRank = 8;
    unsigned rowsPerBank = 32768;
    unsigned linesPerRow = 128;   //!< 8 KB rank-level row / 64 B lines.
    unsigned chipsPerRank = 8;
    /** Extra ECC devices per rank (x72 DIMM); their PRA pin is tied
     *  high, so they always activate full rows (Section 4.2). */
    unsigned eccChipsPerRank = 0;

    // Controller.
    PagePolicy policy = PagePolicy::RelaxedClose;
    AddrMapping mapping = AddrMapping::RowInterleaved;
    SchedulerKind scheduler = SchedulerKind::FrFcfs;
    /**
     * FrFcfsWriteAge only: queue age in DRAM cycles past which the
     * oldest write is promoted ahead of reads.
     */
    Cycle writeAgePromotionCycles = 2000;
    unsigned readQueueDepth = 64;
    unsigned writeQueueDepth = 64;
    unsigned writeHighWatermark = 48;
    unsigned writeLowWatermark = 16;
    unsigned rowHitCap = 4;       //!< Max consecutive hits per activation.
    bool powerDownEnabled = true;
    unsigned powerDownThreshold = 8; //!< Idle cycles before PRE PDN.
    /** Attach the independent DDR3 protocol checker (debug/test aid). */
    bool enableChecker = false;
    /**
     * Test-only fault hook: OR these bits into every activation's open
     * mask after the scheme computed it. A non-zero value deliberately
     * widens partial activations — a mask-conformance bug the invariant
     * auditor (src/verify) must catch. Affects simulated behaviour, so
     * it participates in the canonical config / result-cache key.
     */
    std::uint8_t auditFaultWidenAct = 0;
    /**
     * Test-only fault hooks for the bus arbiter, in the same spirit:
     * drop the tCCD_L same-bank-group gate (issuing too-early column
     * commands) or the tWTR write-to-read gate. The independent
     * TimingChecker must flag the resulting protocol violations. Both
     * affect simulated behaviour, so they participate in the canonical
     * config / result-cache key.
     */
    bool faultIgnoreTccdL = false;
    bool faultIgnoreTwtr = false;
    /**
     * Test-only liveness fault hooks, drilled by the model checker's
     * progress properties (src/analysis, DESIGN.md §10.1). The first
     * makes BusArbiter::readBlockedUntil() report a stale (cycle-0)
     * bound while readBlocked() keeps gating reads: the event engine's
     * stale-bound rule drops it, losing the tWTR release wake-up — the
     * checker's wakeup-soundness property must catch the lost wakeup.
     * The second (non-zero = age threshold in cycles) makes both
     * scheduling scans skip any request older than the threshold,
     * modelling a saturating age-priority counter that inverts — the
     * checker's bounded-progress property must catch the starved
     * request. Both affect simulated behaviour, so they participate in
     * the canonical config / result-cache key.
     */
    bool faultSuppressWakeTwtr = false;
    Cycle faultStarveAgedCycles = 0;

    /** The starve-aged fault's admission predicate, shared by the live
     *  controller's scans and the model checker's enumeration so both
     *  see the identical (faulted) behaviour. */
    bool
    faultStarvesRequest(Cycle now, Cycle arrival) const
    {
        return faultStarveAgedCycles != 0 &&
               now - arrival >= faultStarveAgedCycles;
    }

    // --- PRAC / RFM read-disturbance mitigation (DESIGN.md §13) ------------
    /**
     * Per-row activation counting with Alert Back-Off and RFM recovery.
     * Off by default: every PRAC field below is consulted only when this
     * is set, so disabled configurations are bit-identical to builds
     * that predate the feature. Affects simulated behaviour, so it
     * participates in the canonical config / result-cache key.
     */
    bool pracEnabled = false;
    /**
     * Activation count at which a row is considered disturbed. The
     * controller raises its alert one activation *early* (at threshold
     * - 1) and back-offs further ACTs to the rank until an RFM
     * mitigation lands, so no counted row ever reaches the threshold.
     */
    unsigned disturbanceThreshold = 512;
    /**
     * Tag-CAM entries per bank tracking the hottest rows. Eviction
     * inherits min-count + 1 (Misra-Gries style), so every tracked
     * count is a sound over-approximation of the row's true activation
     * count and the tracked sum rises by exactly 1 per counted ACT.
     */
    unsigned pracCamEntries = 8;
    /**
     * Recovery window in cycles: an RFM mitigation must issue within
     * this many cycles of the alert being raised. The model checker
     * proves the bound; the live controller treats alert recovery as
     * top-priority maintenance (right after refresh).
     */
    Cycle pracRecoveryWindow = 1024;
    /**
     * Test-only PRAC fault hooks, drilled by the model checker's
     * disturbance-safety properties (DESIGN.md §13). The first makes
     * the counter skip masked *partial* activations — a row disturbed
     * through partial ACTs then crosses the threshold with no alert
     * ever raised. The second delays RFM readiness until a full
     * recovery window after the alert — the mitigation lands one
     * window too late on every path. Both affect simulated behaviour,
     * so they participate in the canonical config / result-cache key.
     */
    bool faultPracDropCount = false;
    bool faultPracLateRfm = false;

    // PRA design-space ablation knobs (DESIGN.md "ablations").
    /** OR the masks of queued same-row writes into one activation. */
    bool mergeWriteMasks = true;
    /** Charge tRRD/tFAW by activation power instead of by count. */
    bool weightedActWindow = true;
    /**
     * Minimum partial-activation granularity in MAT groups: 1 = the
     * paper's one-eighth row, 2 = quarter row, 4 = half row. Coarser
     * masks need fewer PRA latch bits (and fewer wordline gates).
     */
    unsigned minActGranularity = 1;

    /**
     * Run a full scheduling round on every tick, including the cycles
     * the published wake-up bound declares quiet (DESIGN.md §11.1).
     * This per-cycle mode is the reference the event engine is checked
     * against. Observational: simulated behaviour is identical either
     * way, so it stays out of the canonical config and the cache key.
     * System sets it from PRA_AUDIT_REPLAY=1; there is no config key.
     */
    // pra-lint: no-config-key
    bool forceRounds = false;   // pra-lint: observational

    /**
     * Scheme under evaluation: an immutable registry singleton
     * (core/scheme.h). Never null; pointer equality is scheme identity.
     */
    const SchemeModel *scheme = &baselineScheme();

    Timing timing{};
    power::PowerParams power{};

    /** Apply the paper's restricted close-page study configuration. */
    void
    useRestrictedClosePage()
    {
        policy = PagePolicy::RestrictedClose;
        mapping = AddrMapping::LineInterleaved;
    }
};

} // namespace pra::dram

#endif // PRA_DRAM_CONFIG_H
