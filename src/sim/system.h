/**
 * @file
 * The integrated CPU–cache–DRAM simulation platform (the role gem5 +
 * DRAMSim2 play in the paper): four simplified OoO cores over private
 * L1s, a shared L2 with FGD (optionally fronted by a DBI), and the
 * cycle-accurate multi-channel DDR3 system with the configured scheme.
 *
 * Each core's address stream is relocated into a private slice of the
 * physical address space, as a multiprogrammed run on a real machine
 * would be.
 */
#ifndef PRA_SIM_SYSTEM_H
#define PRA_SIM_SYSTEM_H

#include <deque>
#include <memory>
#include <vector>

#include "cache/hierarchy.h"
#include "common/stats.h"
#include "cpu/core.h"
#include "dram/dram_system.h"
#include "power/power_model.h"
#include "verify/auditor.h"

namespace pra::sim {

/** Full-system configuration (defaults: paper Table 3). */
struct SystemConfig
{
    dram::DramConfig dram{};
    cpu::CoreParams core{};
    /** Its enableDbi and dbiRowKey are System's to derive; System
     *  throws std::invalid_argument when a caller sets either. */
    cache::HierarchyConfig caches{};
    bool enableDbi = false;

    /** Functional (timing-free) cache-warming ops per active core. */
    std::uint64_t warmupOpsPerCore = 120'000;
    /** Instructions per core in the measured region. */
    std::uint64_t targetInstructions = 1'200'000;
    /** Hard wall-clock bound in DRAM cycles. */
    Cycle maxDramCycles = 40'000'000;
    /** Writeback buffer backpressure threshold. */
    std::size_t writebackBacklogLimit = 64;
    /**
     * Cycle-skipping fast path: when every core is stalled and the DRAM
     * system reports no action possible before cycle T, jump the clock to
     * T instead of ticking through the idle stretch. Produces bit-identical
     * results to the naive loop (the skipped cycles are provably
     * action-free; background power is accounted analytically and, in
     * debug builds, asserted against a cycle-by-cycle replay).
     */
    bool enableCycleSkip = true;
    /**
     * Attach the cross-layer invariant auditor (src/verify) — the
     * semantic counterpart of DramConfig::enableChecker. Observational
     * only: results are bit-identical with or without it. PRA_AUDIT=1
     * in the environment force-enables it for every System and turns
     * violations into an abort with a full report; PRA_AUDIT_REPLAY=1
     * additionally replays cycle-skip windows through the slow path,
     * runs a scheduling round on every DRAM cycle
     * (DramConfig::forceRounds) and fingerprint-checks warm-snapshot
     * forks.
     */
    bool enableAudit = false;
    /** Auditor coherence-scan stride in accesses; 0 = auto. */
    unsigned auditScanStride = 0;
};

/**
 * SystemConfig's field table (common/fields.h), with the nested DRAM,
 * core and cache tables flattened in: the one ordered list of config
 * keys behind canonicalConfig() and applyConfigLine().
 */
template <typename Visit, typename... Self>
    requires FieldsOf<SystemConfig, Self...>
void
forEachField(Visit &&v, Self &...s)
{
    [[maybe_unused]] auto &[dram, core, caches, enableDbi, warmupOpsPerCore,
                            targetInstructions, maxDramCycles,
                            writebackBacklogLimit, enableCycleSkip,
                            enableAudit, auditScanStride] = fieldsHead(s...);
    forEachField(v, s.dram...);
    forEachField(v, s.core...);
    forEachField(v, s.caches...);
    v("dbi", kFieldSettable, s.enableDbi...);
    v("warmup_ops", kFieldSettable, s.warmupOpsPerCore...);
    v("target_instructions", kFieldSettable, s.targetInstructions...);
    v("max_cycles", kFieldSettable, s.maxDramCycles...);
    v("writeback_backlog", kFieldSettable, s.writebackBacklogLimit...);
    v("cycle_skip", kFieldSettable, s.enableCycleSkip...);
    v("audit", kFieldSettable | kFieldObservational, s.enableAudit...);
    v("audit_scan_stride", kFieldSettable | kFieldObservational,
      s.auditScanStride...);
}

/** Everything one simulation run produces. */
struct RunResult
{
    std::vector<double> ipc;          //!< Per active core.
    std::vector<std::uint64_t> retired;
    Cycle dramCycles = 0;

    dram::ControllerStats dramStats;
    power::EnergyCounts energy;
    Histogram dirtyWords{kWordsPerLine + 1};  //!< Figure 3.

    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;
    std::uint64_t dbiProactive = 0;

    // Power-model evaluation of `energy`.
    power::EnergyBreakdown breakdown;
    double avgPowerMw = 0.0;
    double totalEnergyNj = 0.0;
    double edp = 0.0;

    /**
     * Event-engine counters. Observational wall-clock diagnostics only —
     * deliberately excluded from the result cache, so forced-round and
     * event-driven runs share cache entries.
     */
    dram::EngineStats engine;
};

/**
 * RunResult's field table (common/fields.h), with the controller and
 * energy tables flattened in: the rows and order of the serialized
 * result (sim/result_cache.h). `engine` has no row: the event-engine
 * counters are observational and stay out of the serialization.
 */
template <typename Visit, typename... Self>
    requires FieldsOf<RunResult, Self...>
void
forEachField(Visit &&v, Self &...s)
{
    [[maybe_unused]] auto &[ipc, retired, dramCycles, dramStats, energy,
                            dirtyWords, memReads, memWrites, dbiProactive,
                            breakdown, avgPowerMw, totalEnergyNj, edp,
                            engine] = fieldsHead(s...);
    v("ipc", 0, s.ipc...);
    v("retired", 0, s.retired...);
    v("dram_cycles", 0, s.dramCycles...);
    forEachField(v, s.dramStats...);
    forEachField(v, s.energy...);
    v("dirty_words", 0, s.dirtyWords...);
    v("mem_reads", 0, s.memReads...);
    v("mem_writes", 0, s.memWrites...);
    v("dbi_proactive", 0, s.dbiProactive...);
    v("breakdown", 0, s.breakdown...);
    v("avg_power_mw", 0, s.avgPowerMw...);
    v("total_energy_nj", 0, s.totalEnergyNj...);
    v("edp", 0, s.edp...);
}

/**
 * Immutable image of a system's state right after functional warmup:
 * the warmed cache hierarchy (tags, dirty bits, LRU clocks, DBI row
 * groups, warmup-accrued statistics) plus the post-warmup generator
 * states (RNG, cursors, pending ops). Because warmup never touches the
 * DRAM clock, cores, or writeback queue, this is the *complete* mutable
 * state a cold run has accumulated when its measured region begins — so
 * a System forked from the snapshot produces results bit-identical to a
 * cold run, while N configurations sharing a warmup pay for it once.
 *
 * Validity: a fork's SystemConfig must agree with the snapshot's source
 * config on every warmup-relevant field — the mix and its per-slot
 * seeds, warmupOpsPerCore, cache geometry, DBI enable, core count, and
 * the DRAM organization/mapping (which fixes the address-relocation
 * slices and the DBI row-key function). sim::warmupKey() canonicalizes
 * exactly this set; WarmupCache keys snapshots with it.
 */
struct WarmSnapshot
{
    cache::Hierarchy hier;
    std::vector<std::unique_ptr<cpu::Generator>> gens;
};

/** The simulation platform. */
class System : public cpu::CoreMemoryPort
{
  public:
    /**
     * @param cfg        System configuration.
     * @param generators One instruction stream per *active* core (1 for
     *                   "alone" runs, 4 for rate/mix runs).
     */
    System(const SystemConfig &cfg,
           std::vector<std::unique_ptr<cpu::Generator>> generators);

    /**
     * Fork a system from a warm snapshot: deep-copies the warmed
     * hierarchy, clones the generators, and marks warmup done, so run()
     * proceeds straight to the measured region. @p cfg may differ from
     * the snapshot's source configuration in any field that does not
     * affect warmup (scheme, timing, queue/policy knobs, power,
     * targetInstructions, ...) — see WarmSnapshot's validity contract.
     */
    System(const SystemConfig &cfg, const WarmSnapshot &snapshot);
    ~System() override;

    /**
     * Run functional warmup now (idempotent; run() will not repeat it)
     * and export the warmed state. The exported snapshot is independent
     * of this system — safe to share across threads and outlive it.
     */
    WarmSnapshot exportWarmSnapshot();

    /** Warm the caches, run to completion, and evaluate power. */
    RunResult run();

    // CoreMemoryPort interface.
    bool canIssue(unsigned core, Addr addr) override;
    bool access(unsigned core, const cpu::MemOp &op,
                std::uint64_t tag) override;

    const dram::DramSystem &dram() const { return dram_; }
    const cache::Hierarchy &caches() const { return *hier_; }

    /** The invariant auditor, when enabled (null otherwise). */
    const verify::Auditor *auditor() const { return auditor_.get(); }

  private:
    Addr translate(unsigned core, Addr addr) const;
    void functionalWarmup();
    void initCores();
    void setupAudit();
    void pushWritebacks(std::span<const cache::Writeback> wbs);
    void drainWritebacks();

    SystemConfig cfg_;
    dram::DramSystem dram_;
    std::unique_ptr<cache::Hierarchy> hier_;
    std::unique_ptr<verify::Auditor> auditor_;
    bool auditEnforce_ = false;   //!< Abort on violations (PRA_AUDIT=1).
    bool auditReplay_ = false;    //!< Replay fast paths (PRA_AUDIT_REPLAY).
    std::vector<std::unique_ptr<cpu::Generator>> gens_;
    std::vector<cpu::Core> cores_;

    std::deque<cache::Writeback> pendingWb_;
    std::vector<Cycle> finishCycle_;
    std::vector<bool> finished_;

    Addr coreSlice_ = 0;
    bool warmed_ = false;   //!< Functional warmup already performed.
};

} // namespace pra::sim

#endif // PRA_SIM_SYSTEM_H
