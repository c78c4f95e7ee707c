/**
 * @file
 * The traced mirror: a bench-side copy of sim::System's wiring and run
 * loop, built only from the simulator's public classes, that wraps every
 * call into a layer in a Span. It mirrors System call for call, so its
 * RunResult must be bit-identical to System::run's on the same inputs;
 * the benchmark checks that on every traced run and counts a mismatch as
 * a failed run.
 *
 * Deliberately left out: the invariant auditor (src/verify), which the
 * benchmark refuses to run with, and the audit replay of skip windows.
 */
#ifndef PERFBENCH_TRACED_SYSTEM_H
#define PERFBENCH_TRACED_SYSTEM_H

#include <deque>
#include <memory>
#include <vector>

#include "sim/system.h"
#include "tracer.h"

namespace perfbench {

/** Generator decorator that times every next() as workloads.next. */
class TimedGenerator : public pra::cpu::Generator
{
  public:
    TimedGenerator(std::unique_ptr<pra::cpu::Generator> inner, Tracer &tracer)
        : inner_(std::move(inner)), tracer_(&tracer)
    {
    }

    pra::cpu::MemOp
    next() override
    {
        Span span(*tracer_, SpanId::WorkloadsNext);
        return inner_->next();
    }
    const char *name() const override { return inner_->name(); }
    std::unique_ptr<pra::cpu::Generator>
    clone() const override
    {
        return std::make_unique<TimedGenerator>(inner_->clone(), *tracer_);
    }

    /** The undecorated generator (warmup draws from it untimed). */
    pra::cpu::Generator &inner() { return *inner_; }

  private:
    std::unique_ptr<pra::cpu::Generator> inner_;
    Tracer *tracer_;
};

/** Deterministic counts the traced mirror takes over a measured region. */
struct LayerCounters
{
    std::uint64_t cacheAccesses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t writebacks = 0;     //!< Lines leaving the hierarchy.
    std::uint64_t dbiProactive = 0;   //!< DBI row-batched writebacks.
    std::uint64_t enqueueRejected = 0; //!< Writeback enqueues retried.
    std::uint64_t skipCycles = 0;     //!< DRAM cycles fast-forwarded.
};

class TracedSystem : public pra::cpu::CoreMemoryPort
{
  public:
    /** Wraps each of @p generators in a TimedGenerator. */
    TracedSystem(const pra::sim::SystemConfig &cfg,
                 std::vector<std::unique_ptr<pra::cpu::Generator>> generators,
                 Tracer &tracer);

    /** Functional warmup, timed as one sim.warmup span. */
    void warmup();

    /**
     * The measured region; mirrors System::run after warmup. The caller
     * marks the run with Tracer::beginRun first.
     */
    pra::sim::RunResult run();

    bool canIssue(unsigned core, pra::Addr addr) override;
    bool access(unsigned core, const pra::cpu::MemOp &op,
                std::uint64_t tag) override;

    const LayerCounters &counters() const { return counters_; }

  private:
    pra::Addr
    translate(unsigned core, pra::Addr addr) const
    {
        return (addr % coreSlice_) + static_cast<pra::Addr>(core) * coreSlice_;
    }
    void drainWritebacks();
    std::uint64_t dbiProactive() const;

    pra::sim::SystemConfig cfg_;
    Tracer &tracer_;
    pra::dram::DramSystem dram_;
    std::unique_ptr<pra::cache::Hierarchy> hier_;
    std::vector<std::unique_ptr<TimedGenerator>> gens_;
    std::vector<pra::cpu::Core> cores_;
    std::deque<pra::cache::Writeback> pendingWb_;
    pra::Addr coreSlice_ = 0;
    LayerCounters counters_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACED_SYSTEM_H
