/**
 * @file
 * Shared helpers for the experiment harnesses: standard run
 * configuration, normalization utilities, and wall-clock
 * instrumentation for the sweep engine.
 */
#ifndef PRA_BENCH_BENCH_UTIL_H
#define PRA_BENCH_BENCH_UTIL_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/table.h"
#include "sim/experiment.h"
#include "sim/runner.h"

namespace pra::bench {

/**
 * Measured-region length shared by the figure sweeps. Short enough to
 * keep the full sweep matrix tractable, long enough that every workload
 * reaches steady state (the paper's trends are stable from ~500k on).
 */
inline constexpr std::uint64_t kBenchTargetInstructions = 800'000;

/** Paper-baseline system configuration for a scheme/policy point. */
inline sim::SystemConfig
benchConfig(const sim::ConfigPoint &point,
            std::uint64_t target_instructions = kBenchTargetInstructions)
{
    sim::SystemConfig cfg = sim::makeConfig(point);
    cfg.targetInstructions = target_instructions;
    return cfg;
}

/** Run one of the paper's 14 workloads under a configuration point. */
inline sim::RunResult
runPoint(const workloads::Mix &mix, const sim::ConfigPoint &point,
         std::uint64_t target_instructions = kBenchTargetInstructions)
{
    return sim::runWorkload(mix, benchConfig(point, target_instructions));
}

/** "0.77" style normalized value. */
inline std::string
norm(double value, double baseline)
{
    return Table::fmt(baseline != 0.0 ? value / baseline : 0.0, 3);
}

/**
 * Scoped wall-clock instrumentation for a sweep: reports the elapsed
 * wall time, the number of cells, and the aggregate simulation rate
 * (simulated DRAM cycles per wall second) on destruction. Output goes
 * to stderr so the tabular stdout of every bench binary stays
 * byte-identical whether or not anyone is watching the rate.
 */
class SweepTimer
{
  public:
    explicit SweepTimer(std::string label)
        : label_(std::move(label)),
          start_(std::chrono::steady_clock::now())
    {
    }

    SweepTimer(const SweepTimer &) = delete;
    SweepTimer &operator=(const SweepTimer &) = delete;

    /** Credit one finished cell. Safe to call from worker threads. */
    void
    add(const sim::RunResult &res)
    {
        simulatedCycles_.fetch_add(res.dramCycles,
                                   std::memory_order_relaxed);
        cells_.fetch_add(1, std::memory_order_relaxed);
        eventsPopped_.fetch_add(res.engine.eventsPopped,
                                std::memory_order_relaxed);
        roundsRun_.fetch_add(res.engine.rounds, std::memory_order_relaxed);
        skippedTicks_.fetch_add(res.engine.skippedTicks,
                                std::memory_order_relaxed);
        std::uint64_t prev = heapPeak_.load(std::memory_order_relaxed);
        while (prev < res.engine.heapPeak &&
               !heapPeak_.compare_exchange_weak(prev, res.engine.heapPeak,
                                                std::memory_order_relaxed)) {
        }
    }

    /** Credit @p results finished cells at once. */
    void
    add(const std::vector<sim::RunResult> &results)
    {
        for (const auto &r : results)
            add(r);
    }

    /**
     * Report @p runner's reuse counters (persistent-cache hits, warmups
     * simulated) alongside the wall time. The runner must outlive this
     * timer; counters are read at destruction.
     */
    void attach(const sim::Runner &runner) { runner_ = &runner; }

    ~SweepTimer()
    {
        const double secs =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();
        const double cycles =
            static_cast<double>(simulatedCycles_.load());
        std::fprintf(stderr,
                     "[sweep] %s: %llu cells, %.2f s wall, "
                     "%.1fM DRAM cycles, %.2fM cycles/s",
                     label_.c_str(),
                     static_cast<unsigned long long>(cells_.load()),
                     secs, cycles / 1e6,
                     secs > 0.0 ? cycles / 1e6 / secs : 0.0);
        if (runner_ != nullptr) {
            std::fprintf(
                stderr, ", %llu cache hits, %llu warmups",
                static_cast<unsigned long long>(
                    runner_->resultCacheHits()),
                static_cast<unsigned long long>(
                    runner_->warmupsComputed()));
        }
        // Event-engine counters (DESIGN.md §11): wake-ups popped per
        // simulated kilocycle, the fraction of ticks the engine slept
        // through, and the deepest wake-up heap seen.
        const double events =
            static_cast<double>(eventsPopped_.load());
        const double rounds = static_cast<double>(roundsRun_.load());
        const double skipped =
            static_cast<double>(skippedTicks_.load());
        std::fprintf(
            stderr, ", %.2f events/kcycle, %.1f%% ticks skipped, "
                    "heap peak %llu\n",
            cycles > 0.0 ? events / (cycles / 1e3) : 0.0,
            rounds + skipped > 0.0 ? 100.0 * skipped / (rounds + skipped)
                                   : 0.0,
            static_cast<unsigned long long>(heapPeak_.load()));
    }

  private:
    std::string label_;
    std::chrono::steady_clock::time_point start_;
    std::atomic<std::uint64_t> simulatedCycles_{0};
    std::atomic<std::uint64_t> cells_{0};
    std::atomic<std::uint64_t> eventsPopped_{0};
    std::atomic<std::uint64_t> roundsRun_{0};
    std::atomic<std::uint64_t> skippedTicks_{0};
    std::atomic<std::uint64_t> heapPeak_{0};
    const sim::Runner *runner_ = nullptr;
};

} // namespace pra::bench

#endif // PRA_BENCH_BENCH_UTIL_H
