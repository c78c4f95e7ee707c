/**
 * @file
 * One benchmark invocation: repeated cold runs of one cell, either
 * untraced (end-to-end metrics, through sim::System itself) or paired
 * untraced + traced (per-layer metrics, through TracedSystem), with the
 * correctness checks that decide which runs failed.
 */
#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include <cstdint>
#include <string>
#include <vector>

#include "cells.h"
#include "traced_system.h"

namespace perfbench {

/** What one invocation measures. */
struct Options
{
    const Cell *cell = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10.0;   //!< Keep starting runs until this much passed.
    /** Overrides the cell's instructions per core when non-zero. */
    std::uint64_t targetInstructions = 0;
    /** Where a per-layer invocation writes its span dump ("" = nowhere). */
    std::string spansOut;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The outcome of one invocation. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> notes;   //!< Printed before the result line.

    bool correct() const { return attempted > 0 && failed == 0; }
};

/** One cold run through sim::System. */
struct UntracedRun
{
    double setupS = 0.0;      //!< Generators + System + functional warmup.
    double snapshotS = 0.0;   //!< The snapshot copy taken out of setupS.
    double runS = 0.0;        //!< System::run() after warmup.
    pra::sim::RunResult result;
};

UntracedRun runUntraced(const Cell &cell, std::uint64_t seed,
                        std::uint64_t target_instructions = 0);

/** One cold run through the traced mirror, spans into @p tracer. */
struct TracedRun
{
    double runS = 0.0;
    pra::sim::RunResult result;
    LayerCounters counters;
};

TracedRun runTraced(const Cell &cell, std::uint64_t seed, Tracer &tracer,
                    std::uint64_t target_instructions = 0);

/** FNV-1a over sim::serializeRunResult: equal iff bit-identical results. */
std::uint64_t simFingerprint(const pra::sim::RunResult &res);

/** True when every core reached the target before maxDramCycles. */
bool completed(const pra::sim::RunResult &res,
               const pra::sim::SystemConfig &cfg);

/**
 * The first environment variable that would change what the benchmark
 * measures (engine choice, tracing, auditing, cold replay), or nullptr.
 */
const char *refusedEnvironment();

/** End-to-end metrics from untraced runs (--trace 0). */
Report measureEndToEnd(const Options &opts);

/** Per-layer metrics from paired untraced and traced runs (--trace 1). */
Report measurePerLayer(const Options &opts);

/** The result line: {"correct", "attempted", "failed", "metrics"}. */
std::string resultJson(const Report &report);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_H
