/**
 * @file
 * Full-sweep export: runs every workload x scheme point of the main
 * evaluation and writes machine-readable results to pra_sweep.csv and
 * pra_sweep.json in the working directory (and a short summary to
 * stdout). This is the artifact downstream plotting/regression tooling
 * consumes.
 *
 * The sweep is run twice through one Runner — cold, then warm against
 * the result cache — and a machine-readable timing summary lands in
 * BENCH_sweep.json (wall seconds, simulated cycles, and the event
 * engine's skip/wake counters per pass, DESIGN.md §11).
 *
 * Modes:
 *  - PRA_SMOKE=1 shrinks the grid (3 workloads x {Baseline, Pra},
 *    120k instructions) for CI;
 *  - --assert-event-speedup replaces the export with a cold
 *    forced-vs-event wall-time comparison, written to BENCH_engine.json,
 *    and exits non-zero unless the event engine is at least 2x faster
 *    than forced rounds (DramConfig::forceRounds: a scheduling round on
 *    every DRAM cycle, with the system-level cycle skip still on). The
 *    comparison runs at the ROADMAP north-star geometry (kScaleGeometry:
 *    many channels whose idle cycles the wakeup queue skips) rather than
 *    the saturated 2x2 paper grid, shares functional warmups across both
 *    passes, and disables the result cache from inside the binary: cache
 *    keys deliberately exclude the observational forceRounds knob, so a
 *    cached forced run would otherwise be served to the event pass (or
 *    vice versa) and fake the ratio.
 */
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/report.h"
#include "sim/runner.h"

using namespace pra;
using namespace pra::bench;

namespace {

/** One timed pass over the grid, as it lands in a BENCH_*.json file. */
struct PassTotals
{
    double wallSecs = 0.0;
    std::uint64_t dramCycles = 0;
    std::uint64_t skippedTicks = 0;
    std::uint64_t eventsPopped = 0;
    std::uint64_t rounds = 0;
    std::uint64_t heapPeak = 0;

    void
    add(const std::vector<sim::RunResult> &results)
    {
        for (const sim::RunResult &r : results) {
            dramCycles += r.dramCycles;
            skippedTicks += r.engine.skippedTicks;
            eventsPopped += r.engine.eventsPopped;
            rounds += r.engine.rounds;
            heapPeak = std::max(heapPeak, r.engine.heapPeak);
        }
    }
};

bool
smokeMode()
{
    const char *env = std::getenv("PRA_SMOKE");
    return env != nullptr && env[0] == '1';
}

/** Channel/rank geometry for a job grid; {0, 0} keeps the default. */
struct Geometry
{
    unsigned channels = 0;
    unsigned ranks = 0;
};

/**
 * The assert-mode geometry: the ROADMAP north-star is datacenter-scale
 * configs with many channels x ranks, where most channels idle on any
 * given cycle — the regime the wakeup-queue engine exists for. The
 * default 2x2 paper geometry keeps every channel saturated, so it
 * measures per-round cost, not event-skipping.
 */
constexpr Geometry kScaleGeometry{32, 2};

/** The workload x scheme job list; @p force_rounds sets forceRounds. */
std::vector<sim::SweepJob>
buildJobs(const std::vector<std::string> &names,
          const std::vector<const SchemeModel *> &schemes, std::uint64_t target,
          std::vector<std::pair<std::string, sim::ConfigPoint>> *labels,
          bool force_rounds = false, Geometry geom = {})
{
    std::vector<sim::SweepJob> jobs;
    for (const auto &name : names) {
        const workloads::Mix rate{name, {name, name, name, name}};
        for (const SchemeModel *scheme : schemes) {
            const sim::ConfigPoint point{
                scheme, dram::PagePolicy::RelaxedClose, false};
            sim::SweepJob job{rate, point, target, {}};
            if (force_rounds || geom.channels != 0) {
                sim::SystemConfig cfg = benchConfig(point, target);
                cfg.dram.forceRounds = force_rounds;
                if (geom.channels != 0) {
                    cfg.dram.channels = geom.channels;
                    cfg.dram.ranksPerChannel = geom.ranks;
                }
                job.config = cfg;
            }
            jobs.push_back(std::move(job));
            if (labels != nullptr)
                labels->emplace_back(name, point);
        }
    }
    return jobs;
}

/** Run @p jobs through @p runner, timing the wall clock. */
std::vector<sim::RunResult>
timedRun(sim::Runner &runner, const std::vector<sim::SweepJob> &jobs,
         PassTotals &totals)
{
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<sim::RunResult> results = runner.run(jobs);
    totals.wallSecs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    totals.add(results);
    return results;
}

void
jsonPass(std::ostream &os, const char *name, const PassTotals &p)
{
    os << "  \"" << name << "\": {\"wall_s\": " << p.wallSecs
       << ", \"dram_cycles\": " << p.dramCycles
       << ", \"skipped_ticks\": " << p.skippedTicks
       << ", \"events_popped\": " << p.eventsPopped
       << ", \"rounds\": " << p.rounds << ", \"heap_peak\": " << p.heapPeak
       << "}";
}

void
jsonHeader(std::ostream &os, const char *mode, bool smoke,
           std::size_t cells, std::uint64_t target)
{
    os << "{\n  \"mode\": \"" << mode << "\",\n  \"smoke\": "
       << (smoke ? "true" : "false") << ",\n  \"cells\": " << cells
       << ",\n  \"target_instructions\": " << target << ",\n";
}

int
assertEventSpeedup(const std::vector<std::string> &names,
                   const std::vector<const SchemeModel *> &schemes, std::uint64_t target,
                   bool smoke)
{
    setenv("PRA_NO_CACHE", "1", 1);   // See file header: keys ignore it.

    // One Runner for both passes: warmup keys deliberately exclude the
    // forceRounds knob, so the functional warm snapshots (which never
    // touch DRAM timing) are computed once and shared — the measured gap
    // is the skipped rounds, not duplicated warmup. The result cache
    // stays off (above), so no simulation output crosses between passes.
    sim::Runner runner;
    auto timePass = [&](bool force_rounds, PassTotals &totals) {
        const std::vector<sim::SweepJob> jobs = buildJobs(
            names, schemes, target, nullptr, force_rounds, kScaleGeometry);
        timedRun(runner, jobs, totals);
        return jobs.size();
    };

    // Populate the shared warm snapshots outside both timed regions so
    // neither pass pays them (first-pass warmup would otherwise bias
    // the ratio toward whichever pass runs second).
    const std::vector<sim::SweepJob> prewarm = buildJobs(
        names, schemes, target, nullptr, false, kScaleGeometry);
    runner.parallelFor(prewarm.size(), [&](std::size_t i) {
        runner.warmups().get(sim::sweepJobConfig(prewarm[i]),
                             prewarm[i].mix);
    });

    PassTotals forced, event;
    const std::size_t cells = timePass(true, forced);
    timePass(false, event);
    const double speedup =
        event.wallSecs > 0.0 ? forced.wallSecs / event.wallSecs : 0.0;

    {
        std::ofstream out("BENCH_engine.json");
        jsonHeader(out, "assert-event-speedup", smoke, cells, target);
        out << "  \"channels\": " << kScaleGeometry.channels
            << ",\n  \"ranks_per_channel\": " << kScaleGeometry.ranks
            << ",\n";
        jsonPass(out, "forced", forced);
        out << ",\n";
        jsonPass(out, "event", event);
        out << ",\n  \"speedup\": " << speedup << "\n}\n";
    }

    std::cout << "forced " << forced.wallSecs << " s, event "
              << event.wallSecs << " s, speedup " << speedup << "x over "
              << cells << " cells (BENCH_engine.json)\n";
    if (speedup < 2.0) {
        std::cerr << "FAIL: event engine speedup " << speedup
                  << "x is below the required 2x\n";
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool assert_speedup =
        argc > 1 && std::string(argv[1]) == "--assert-event-speedup";
    const bool smoke = smokeMode();

    std::vector<const SchemeModel *> schemes = {&schemeByName("baseline"), &schemeByName("fga"),
                                   &schemeByName("halfdram"), &schemeByName("sds"),
                                   &schemeByName("pra"), &schemeByName("halfdram+pra")};
    // The eight rate-mode workloads; mixes are covered by the figure
    // benches and make this export twice as slow.
    std::vector<std::string> names = workloads::benchmarkNames();
    std::uint64_t target = 400'000;
    if (smoke) {
        schemes = {&schemeByName("baseline"), &schemeByName("pra")};
        names.resize(std::min<std::size_t>(names.size(), 3));
        target = 120'000;
    }

    if (assert_speedup)
        return assertEventSpeedup(names, schemes, target, smoke);

    std::ofstream csv("pra_sweep.csv");
    std::ofstream json("pra_sweep.json");
    sim::CsvWriter writer(csv);
    json << "[\n";

    sim::Runner runner;
    SweepTimer timer("export_sweep");
    timer.attach(runner);
    std::vector<std::pair<std::string, sim::ConfigPoint>> labels;
    const std::vector<sim::SweepJob> jobs =
        buildJobs(names, schemes, target, &labels);

    PassTotals cold, warm;
    const std::vector<sim::RunResult> results =
        timedRun(runner, jobs, cold);
    timer.add(results);
    // Second pass through the same runner: every cell must now be
    // served from the result cache (when one is enabled); the wall-time
    // gap is the reuse headroom recorded in BENCH_sweep.json.
    timedRun(runner, jobs, warm);

    bool first = true;
    unsigned runs = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &[name, point] = labels[i];
        const sim::RunResult &r = results[i];
        writer.add(name, point.key(), r);
        json << (first ? "" : ",\n") << sim::toJson(name, point.key(), r);
        first = false;
        ++runs;
    }
    json << "\n]\n";

    {
        std::ofstream out("BENCH_sweep.json");
        jsonHeader(out, "export", smoke, jobs.size(), target);
        jsonPass(out, "cold", cold);
        out << ",\n";
        jsonPass(out, "warm", warm);
        out << "\n}\n";
    }

    std::cout << "wrote " << runs
              << " runs to pra_sweep.csv / pra_sweep.json "
              << "(timing: BENCH_sweep.json)\n";
    return 0;
}
