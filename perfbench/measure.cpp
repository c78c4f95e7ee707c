#include "measure.h"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "common/hash.h"
#include "host.h"
#include "sim/result_cache.h"

namespace perfbench {

namespace ps = pra::sim;

namespace {

using Clock = std::chrono::steady_clock;

/** Every invocation times at least this many runs, however short. */
constexpr unsigned kMinRuns = 3;

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

double
secondsSince(Clock::time_point t0)
{
    return seconds(Clock::now() - t0);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

std::string
hex(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                   static_cast<unsigned long long>(v));
    return buf;
}

/** Lines every invocation prints: what was measured, and on what. */
std::vector<std::string>
headerNotes(const Options &opts, const ps::SystemConfig &cfg, bool traced)
{
    const Cell &cell = *opts.cell;
    std::string apps;
    for (const std::string &app : cell.mix.apps)
        apps += (apps.empty() ? "" : ",") + app;
    return {
        "perfbench: workload=" + cell.name +
            " seed=" + std::to_string(opts.seed) +
            " trace=" + (traced ? "1" : "0") +
            " build_type=" PERFBENCH_BUILD_TYPE " nproc=" +
            std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) + " threads=1",
        "cell: apps=" + apps + " scheme=" +
            std::string(cfg.dram.scheme->displayName()) +
            " page_policy=relaxed_close dbi=" + (cfg.enableDbi ? "1" : "0") +
            " geometry=" + std::to_string(cfg.dram.channels) + "ch_x_" +
            std::to_string(cfg.dram.ranksPerChannel) +
            "rk instructions_per_core=" +
            std::to_string(cfg.targetInstructions) + " cold_runs=1",
        "warmup: modelled caches functionally warmed with " +
            std::to_string(cfg.warmupOpsPerCore) +
            " ops per core before each measured region",
    };
}

/** Why a run with fingerprint @p fp failed, or "" when it did not. */
std::string
failure(const ps::RunResult &res, const ps::SystemConfig &cfg,
        std::uint64_t fp, std::uint64_t expected)
{
    if (!completed(res, cfg))
        return "a core missed its instruction target before maxDramCycles";
    if (fp != expected)
        return "sim_fingerprint " + hex(fp) + " differs from " +
               hex(expected);
    return "";
}

/**
 * Peak resident memory of this program so far. Not getrusage's
 * ru_maxrss: Linux carries that across exec, so it reports the launching
 * process's peak (run.py's Python, say) whenever that is the larger.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;   // kB.
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

void
appendNumber(std::string &out, double v)
{
    if (!std::isfinite(v))
        throw std::logic_error("non-finite metric value");
    char buf[32];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, end);
}

} // namespace

std::uint64_t
simFingerprint(const ps::RunResult &res)
{
    return pra::fnv1a64(ps::serializeRunResult(res));
}

bool
completed(const ps::RunResult &res, const ps::SystemConfig &cfg)
{
    // System reports exactly targetInstructions for every finished core.
    return !res.retired.empty() &&
           std::all_of(res.retired.begin(), res.retired.end(),
                       [&](std::uint64_t r) {
                           return r == cfg.targetInstructions;
                       });
}

const char *
refusedEnvironment()
{
    for (const char *name : {"PRA_ENGINE", "PRA_TRACE", "PRA_AUDIT",
                             "PRA_AUDIT_REPLAY", "PRA_AUDIT_STRIDE",
                             "PRA_COLD_REPLAY"})
        if (std::getenv(name) != nullptr)
            return name;
    return nullptr;
}

UntracedRun
runUntraced(const Cell &cell, std::uint64_t seed,
            std::uint64_t target_instructions)
{
    const ps::SystemConfig cfg = cellConfig(cell, target_instructions);
    UntracedRun out;
    const Clock::time_point t0 = Clock::now();
    ps::System system(cfg, cellGenerators(cell, seed));
    // The only public way to warm before run(). It also deep-copies the
    // warmed hierarchy and generators into a snapshot, which a plain
    // System::run() never does. A second export finds warmup done and
    // only copies: timed, it is taken back out of setup.
    system.exportWarmSnapshot();
    const Clock::time_point t1 = Clock::now();
    system.exportWarmSnapshot();
    const Clock::time_point t2 = Clock::now();
    out.result = system.run();
    out.runS = secondsSince(t2);
    out.snapshotS = seconds(t2 - t1);
    out.setupS = seconds(t1 - t0) - out.snapshotS;
    return out;
}

TracedRun
runTraced(const Cell &cell, std::uint64_t seed, Tracer &tracer,
          std::uint64_t target_instructions)
{
    const ps::SystemConfig cfg = cellConfig(cell, target_instructions);
    tracer.beginRun();
    std::vector<std::unique_ptr<pra::cpu::Generator>> gens;
    {
        Span span(tracer, SpanId::WorkloadsSetup);
        gens = cellGenerators(cell, seed);
    }
    TracedSystem system(cfg, std::move(gens), tracer);
    system.warmup();
    TracedRun out;
    const Clock::time_point t0 = Clock::now();
    out.result = system.run();
    out.runS = secondsSince(t0);
    out.counters = system.counters();
    return out;
}

Report
measureEndToEnd(const Options &opts)
{
    const ps::SystemConfig cfg = cellConfig(*opts.cell, opts.targetInstructions);
    Report report;
    report.notes = headerNotes(opts, cfg, false);

    const Clock::time_point start = Clock::now();
    // Run 1 is what a user runs: a cold System::run() that warms itself,
    // with no snapshot. It alone fixes the memory peak (later runs reuse
    // freed heap by a fragmentation-dependent amount), and before the
    // reference kernel's table exists. Its result is the one every timed
    // run must reproduce.
    const ps::RunResult first =
        ps::System(cfg, cellGenerators(*opts.cell, opts.seed)).run();
    const double rssMb = peakRssMb();
    const std::uint64_t firstFp = simFingerprint(first);
    ++report.attempted;
    if (!completed(first, cfg)) {
        ++report.failed;
        report.notes.push_back("failed run 1: " +
                               failure(first, cfg, firstFp, firstFp));
    }

    // Timings rescaled to the reference host speed (host.h), and raw.
    std::vector<double> setupS, runS, nsPerCycle, rawSetupS, rawRunS,
        snapshotS;
    HostSpeed host;
    unsigned timedRuns = 0;
    while (timedRuns < kMinRuns || secondsSince(start) < opts.seconds) {
        UntracedRun run =
            runUntraced(*opts.cell, opts.seed, opts.targetInstructions);
        const double scale = host.rescaleSinceLastPass();
        const std::uint64_t fp = simFingerprint(run.result);
        ++timedRuns;
        ++report.attempted;
        if (const std::string why = failure(run.result, cfg, fp, firstFp);
            !why.empty()) {
            ++report.failed;
            report.notes.push_back("failed run " +
                                   std::to_string(report.attempted) + ": " +
                                   why);
            continue;
        }
        rawSetupS.push_back(run.setupS);
        rawRunS.push_back(run.runS);
        snapshotS.push_back(run.snapshotS);
        setupS.push_back(run.setupS * scale);
        runS.push_back(run.runS * scale);
        nsPerCycle.push_back(ratio(runS.back() * 1e9,
                                   static_cast<double>(run.result.dramCycles)));
    }

    report.notes.push_back("runs: " + std::to_string(report.attempted) +
                           " attempted, " + std::to_string(report.failed) +
                           " failed; run 1 plain System::run() for "
                           "peak_rss_mb, timings are medians over the "
                           "passing runs after it");
    report.notes.push_back(
        "setup: warmed through System::exportWarmSnapshot(); its snapshot "
        "copy, timed again on its own, is subtracted: raw median " +
        std::to_string(median(snapshotS)) + " s, " +
        std::to_string(100.0 * ratio(median(snapshotS),
                                     median(rawSetupS) + median(snapshotS))) +
        "% of setup with the copy");
    report.notes.push_back(
        "host_speed: timings rescaled to a host where the reference kernel "
        "takes " + std::to_string(kReferenceNominalS * 1e3) +
        " ms; it took a median " + std::to_string(median(host.passes()) * 1e3) +
        " ms over " + std::to_string(host.passes().size()) +
        " passes; raw medians run_s=" + std::to_string(median(rawRunS)) +
        " setup_s=" + std::to_string(median(rawSetupS)));
    report.notes.push_back("sim_fingerprint: " + hex(firstFp));
    report.notes.push_back("dram_cycles: " +
                           std::to_string(first.dramCycles));

    const double ipcSum =
        std::accumulate(first.ipc.begin(), first.ipc.end(), 0.0);
    report.metrics = {
        {"run_s", median(runS), "s"},
        {"host_ns_per_dram_cycle", median(nsPerCycle), "ns"},
        {"setup_s", median(setupS), "s"},
        {"peak_rss_mb", rssMb, "MB"},
        {"sim_ipc_sum", ipcSum, "instr/cycle"},
        {"sim_dram_power_mw", first.avgPowerMw, "mW"},
        {"sim_dram_energy_uj", first.totalEnergyNj / 1000.0, "uJ"},
    };
    return report;
}

Report
measurePerLayer(const Options &opts)
{
    const ps::SystemConfig cfg = cellConfig(*opts.cell, opts.targetInstructions);
    Report report;
    report.notes = headerNotes(opts, cfg, true);

    Tracer tracer;
    std::vector<double> untracedS, tracedS;
    ps::RunResult first;
    LayerCounters counters;
    std::uint64_t firstFp = 0;
    const Clock::time_point start = Clock::now();
    while (report.attempted < kMinRuns || secondsSince(start) < opts.seconds) {
        // Alternate which side runs first so neither gets a warmer host.
        const bool tracedFirst = report.attempted % 2 == 1;
        TracedRun traced;
        if (tracedFirst)
            traced = runTraced(*opts.cell, opts.seed, tracer,
                               opts.targetInstructions);
        const UntracedRun untraced =
            runUntraced(*opts.cell, opts.seed, opts.targetInstructions);
        if (!tracedFirst)
            traced = runTraced(*opts.cell, opts.seed, tracer,
                               opts.targetInstructions);
        const std::uint64_t fp = simFingerprint(untraced.result);
        if (report.attempted++ == 0) {
            first = untraced.result;
            counters = traced.counters;
            firstFp = fp;
        }
        std::string why = failure(untraced.result, cfg, fp, firstFp);
        if (why.empty() && simFingerprint(traced.result) != fp)
            why = "traced RunResult differs from System::run";
        if (!why.empty()) {
            ++report.failed;
            report.notes.push_back("failed run " +
                                   std::to_string(report.attempted) + ": " +
                                   why);
            continue;
        }
        untracedS.push_back(untraced.runS);
        tracedS.push_back(traced.runS);
    }

    report.notes.push_back(
        "runs: " + std::to_string(report.attempted) +
        " untraced+traced pairs attempted, " +
        std::to_string(report.failed) +
        " failed; span times pool every traced run, counts are per run");
    report.notes.push_back(
        "trace: calibrated span overhead " +
        std::to_string(tracer.spanOwnNs()) + " ns on the span itself, " +
        std::to_string(tracer.spanParentNs()) +
        " ns on its parent's self time; subtracted per timed call");
    report.notes.push_back("sim_fingerprint: " + hex(firstFp));
    if (!opts.spansOut.empty()) {
        std::ofstream out(opts.spansOut);
        tracer.writeJson(out);
        if (!out)
            throw std::runtime_error("cannot write " + opts.spansOut);
        report.notes.push_back("spans: " + opts.spansOut);
    }

    const double runs = static_cast<double>(tracer.runs());
    const auto calls = [&](SpanId id) {
        return ratio(static_cast<double>(tracer.total(id).calls), runs);
    };
    const auto perRunS = [&](SpanId id) {
        return ratio(static_cast<double>(tracer.total(id).ns) * 1e-9, runs);
    };

    const pra::dram::ControllerStats &s = first.dramStats;
    const double reqs = static_cast<double>(s.readRowHits + s.readRowMisses +
                                            s.writeRowHits + s.writeRowMisses);
    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };

    report.metrics = {
        {"dram.tick.calls", calls(SpanId::DramTick), "count"},
        {"dram.tick.ns", tracer.nsPerCall(SpanId::DramTick), "ns/call"},
        {"dram.engine.rounds", count(first.engine.rounds), "count"},
        {"dram.engine.skipped_ticks", count(first.engine.skippedTicks),
         "count"},
        {"dram.engine.events_popped", count(first.engine.eventsPopped),
         "count"},
        {"dram.engine.heap_peak", count(first.engine.heapPeak), "count"},
        {"dram.enqueue.calls", calls(SpanId::DramEnqueue), "count"},
        {"dram.enqueue.ns", tracer.nsPerCall(SpanId::DramEnqueue), "ns/call"},
        {"dram.enqueue.rejected", count(counters.enqueueRejected), "count"},
        {"dram.can_accept.ns", tracer.nsPerCall(SpanId::DramCanAccept),
         "ns/call"},
        {"dram.next_event.ns", tracer.nsPerCall(SpanId::DramNextEvent),
         "ns/call"},
        {"dram.fast_forward.calls", calls(SpanId::DramFastForward), "count"},
        {"dram.fast_forward.ns", tracer.nsPerCall(SpanId::DramFastForward),
         "ns/call"},
        {"sim.skip.cycles", count(counters.skipCycles), "cycles"},
        {"sim.stall_scan.ns", tracer.nsPerCall(SpanId::StallScan), "ns/call"},
        {"cpu.tick.calls", calls(SpanId::CpuTick), "count"},
        {"cpu.tick.self_ns", tracer.selfNsPerCall(SpanId::CpuTick), "ns/call"},
        {"cpu.complete.ns", tracer.nsPerCall(SpanId::CpuComplete), "ns/call"},
        {"cache.access.calls", calls(SpanId::CacheAccess), "count"},
        {"cache.access.ns", tracer.nsPerCall(SpanId::CacheAccess), "ns/call"},
        {"cache.l1_hit_rate",
         ratio(count(counters.l1Hits), count(counters.cacheAccesses)),
         "ratio"},
        {"cache.l2_hit_rate",
         ratio(count(counters.l2Hits),
               count(counters.cacheAccesses - counters.l1Hits)),
         "ratio"},
        {"cache.writebacks", count(counters.writebacks), "count"},
        {"cache.dbi_proactive", count(counters.dbiProactive), "count"},
        {"workloads.next.calls", calls(SpanId::WorkloadsNext), "count"},
        {"workloads.next.ns", tracer.nsPerCall(SpanId::WorkloadsNext),
         "ns/call"},
        {"workloads.setup_s", perRunS(SpanId::WorkloadsSetup), "s"},
        {"sim.warmup_s", perRunS(SpanId::Warmup), "s"},
        {"dram.row_hit_rate", ratio(count(s.readRowHits + s.writeRowHits), reqs),
         "ratio"},
        {"dram.false_hit_rate",
         ratio(count(s.readFalseHits + s.writeFalseHits), reqs), "ratio"},
        {"dram.acts", count(s.actsForReads + s.actsForWrites), "count"},
        {"dram.read_latency_mean_cycles", s.readLatency.mean(), "cycles"},
        {"power.eval.ns", perRunS(SpanId::PowerEval) * 1e9, "ns/run"},
        {"sim.glue.ns", tracer.selfNsPerCall(SpanId::Loop), "ns/iter"},
        {"trace.overhead_frac",
         ratio(median(tracedS) - median(untracedS), median(untracedS)),
         "ratio"},
    };
    return report;
}

std::string
resultJson(const Report &report)
{
    std::string out = "{\"correct\": ";
    out += report.correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(report.attempted) +
           ", \"failed\": " + std::to_string(report.failed) +
           ", \"metrics\": {";
    const char *sep = "";
    for (const Metric &m : report.metrics) {
        out += sep;
        out += "\"" + m.name + "\": {\"value\": ";
        appendNumber(out, m.value);
        out += ", \"unit\": \"" + m.unit + "\"}";
        sep = ", ";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
