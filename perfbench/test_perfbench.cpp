/**
 * @file
 * Tests of the benchmark itself: the traced mirror reproduces
 * System::run, the default seed reproduces sim::mixGenerators, and the
 * printed metrics are exactly the ones BENCHMARK.json declares.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "measure.h"
#include "sim/experiment.h"
#include "sim/result_cache.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kShortRun = 20'000;   // Instructions per core.

TEST(Perfbench, TracedMirrorEqualsSystemRunOnEveryWorkload)
{
    for (const Cell &cell : cells()) {
        SCOPED_TRACE(cell.name);
        Tracer tracer;
        const UntracedRun untraced = runUntraced(cell, 1, kShortRun);
        const TracedRun traced = runTraced(cell, 1, tracer, kShortRun);
        EXPECT_TRUE(completed(untraced.result, cellConfig(cell, kShortRun)));
        EXPECT_TRUE(pra::sim::identicalResults(untraced.result, traced.result));
        EXPECT_EQ(untraced.result.engine.rounds, traced.result.engine.rounds);
        EXPECT_EQ(untraced.result.engine.skippedTicks,
                  traced.result.engine.skippedTicks);
        EXPECT_EQ(tracer.total(SpanId::Run).calls, 1u);
        EXPECT_GT(tracer.total(SpanId::DramTick).calls, 0u);
        EXPECT_EQ(tracer.total(SpanId::Loop).calls,
                  tracer.total(SpanId::DramTick).calls);
    }
}

TEST(Perfbench, DefaultSeedReproducesMixGenerators)
{
    for (const Cell &cell : cells()) {
        SCOPED_TRACE(cell.name);
        auto ours = cellGenerators(cell, 1);
        auto theirs = pra::sim::mixGenerators(cell.mix);
        ASSERT_EQ(ours.size(), theirs.size());
        for (std::size_t g = 0; g < ours.size(); ++g) {
            for (int i = 0; i < 2000; ++i) {
                const pra::cpu::MemOp a = ours[g]->next();
                const pra::cpu::MemOp b = theirs[g]->next();
                ASSERT_EQ(a.addr, b.addr);
                ASSERT_EQ(a.gap, b.gap);
                ASSERT_EQ(a.isWrite, b.isWrite);
                ASSERT_EQ(a.serializing, b.serializing);
            }
        }
    }
}

TEST(Perfbench, DefaultSeedMatchesRunWorkload)
{
    for (const Cell &cell : cells()) {
        SCOPED_TRACE(cell.name);
        const pra::sim::RunResult ours =
            runUntraced(cell, 1, kShortRun).result;
        const pra::sim::RunResult theirs =
            pra::sim::runWorkload(cell.mix, cellConfig(cell, kShortRun));
        EXPECT_TRUE(pra::sim::identicalResults(ours, theirs));
    }
}

TEST(Perfbench, OtherSeedChangesFingerprint)
{
    const Cell &cell = *findCell("gups_2ch");
    const auto fp = [&](std::uint64_t seed) {
        return simFingerprint(runUntraced(cell, seed, kShortRun).result);
    };
    const std::uint64_t one = fp(1);
    EXPECT_EQ(one, fp(1));
    EXPECT_NE(one, fp(2));
}

TEST(Perfbench, SlotSeedsNeverCollide)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t seed : {0ull, 1ull, 2ull, 3ull, 1000ull})
        for (unsigned slot = 0; slot < 4; ++slot)
            EXPECT_TRUE(seen.insert(slotSeed(seed, slot)).second);
    for (unsigned slot = 0; slot < 4; ++slot)
        EXPECT_EQ(slotSeed(1, slot), slot + 1);
}

TEST(Perfbench, RefusesEnvironmentThatChangesTheProgram)
{
    for (const char *name : {"PRA_ENGINE", "PRA_TRACE", "PRA_AUDIT",
                             "PRA_AUDIT_REPLAY", "PRA_AUDIT_STRIDE",
                             "PRA_COLD_REPLAY"})
        unsetenv(name);
    EXPECT_EQ(refusedEnvironment(), nullptr);
    setenv("PRA_ENGINE", "event", 1);
    EXPECT_STREQ(refusedEnvironment(), "PRA_ENGINE");
    unsetenv("PRA_ENGINE");
}

TEST(Perfbench, TracerSplitsSelfTimeByParent)
{
    Tracer tracer;
    {
        Span outer(tracer, SpanId::Loop);
        for (int i = 0; i < 3; ++i)
            Span inner(tracer, SpanId::DramTick);
    }
    const Tracer::Total loop = tracer.total(SpanId::Loop);
    const Tracer::Total tick = tracer.total(SpanId::DramTick, SpanId::Loop);
    EXPECT_EQ(loop.calls, 1u);
    EXPECT_EQ(tick.calls, 3u);
    EXPECT_EQ(tracer.total(SpanId::DramTick).calls, 3u);
    EXPECT_EQ(loop.selfNs, loop.ns - tick.ns);
    EXPECT_GE(loop.ns, tick.ns);
}

TEST(Perfbench, TracerTimesASampleOfIterationsButCountsEveryCall)
{
    // Run 1 also times every iteration of the raw window.
    constexpr std::uint64_t kIterations = 20'000;
    constexpr std::uint64_t kSampled = kIterations - Tracer::kWindowCount;
    Tracer tracer;
    tracer.beginRun();
    for (std::uint64_t i = 0; i < kIterations; ++i) {
        tracer.beginIteration(i);
        Span loop(tracer, SpanId::Loop);
        Span tick(tracer, SpanId::DramTick);
    }
    tracer.endIterations();
    EXPECT_TRUE(tracer.timing());
    const Tracer::Total tick = tracer.total(SpanId::DramTick);
    EXPECT_EQ(tick.calls, kIterations);
    EXPECT_GT(tick.timedCalls,
              Tracer::kWindowCount + kSampled / Tracer::kSampleEvery / 2);
    EXPECT_LT(tick.timedCalls,
              Tracer::kWindowCount + kSampled / Tracer::kSampleEvery * 2);
    EXPECT_EQ(tracer.total(SpanId::DramTick, SpanId::Loop).timedCalls,
              tick.timedCalls);
}

TEST(Perfbench, TracerSubtractsCalibratedSpanOverhead)
{
    Tracer tracer;
    EXPECT_GT(tracer.spanOwnNs(), 0.0);
    EXPECT_GT(tracer.spanParentNs(), 0.0);
    EXPECT_LT(tracer.spanOwnNs() + tracer.spanParentNs(), 10'000.0);
    {
        Span outer(tracer, SpanId::Loop);
        for (int i = 0; i < 3; ++i)
            Span inner(tracer, SpanId::DramTick);
    }
    const Tracer::Total loop = tracer.total(SpanId::Loop);
    const Tracer::Total tick = tracer.total(SpanId::DramTick);
    EXPECT_DOUBLE_EQ(tracer.nsPerCall(SpanId::DramTick),
                     static_cast<double>(tick.ns) / 3 - tracer.spanOwnNs());
    EXPECT_DOUBLE_EQ(tracer.selfNsPerCall(SpanId::Loop),
                     static_cast<double>(loop.selfNs) -
                         3 * tracer.spanParentNs() - tracer.spanOwnNs());
    EXPECT_EQ(tracer.nsPerCall(SpanId::CacheAccess), 0.0);
}

/** The metric names declared in one section of BENCHMARK.json. */
std::set<std::string>
declaredNames(const std::string &section)
{
    std::ifstream in(PERFBENCH_SPEC);
    EXPECT_TRUE(in.is_open()) << PERFBENCH_SPEC;
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string spec = ss.str();
    // Sections appear in the order workloads, end_to_end, per_layer.
    const std::size_t e2e = spec.find("\"end_to_end\"");
    const std::size_t layer = spec.find("\"per_layer\"");
    EXPECT_NE(e2e, std::string::npos);
    EXPECT_NE(layer, std::string::npos);
    std::string body;
    if (section == "workloads")
        body = spec.substr(0, e2e);
    else if (section == "end_to_end")
        body = spec.substr(e2e, layer - e2e);
    else
        body = spec.substr(layer);
    std::set<std::string> names;
    const std::regex re("\"name\"\\s*:\\s*\"([^\"]+)\"");
    for (auto it = std::sregex_iterator(body.begin(), body.end(), re);
         it != std::sregex_iterator(); ++it)
        names.insert((*it)[1]);
    return names;
}

void
expectDeclared(const Report &report, const std::string &section)
{
    const std::set<std::string> declared = declaredNames(section);
    const std::regex allowed("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
    std::set<std::string> printed;
    for (const Metric &m : report.metrics) {
        EXPECT_TRUE(std::regex_match(m.name, allowed)) << m.name;
        EXPECT_TRUE(declared.count(m.name)) << m.name << " not in "
                                            << section;
        EXPECT_TRUE(printed.insert(m.name).second) << "duplicate " << m.name;
    }
    EXPECT_EQ(printed, declared);
    EXPECT_TRUE(report.correct());
    EXPECT_EQ(resultJson(report).rfind("{\"correct\": true, ", 0), 0u);
}

TEST(Perfbench, PrintedMetricsAreDeclaredInBenchmarkJson)
{
    Options opts;
    opts.cell = findCell("mix1_dbi_2ch");
    opts.seconds = 1e-3;
    opts.targetInstructions = kShortRun;
    expectDeclared(measureEndToEnd(opts), "end_to_end");
    expectDeclared(measurePerLayer(opts), "per_layer");

    std::set<std::string> workloads;
    for (const Cell &cell : cells())
        workloads.insert(cell.name);
    EXPECT_EQ(workloads, declaredNames("workloads"));
}

} // namespace
} // namespace perfbench
