/**
 * @file
 * End-to-end integration tests on the full platform (cores + caches +
 * DRAM + power): small runs for every scheme, conservation invariants,
 * determinism, the PRA-vs-baseline headline properties, and the policy
 * studies.
 */
#include <gtest/gtest.h>

#include <cctype>
#include <stdexcept>
#include <string>

#include "sim/experiment.h"

namespace pra::sim {
namespace {

SystemConfig
fastConfig(const SchemeModel *scheme,
           dram::PagePolicy policy = dram::PagePolicy::RelaxedClose,
           bool dbi = false)
{
    SystemConfig cfg = makeConfig(ConfigPoint{scheme, policy, dbi});
    // Shrink the LLC so dirty evictions reach steady state within the
    // short run (the full 4 MB L2 needs millions of warmup accesses).
    cfg.caches.l2 = cache::CacheParams{256 * 1024, 8, kLineBytes};
    cfg.warmupOpsPerCore = 8000;
    cfg.targetInstructions = 120'000;
    cfg.maxDramCycles = 4'000'000;
    return cfg;
}

RunResult
runGups(const SchemeModel *scheme,
        dram::PagePolicy policy = dram::PagePolicy::RelaxedClose,
        bool dbi = false)
{
    const workloads::Mix mix{"GUPS", {"GUPS", "GUPS", "GUPS", "GUPS"}};
    return runWorkload(mix, fastConfig(scheme, policy, dbi));
}

TEST(SystemIntegration, BaselineRunCompletes)
{
    const RunResult r = runGups(&schemeByName("baseline"));
    ASSERT_EQ(r.ipc.size(), 4u);
    for (double ipc : r.ipc)
        EXPECT_GT(ipc, 0.0);
    for (auto insts : r.retired)
        EXPECT_EQ(insts, 120'000u);
    EXPECT_GT(r.dramCycles, 0u);
    EXPECT_GT(r.avgPowerMw, 0.0);
}

TEST(SystemIntegration, RequestConservation)
{
    const RunResult r = runGups(&schemeByName("baseline"));
    const auto &d = r.dramStats;
    // Every DRAM read/write the hierarchy asked for was enqueued
    // (backpressure retries, never drops). Writes may still be in the
    // queue at the cut, so allow small slack.
    EXPECT_GT(d.readReqs, 10'000u);
    EXPECT_GT(d.writeReqs, 5'000u);
    // Classification happens at service; allow for requests still queued
    // at the measurement cut.
    const std::uint64_t classified =
        d.readRowHits + d.readRowMisses + d.forwardedReads;
    EXPECT_LE(classified, d.readReqs);
    EXPECT_GE(classified + 256, d.readReqs);
    // Activation classification covers both request classes.
    EXPECT_GT(d.actsForReads, 0u);
    EXPECT_GT(d.actsForWrites, 0u);
    // Granularity histogram total equals total activations.
    EXPECT_EQ(d.actGranularity.total(),
              d.actsForReads + d.actsForWrites);
}

TEST(SystemIntegration, DeterministicAcrossRuns)
{
    const RunResult a = runGups(&schemeByName("pra"));
    const RunResult b = runGups(&schemeByName("pra"));
    EXPECT_EQ(a.dramCycles, b.dramCycles);
    EXPECT_EQ(a.dramStats.readReqs, b.dramStats.readReqs);
    EXPECT_EQ(a.totalEnergyNj, b.totalEnergyNj);
    EXPECT_EQ(a.ipc, b.ipc);
}

TEST(SystemIntegration, PraSavesPowerWithSmallPerfImpact)
{
    const RunResult base = runGups(&schemeByName("baseline"));
    const RunResult pra = runGups(&schemeByName("pra"));
    // Headline claims (paper Fig. 12/13): lower ACT-PRE energy, much
    // lower write I/O energy, lower total energy.
    EXPECT_LT(pra.breakdown.actPre, base.breakdown.actPre * 0.75);
    EXPECT_LT(pra.breakdown.writeIo, base.breakdown.writeIo * 0.4);
    EXPECT_LT(pra.totalEnergyNj, base.totalEnergyNj * 0.9);
    // Performance within a few percent (paper: <=4.8% loss).
    EXPECT_GT(pra.ipc[0], base.ipc[0] * 0.93);
}

TEST(SystemIntegration, PraWriteActivationsArePartial)
{
    const RunResult r = runGups(&schemeByName("pra"));
    // GUPS dirties one word per line: essentially all write activations
    // are 1/8-row.
    const auto &g = r.dramStats.actGranularity;
    EXPECT_GT(g.fraction(1), 0.4);
    EXPECT_NEAR(g.fraction(1) + g.fraction(8), 1.0, 0.05);
    // Reads stay full-row.
    EXPECT_GE(g.count(8), r.dramStats.actsForReads);
}

TEST(SystemIntegration, FgaLosesSignificantPerformance)
{
    const RunResult base = runGups(&schemeByName("baseline"));
    const RunResult fga = runGups(&schemeByName("fga"));
    // Paper Fig. 13a: FGA loses ~14% on average (bandwidth halved).
    EXPECT_LT(fga.ipc[0], base.ipc[0] * 0.97);
    // But it does save activation energy (half-row).
    EXPECT_LT(fga.breakdown.actPre, base.breakdown.actPre * 0.8);
}

TEST(SystemIntegration, HalfDramKeepsPerformance)
{
    const RunResult base = runGups(&schemeByName("baseline"));
    const RunResult hd = runGups(&schemeByName("halfdram"));
    EXPECT_GT(hd.ipc[0], base.ipc[0] * 0.97);
    EXPECT_LT(hd.breakdown.actPre, base.breakdown.actPre * 0.7);
    // Half-DRAM does not reduce I/O energy (full line transferred).
    EXPECT_NEAR(hd.breakdown.writeIo / hd.energy.writeLines,
                base.breakdown.writeIo / base.energy.writeLines,
                base.breakdown.writeIo / base.energy.writeLines * 0.01);
}

TEST(SystemIntegration, CombinedSchemeBeatsBothOnActEnergy)
{
    const RunResult hd = runGups(&schemeByName("halfdram"));
    const RunResult pra = runGups(&schemeByName("pra"));
    const RunResult both = runGups(&schemeByName("halfdram+pra"));
    const double hd_act = hd.breakdown.actPre / hd.energy.totalActs();
    const double pra_act = pra.breakdown.actPre / pra.energy.totalActs();
    const double both_act =
        both.breakdown.actPre / both.energy.totalActs();
    EXPECT_LT(both_act, hd_act);
    EXPECT_LT(both_act, pra_act);
}

TEST(SystemIntegration, RestrictedPolicyActivatesPerAccess)
{
    const RunResult r =
        runGups(&schemeByName("baseline"), dram::PagePolicy::RestrictedClose);
    const auto &d = r.dramStats;
    // Every column access pairs with an activation (no row hits).
    EXPECT_EQ(d.readRowHits + d.writeRowHits, 0u);
    // Activations >= classified misses (a refresh can force an opened
    // row shut before its column access, requiring a re-activation).
    const std::uint64_t misses = d.readRowMisses + d.writeRowMisses;
    const std::uint64_t acts = d.actsForReads + d.actsForWrites;
    EXPECT_GE(acts, misses);
    EXPECT_LT(static_cast<double>(acts),
              static_cast<double>(misses) * 1.15);
}

TEST(SystemIntegration, DbiBatchesWritebacksByRow)
{
    const RunResult base = runGups(&schemeByName("baseline"));
    const RunResult dbi =
        runGups(&schemeByName("baseline"), dram::PagePolicy::RelaxedClose, true);
    EXPECT_GT(dbi.dbiProactive, 0u);
    // Proactive row-batched writebacks raise the write row-hit rate.
    EXPECT_GT(dbi.dramStats.writeHitRate(),
              base.dramStats.writeHitRate());
}

TEST(SystemIntegration, FalseHitsRareOnReads)
{
    const RunResult r = runGups(&schemeByName("pra"));
    const auto &d = r.dramStats;
    // Paper Section 5.2.1: up to 0.26%, average 0.04% of reads.
    EXPECT_LT(static_cast<double>(d.readFalseHits) /
                  static_cast<double>(d.readReqs),
              0.01);
}

TEST(SystemIntegration, EnergyBreakdownConsistent)
{
    const RunResult r = runGups(&schemeByName("pra"));
    EXPECT_NEAR(r.breakdown.total(), r.totalEnergyNj, 1e-6);
    EXPECT_GT(r.breakdown.background, 0.0);
    EXPECT_GT(r.breakdown.refresh, 0.0);
    EXPECT_NEAR(r.edp,
                r.totalEnergyNj * r.dramCycles * 1.25, r.edp * 1e-9);
}

TEST(SystemIntegration, SingleCoreAloneRunWorks)
{
    SystemConfig cfg = fastConfig(&schemeByName("baseline"));
    std::vector<std::unique_ptr<cpu::Generator>> gens;
    gens.push_back(workloads::makeGenerator("LinkedList", 1));
    System sys(cfg, std::move(gens));
    const RunResult r = sys.run();
    ASSERT_EQ(r.ipc.size(), 1u);
    EXPECT_GT(r.ipc[0], 0.0);
}

TEST(SystemIntegration, RejectsCallerSetDbiSwitchInCacheConfig)
{
    // SystemConfig::enableDbi is the one switch; the hierarchy copy is
    // derived from it and cannot enter the result-cache key.
    SystemConfig cfg = fastConfig(&schemeByName("pra"));
    cfg.caches.enableDbi = true;
    const workloads::Mix mix{"GUPS", {"GUPS"}};
    EXPECT_THROW(System(cfg, mixGenerators(mix)), std::invalid_argument);
}

TEST(SystemIntegration, RejectsCallerSetDbiRowKey)
{
    // The row key is derived from the DRAM mapping; a caller-set one
    // would share a result-cache entry with the derived one.
    SystemConfig cfg = fastConfig(&schemeByName("pra"),
                                  dram::PagePolicy::RelaxedClose, true);
    cfg.caches.dbiRowKey = [](Addr addr) { return addr >> 13; };
    const workloads::Mix mix{"GUPS", {"GUPS"}};
    EXPECT_THROW(System(cfg, mixGenerators(mix)), std::invalid_argument);
}

TEST(SystemIntegration, Figure3HistogramPopulated)
{
    const RunResult r = runGups(&schemeByName("baseline"));
    // GUPS: every evicted dirty line has exactly one dirty word.
    EXPECT_GT(r.dirtyWords.total(), 1000u);
    EXPECT_GT(r.dirtyWords.fraction(1), 0.95);
}

/** Every scheme x policy combination completes and accounts cleanly. */
class SchemePolicyMatrix
    : public ::testing::TestWithParam<std::tuple<const SchemeModel *, dram::PagePolicy>>
{
};

TEST_P(SchemePolicyMatrix, RunsAndBalances)
{
    const auto [scheme, policy] = GetParam();
    const workloads::Mix mix{"mix",
                             {"GUPS", "LinkedList", "em3d", "mcf"}};
    SystemConfig cfg = fastConfig(scheme, policy);
    cfg.targetInstructions = 60'000;
    const RunResult r = runWorkload(mix, cfg);
    for (double ipc : r.ipc)
        ASSERT_GT(ipc, 0.0);
    const auto &d = r.dramStats;
    const std::uint64_t classified =
        d.readRowHits + d.readRowMisses + d.forwardedReads;
    EXPECT_LE(classified, d.readReqs);
    EXPECT_GE(classified + 256, d.readReqs);
    EXPECT_EQ(d.actGranularity.total(),
              d.actsForReads + d.actsForWrites);
    EXPECT_GT(r.totalEnergyNj, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SchemePolicyMatrix,
    ::testing::Combine(
        ::testing::ValuesIn(allSchemes()),
        ::testing::Values(dram::PagePolicy::RelaxedClose,
                          dram::PagePolicy::RestrictedClose)),
    [](const auto &info) {
        std::string n = std::get<0>(info.param)->name();
        for (char &c : n)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n + (std::get<1>(info.param) ==
                            dram::PagePolicy::RestrictedClose
                        ? "_restricted"
                        : "_relaxed");
    });

} // namespace
} // namespace pra::sim
