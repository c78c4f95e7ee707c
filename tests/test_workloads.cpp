/**
 * @file
 * Tests for the workload generators: the algorithmic kernels' access
 * patterns, the synthetic generator's calibration knobs, and the
 * factory/mix tables.
 */
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "workloads/factory.h"
#include "workloads/kernels.h"
#include "workloads/synthetic.h"

namespace pra::workloads {
namespace {

TEST(Gups, ReadModifyWritePairs)
{
    Gups g(1ull << 20, 12, 3);
    for (int i = 0; i < 1000; ++i) {
        const cpu::MemOp rd = g.next();
        const cpu::MemOp wr = g.next();
        ASSERT_FALSE(rd.isWrite);
        ASSERT_TRUE(wr.isWrite);
        ASSERT_EQ(lineBase(rd.addr), lineBase(wr.addr));
        // Exactly one dirty word: the updated element.
        ASSERT_EQ(wr.bytes.toWordMask().count(), 1u);
        ASSERT_TRUE(wr.bytes.toWordMask().test(wordInLine(wr.addr)));
        ASSERT_LT(wr.addr, 1ull << 20);
    }
}

TEST(Gups, AddressesSpreadOverTable)
{
    Gups g(1ull << 24, 12, 5);
    std::set<Addr> lines;
    for (int i = 0; i < 2000; ++i)
        lines.insert(lineBase(g.next().addr));
    // Random updates: nearly every access hits a distinct line.
    EXPECT_GT(lines.size(), 900u);
}

TEST(LinkedList, LoadsAreSerializing)
{
    LinkedList g(1u << 12, 20, 0.5, 7);
    int loads = 0, stores = 0;
    for (int i = 0; i < 2000; ++i) {
        const cpu::MemOp op = g.next();
        if (op.isWrite) {
            ++stores;
            EXPECT_EQ(op.bytes.toWordMask().count(), 1u);
        } else {
            ++loads;
            EXPECT_TRUE(op.serializing);
        }
    }
    // store_fraction = 0.5 of visits.
    EXPECT_NEAR(static_cast<double>(stores) / loads, 0.5, 0.1);
}

TEST(LinkedList, PermutationIsSingleCycle)
{
    // Sattolo's algorithm guarantees one cycle visiting every node: the
    // chase must not revisit a node before all others are seen.
    const std::size_t nodes = 1u << 10;
    LinkedList g(nodes, 1, 0.0, 9);
    std::set<Addr> seen;
    for (std::size_t i = 0; i < nodes; ++i) {
        const cpu::MemOp op = g.next();
        ASSERT_FALSE(op.isWrite);
        ASSERT_TRUE(seen.insert(lineBase(op.addr)).second)
            << "revisited before full cycle";
    }
    // The next visit restarts the cycle.
    const cpu::MemOp op = g.next();
    EXPECT_TRUE(seen.count(lineBase(op.addr)));
}

TEST(Em3d, AlternatesNeighborLoadAndNodeStore)
{
    Em3d g(1u << 12, 14, 11);
    for (int i = 0; i < 500; ++i) {
        const cpu::MemOp rd = g.next();
        const cpu::MemOp wr = g.next();
        ASSERT_FALSE(rd.isWrite);
        ASSERT_TRUE(wr.isWrite);
        // Node stores dirty exactly one word of a 64 B node.
        ASSERT_EQ(wr.bytes.toWordMask().count(), 1u);
        // Nodes and neighbor values live in disjoint regions.
        ASSERT_GE(wr.addr, 1ull << 30);
        ASSERT_LT(rd.addr, 1ull << 30);
    }
}

TEST(Em3d, VisitsEveryNodeOncePerSweep)
{
    const std::size_t nodes = 1u << 10;
    Em3d g(nodes, 1, 13);
    std::set<Addr> stores;
    for (std::size_t i = 0; i < nodes; ++i) {
        g.next();   // Neighbor load.
        stores.insert(g.next().addr);
    }
    EXPECT_EQ(stores.size(), nodes);
}

/**
 * A clone shares its source's read-only table instead of copying it,
 * and from the fork point both produce the same op stream.
 */
template <typename Kernel, typename Table>
void
expectCloneSharesTable(Kernel &source, Table table)
{
    for (int i = 0; i < 1000; ++i)
        source.next();
    const std::unique_ptr<cpu::Generator> clone = source.clone();
    const auto &copy = dynamic_cast<const Kernel &>(*clone);
    EXPECT_EQ(&(copy.*table)(), &(source.*table)());
    for (int i = 0; i < 10000; ++i) {
        const cpu::MemOp a = source.next();
        const cpu::MemOp b = clone->next();
        ASSERT_EQ(a.addr, b.addr) << "op " << i;
        ASSERT_EQ(a.isWrite, b.isWrite) << "op " << i;
        ASSERT_EQ(a.bytes.bits(), b.bytes.bits()) << "op " << i;
        ASSERT_EQ(a.gap, b.gap) << "op " << i;
        ASSERT_EQ(a.serializing, b.serializing) << "op " << i;
    }
}

TEST(LinkedList, CloneSharesSuccessorTable)
{
    LinkedList g(1u << 12, 20, 0.55, 5);
    expectCloneSharesTable(g, &LinkedList::nextIndex);
}

TEST(Em3d, CloneSharesVisitOrder)
{
    Em3d g(1u << 12, 14, 6);
    expectCloneSharesTable(g, &Em3d::visitOrder);
}

TEST(Synthetic, WriteFractionMatchesKnob)
{
    SyntheticParams p;
    p.pWrite = 0.3;
    p.seed = 21;
    Synthetic g(p);
    int writes = 0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i)
        writes += g.next().isWrite ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(writes) / n, 0.3, 0.02);
}

TEST(Synthetic, GapMeanMatchesKnob)
{
    SyntheticParams p;
    p.gapMean = 40.0;
    p.seed = 22;
    Synthetic g(p);
    double total = 0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i)
        total += g.next().gap;
    EXPECT_NEAR(total / n, 40.0, 2.0);
}

TEST(Synthetic, DirtyWordDistributionRespected)
{
    SyntheticParams p;
    p.pWrite = 1.0;
    p.pRmw = 0.0;
    p.dirtyWords = {0.5, 0.0, 0.0, 0.25, 0.0, 0.0, 0.0, 0.25};
    p.seed = 23;
    Synthetic g(p);
    std::map<unsigned, int> counts;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i)
        ++counts[g.next().bytes.toWordMask().count()];
    EXPECT_NEAR(counts[1] / double(n), 0.5, 0.02);
    EXPECT_NEAR(counts[4] / double(n), 0.25, 0.02);
    EXPECT_NEAR(counts[8] / double(n), 0.25, 0.02);
    EXPECT_EQ(counts[2], 0);
}

TEST(Synthetic, RmwStoresTargetLastLoadedLine)
{
    SyntheticParams p;
    p.pWrite = 0.5;
    p.pRmw = 1.0;
    p.seed = 24;
    Synthetic g(p);
    Addr last_load = 0;
    bool have_load = false;
    for (int i = 0; i < 5000; ++i) {
        const cpu::MemOp op = g.next();
        if (op.isWrite) {
            if (have_load) {
                ASSERT_EQ(lineBase(op.addr), lineBase(last_load));
            }
        } else {
            last_load = op.addr;
            have_load = true;
        }
    }
}

TEST(Synthetic, SequentialRunsFollowRunLength)
{
    SyntheticParams p;
    p.pWrite = 0.0;
    p.runMeanLines = 8.0;
    p.seed = 25;
    Synthetic g(p);
    // Count consecutive-line steps; with mean run 8, most transitions
    // are sequential.
    int seq = 0, total = 0;
    Addr prev = g.next().addr;
    for (int i = 0; i < 10000; ++i) {
        const Addr cur = g.next().addr;
        seq += (cur == prev + kLineBytes) ? 1 : 0;
        ++total;
        prev = cur;
    }
    const double frac = static_cast<double>(seq) / total;
    EXPECT_GT(frac, 0.7);
    EXPECT_LT(frac, 0.95);
}

TEST(Synthetic, RegionBound)
{
    SyntheticParams p;
    p.regionBytes = 1 << 20;
    p.seed = 26;
    Synthetic g(p);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(g.next().addr, p.regionBytes);
}

TEST(Synthetic, DeterministicPerSeed)
{
    SyntheticParams p;
    p.seed = 30;
    Synthetic a(p), b(p);
    for (int i = 0; i < 1000; ++i) {
        const cpu::MemOp x = a.next(), y = b.next();
        ASSERT_EQ(x.addr, y.addr);
        ASSERT_EQ(x.isWrite, y.isWrite);
        ASSERT_EQ(x.gap, y.gap);
    }
}

TEST(Factory, AllBenchmarksConstruct)
{
    for (const auto &name : benchmarkNames()) {
        auto gen = makeGenerator(name, 1);
        ASSERT_NE(gen, nullptr) << name;
        EXPECT_STREQ(gen->name(), name.c_str());
        // Produces ops without crashing.
        for (int i = 0; i < 100; ++i)
            gen->next();
    }
}

TEST(Factory, UnknownBenchmarkThrows)
{
    EXPECT_THROW(makeGenerator("notabenchmark", 1),
                 std::invalid_argument);
}

TEST(Factory, MixesMatchTable4)
{
    const auto &m = mixes();
    ASSERT_EQ(m.size(), 6u);
    EXPECT_EQ(m[0].name, "MIX1");
    EXPECT_EQ(m[0].apps,
              (std::array<std::string, 4>{"bzip2", "lbm", "libquantum",
                                          "omnetpp"}));
    EXPECT_EQ(m[1].apps,
              (std::array<std::string, 4>{"mcf", "em3d", "GUPS",
                                          "LinkedList"}));
    // Every app in every mix is a known benchmark.
    const auto &names = benchmarkNames();
    for (const auto &mix : m) {
        for (const auto &app : mix.apps) {
            EXPECT_NE(std::find(names.begin(), names.end(), app),
                      names.end())
                << app;
        }
    }
}

TEST(Factory, AllWorkloadsIsFourteen)
{
    const auto all = allWorkloads();
    ASSERT_EQ(all.size(), 14u);
    // First eight are rate-mode quadruples.
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(all[i].name, benchmarkNames()[i]);
        for (const auto &app : all[i].apps)
            EXPECT_EQ(app, all[i].name);
    }
}

/** Property: every preset produces in-region, well-formed ops. */
class PresetSweep : public ::testing::TestWithParam<const char *>
{
};

TEST_P(PresetSweep, OpsWellFormed)
{
    const SyntheticParams p = presetFor(GetParam(), 3);
    Synthetic g(p);
    for (int i = 0; i < 5000; ++i) {
        const cpu::MemOp op = g.next();
        ASSERT_LT(op.addr, p.regionBytes);
        if (op.isWrite) {
            ASSERT_FALSE(op.bytes.empty());
            ASSERT_GE(op.bytes.toWordMask().count(), 1u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(SpecPresets, PresetSweep,
                         ::testing::Values("bzip2", "lbm", "libquantum",
                                           "mcf", "omnetpp"));

} // namespace
} // namespace pra::workloads
