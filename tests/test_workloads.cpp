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
 * The plain top-down shuffle loops shuffledIdentity() replaces: Sattolo
 * (partner below(i)) and Fisher-Yates (partner below(i + 1)), drawn and
 * swapped one step at a time.
 */
std::vector<std::uint32_t>
plainShuffle(std::size_t n, Shuffle kind, Rng &rng)
{
    std::vector<std::uint32_t> table(n);
    for (std::size_t k = 0; k < n; ++k)
        table[k] = static_cast<std::uint32_t>(k);
    for (std::size_t i = n - 1; i > 0; --i) {
        const std::size_t j =
            rng.below(kind == Shuffle::Sattolo ? i : i + 1);
        std::swap(table[i], table[j]);
    }
    return table;
}

/** Sizes around the lookahead window's edges, and the seeds tried. */
const std::size_t kShuffleSizes[] = {1,
                                     2,
                                     3,
                                     kShuffleWindow - 1,
                                     kShuffleWindow,
                                     kShuffleWindow + 1,
                                     1000,
                                     1u << 16};
const std::uint64_t kShuffleSeeds[] = {1, 11, 0xdeadbeef};

TEST(Shuffle, MatchesPlainLoopsAndLeavesTheSameRngState)
{
    for (Shuffle kind : {Shuffle::Sattolo, Shuffle::FisherYates}) {
        for (std::size_t n : kShuffleSizes) {
            for (std::uint64_t seed : kShuffleSeeds) {
                Rng fast(seed), plain(seed);
                ASSERT_EQ(shuffledIdentity(n, kind, fast),
                          plainShuffle(n, kind, plain))
                    << "n " << n << " seed " << seed;
                for (int k = 0; k < 100; ++k)
                    ASSERT_EQ(fast.next(), plain.next())
                        << "n " << n << " seed " << seed;
            }
        }
    }
}

/**
 * A LinkedList over the plain Sattolo table: the reference for the first
 * ops of a freshly built LinkedList (same address and kind per op).
 */
TEST(LinkedList, OpsMatchPlainSattoloReference)
{
    constexpr double kStoreFraction = 0.55;
    for (std::size_t n : kShuffleSizes) {
        for (std::uint64_t seed : kShuffleSeeds) {
            LinkedList g(n, 20, kStoreFraction, seed);
            Rng rng(seed);
            const std::vector<std::uint32_t> next =
                plainShuffle(n, Shuffle::Sattolo, rng);
            ASSERT_EQ(g.nextIndex(), next) << "n " << n << " seed " << seed;
            std::uint32_t node = 0;
            bool pending_store = false;
            for (int i = 0; i < 10000; ++i) {
                const cpu::MemOp op = g.next();
                Addr want = static_cast<Addr>(node) * kLineBytes;
                if (pending_store) {
                    pending_store = false;
                    want += kBytesPerWord;
                    ASSERT_TRUE(op.isWrite) << "op " << i << " n " << n;
                } else {
                    ASSERT_FALSE(op.isWrite) << "op " << i << " n " << n;
                    pending_store = rng.chance(kStoreFraction);
                    node = next[node];
                }
                ASSERT_EQ(op.addr, want) << "op " << i << " n " << n;
            }
        }
    }
}

/** The same for Em3d over the plain Fisher-Yates visit order. */
TEST(Em3d, OpsMatchPlainFisherYatesReference)
{
    constexpr Addr kNeighborLines = (512ull << 10) / kLineBytes;
    for (std::size_t n : kShuffleSizes) {
        for (std::uint64_t seed : kShuffleSeeds) {
            Em3d g(n, 14, seed);
            Rng rng(seed);
            const std::vector<std::uint32_t> order =
                plainShuffle(n, Shuffle::FisherYates, rng);
            ASSERT_EQ(g.visitOrder(), order)
                << "n " << n << " seed " << seed;
            for (int i = 0; i < 5000; ++i) {
                const cpu::MemOp load = g.next();
                ASSERT_FALSE(load.isWrite);
                ASSERT_EQ(load.addr, rng.below(kNeighborLines) * kLineBytes)
                    << "op " << 2 * i << " n " << n;
                const cpu::MemOp store = g.next();
                ASSERT_TRUE(store.isWrite);
                ASSERT_EQ(store.addr,
                          (1ull << 30) +
                              static_cast<Addr>(order[i % n]) * kLineBytes)
                    << "op " << 2 * i + 1 << " n " << n;
            }
        }
    }
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
