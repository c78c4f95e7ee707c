/**
 * @file
 * Tests for the top-level DramSystem: channel routing, aggregation,
 * drain semantics, and energy-count consistency.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "dram/dram_system.h"

namespace pra::dram {
namespace {

DramConfig
smallConfig()
{
    DramConfig cfg;
    cfg.powerDownEnabled = false;
    return cfg;
}

TEST(DramSystem, RoutesToCorrectChannel)
{
    DramSystem sys(smallConfig());
    // Craft addresses on each channel via the mapper.
    for (unsigned ch = 0; ch < 2; ++ch) {
        DecodedAddr loc;
        loc.channel = ch;
        loc.row = 10 + ch;
        const Addr addr = sys.mapper().encode(loc);
        ASSERT_TRUE(sys.enqueue(addr, false, WordMask::full(), 0, ch));
    }
    sys.drain();
    EXPECT_EQ(sys.channel(0).stats().readReqs, 1u);
    EXPECT_EQ(sys.channel(1).stats().readReqs, 1u);
}

TEST(DramSystem, CompletionsCarryTagsAndCores)
{
    DramSystem sys(smallConfig());
    ASSERT_TRUE(sys.enqueue(0x1000, false, WordMask::full(), 3, 77));
    Cycle guard = 0;
    std::vector<Completion> done;
    while (done.empty() && guard++ < 1000) {
        sys.tick();
        done = sys.drainCompletions();
    }
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].tag, 77u);
    EXPECT_EQ(done[0].coreId, 3u);
    EXPECT_EQ(done[0].addr, lineBase(Addr{0x1000}));
}

TEST(DramSystem, WritesNeedNoCompletion)
{
    DramSystem sys(smallConfig());
    ASSERT_TRUE(sys.enqueue(0x2000, true, WordMask::single(1), 0, 1));
    sys.drain();
    EXPECT_FALSE(sys.busy());
    EXPECT_EQ(sys.energyCounts().writeLines, 1u);
}

TEST(DramSystem, EnqueueAlignsToLine)
{
    DramSystem sys(smallConfig());
    ASSERT_TRUE(sys.enqueue(0x1234, false, WordMask::full(), 0, 1));
    Cycle guard = 0;
    std::vector<Completion> done;
    while (done.empty() && guard++ < 1000) {
        sys.tick();
        done = sys.drainCompletions();
    }
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].addr, 0x1200u);
}

TEST(DramSystem, AggregateStatsSumChannels)
{
    DramSystem sys(smallConfig());
    Rng rng(4);
    unsigned reads = 0, writes = 0;
    for (int i = 0; i < 200; ++i) {
        const Addr a = rng.below(sys.mapper().capacityBytes());
        const bool wr = rng.chance(0.4);
        if (sys.canAccept(a, wr)) {
            sys.enqueue(a, wr, WordMask::single(rng.below(8)), 0, i);
            reads += wr ? 0 : 1;
            writes += wr ? 1 : 0;
        }
        sys.tick();
    }
    sys.drain();
    const ControllerStats agg = sys.aggregateStats();
    EXPECT_EQ(agg.readReqs, reads);
    EXPECT_EQ(agg.writeReqs, writes);
    EXPECT_EQ(agg.readReqs,
              sys.channel(0).stats().readReqs +
                  sys.channel(1).stats().readReqs);
    // Hit + miss accounting covers every serviced request (minus any
    // forwarded reads, which bypass the row buffer).
    EXPECT_EQ(agg.readRowHits + agg.readRowMisses + agg.forwardedReads,
              reads);
    EXPECT_EQ(agg.writeRowHits + agg.writeRowMisses, writes);
}

TEST(DramSystem, EnergyCountsUseWallClockOnce)
{
    DramSystem sys(smallConfig());
    for (int i = 0; i < 100; ++i)
        sys.tick();
    const power::EnergyCounts c = sys.energyCounts();
    EXPECT_EQ(c.elapsedCycles, 100u);
    // Background cycles: 2 channels x 2 ranks x 100 cycles.
    EXPECT_EQ(c.actStandbyCycles + c.preStandbyCycles + c.powerDownCycles,
              400u);
}

TEST(DramSystem, PowerDownEngagesWhenIdle)
{
    DramConfig cfg = smallConfig();
    cfg.powerDownEnabled = true;
    DramSystem sys(cfg);
    for (int i = 0; i < 200; ++i)
        sys.tick();
    EXPECT_GT(sys.energyCounts().powerDownCycles, 300u);
}

TEST(DramSystem, BackpressureWhenQueueFull)
{
    DramConfig cfg = smallConfig();
    DramSystem sys(cfg);
    // Saturate channel 0's read queue without ticking.
    DecodedAddr loc;
    unsigned accepted = 0;
    for (unsigned i = 0; i < 200; ++i) {
        loc.row = i;
        loc.bank = i % 8;
        const Addr a = sys.mapper().encode(loc);
        if (!sys.canAccept(a, false))
            break;
        sys.enqueue(a, false, WordMask::full(), 0, i);
        ++accepted;
    }
    EXPECT_EQ(accepted, cfg.readQueueDepth);
    sys.drain();
    EXPECT_EQ(sys.aggregateStats().readReqs, accepted);
}

/** What a run exposes to its caller, compared bit for bit below. */
struct RunTrace
{
    std::vector<Completion> completions;
    power::EnergyCounts energy;
    ControllerStats stats;
    std::uint64_t jumps = 0;  //!< fastForwardTo() calls that moved now().
};

/** How runFrom() advances the clock between arrivals. */
enum class Stepping
{
    TickEveryCycle,
    /** One fastForwardTo(nextEventCycle()) before the first tick. */
    SkipBeforeFirstTick,
    /**
     * After every tick, jump to the next event (or arrival) in two
     * back-to-back fastForwardTo() calls, reading energyCounts() between
     * them, so deferred windows are extended, settled mid-way and
     * extended again.
     */
    SkipAfterEveryTick,
};

/** Arrivals happen on these absolute cycles only. */
bool
arrivalCycle(Cycle c)
{
    return c >= 5 && c < 12'000 && c % 9 == 0;
}

/**
 * A short mixed read/write run on the default (power-down enabled)
 * configuration that spans several refreshes, the last ones after the
 * arrivals end. Arrivals are keyed to absolute cycles, so a run that
 * fast-forwards between them sees the same arrivals.
 */
RunTrace
runFrom(Stepping stepping)
{
    constexpr Cycle kEnd = 20'000;
    DramSystem sys(DramConfig{});
    RunTrace out;
    auto jump = [&](Cycle target) {
        if (target > sys.now())
            ++out.jumps;
        sys.fastForwardTo(target);
    };
    if (stepping == Stepping::SkipBeforeFirstTick) {
        const Cycle target = sys.nextEventCycle();
        EXPECT_LE(target, sys.now() + 1);
        jump(target);
    }
    const unsigned ranks =
        sys.config().channels * sys.config().ranksPerChannel;
    Rng rng(11);
    std::uint64_t tag = 1;
    while (sys.now() < kEnd) {
        if (arrivalCycle(sys.now())) {
            DecodedAddr loc;
            loc.channel = static_cast<unsigned>(rng.below(2));
            loc.rank = static_cast<unsigned>(rng.below(2));
            loc.bank = static_cast<unsigned>(rng.below(8));
            loc.row = static_cast<std::uint32_t>(rng.below(32));
            const bool is_write = rng.below(3) == 0;
            const Addr addr = sys.mapper().encode(loc);
            if (sys.canAccept(addr, is_write)) {
                sys.enqueue(addr, is_write, WordMask::single(tag % 8), 0,
                            tag);
                ++tag;
            }
        }
        sys.tick();
        for (const Completion &c : sys.drainCompletions())
            out.completions.push_back(c);
        if (stepping != Stepping::SkipAfterEveryTick)
            continue;
        Cycle target = std::min(sys.nextEventCycle(), kEnd);
        for (Cycle c = sys.now(); c < target; ++c) {
            if (arrivalCycle(c)) {
                target = c;
                break;
            }
        }
        jump(sys.now() + (target - sys.now()) / 2);
        // Settles the first jump's window; the second must extend the
        // settled state, not replay it.
        const power::EnergyCounts mid = sys.energyCounts();
        EXPECT_EQ(mid.actStandbyCycles + mid.preStandbyCycles +
                      mid.powerDownCycles,
                  ranks * sys.now());
        jump(target);
    }
    out.energy = sys.energyCounts();
    out.stats = sys.aggregateStats();
    return out;
}

bool
sameField(std::uint64_t a, std::uint64_t b)
{
    return a == b;
}

bool
sameField(const Histogram &a, const Histogram &b)
{
    if (a.buckets() != b.buckets())
        return false;
    for (std::size_t i = 0; i < a.buckets(); ++i) {
        if (a.count(i) != b.count(i))
            return false;
    }
    return true;
}

bool
sameField(const Summary &a, const Summary &b)
{
    return a.samples() == b.samples() && a.sum() == b.sum() &&
           a.min() == b.min() && a.max() == b.max();
}

/** @p skipped must match the every-cycle run @p ticked bit for bit. */
void
expectSameRun(const RunTrace &ticked, const RunTrace &skipped)
{
    ASSERT_EQ(ticked.completions.size(), skipped.completions.size());
    EXPECT_GT(ticked.completions.size(), 100u);
    for (std::size_t i = 0; i < ticked.completions.size(); ++i) {
        EXPECT_EQ(ticked.completions[i].tag, skipped.completions[i].tag);
        EXPECT_EQ(ticked.completions[i].finish,
                  skipped.completions[i].finish);
        EXPECT_EQ(ticked.completions[i].latency,
                  skipped.completions[i].latency);
    }
    EXPECT_TRUE(ticked.energy == skipped.energy);
    forEachField(
        [](const char *key, unsigned, const auto &a, const auto &b) {
            EXPECT_TRUE(sameField(a, b)) << key;
        },
        ticked.stats, skipped.stats);
    EXPECT_GT(ticked.stats.refreshes, 0u);
    EXPECT_GT(ticked.energy.powerDownCycles, 0u);
}

TEST(DramSystem, SkipBoundBeforeFirstTickIsExact)
{
    // Before the first tick no channel has published a wake-up bound;
    // nextEventCycle() must then skip at most the current cycle, and a
    // run that takes that skip must match one that never skips.
    expectSameRun(runFrom(Stepping::TickEveryCycle),
                  runFrom(Stepping::SkipBeforeFirstTick));
}

TEST(DramSystem, DeferredSkipsMidRunAreExact)
{
    // Jumps in the middle of a run only extend each channel's deferred
    // background window; adjacent jumps, a settle between them, refreshes
    // and power-down entry inside them must all leave the run unchanged.
    const RunTrace ticked = runFrom(Stepping::TickEveryCycle);
    const RunTrace skipped = runFrom(Stepping::SkipAfterEveryTick);
    expectSameRun(ticked, skipped);
    EXPECT_EQ(ticked.jumps, 0u);
    EXPECT_GT(skipped.jumps, 1000u);
}

TEST(DramSystem, DrainBounded)
{
    DramSystem sys(smallConfig());
    sys.enqueue(0x1000, false, WordMask::full(), 0, 1);
    sys.drain(100000);
    EXPECT_FALSE(sys.busy());
}

} // namespace
} // namespace pra::dram
