/**
 * @file
 * Tests for the pluggable maintenance-op seam
 * (MaintenanceEngine::registerOp, DESIGN.md §9) and its PRAC tenant,
 * the prac_rfm mitigation op (DESIGN.md §13).
 *
 * The seam's edge cases first, at the engine level: two ops whose wake
 * bounds land on the same cycle must share the round slot in
 * registration order, a sloppy bound at (or before) `now` must be
 * clamped strictly past it so the event engine can never livelock, and
 * opaque (unnamed) ops must degrade the engine to per-cycle polling
 * rather than silently sleep. Then end-to-end: a PRAC-enabled system
 * forked from a warm snapshot re-registers the prac_rfm op in its fresh
 * controller and must match a cold run bit-exactly, and the canonical
 * config names the op (the maintop-coverage lint handle).
 */
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "dram/bank_engine.h"
#include "dram/maintenance_engine.h"
#include "sim/config_io.h"
#include "sim/experiment.h"
#include "sim/result_cache.h"
#include "sim/runner.h"

namespace pra::dram {
namespace {

constexpr Cycle kNever = ~Cycle{0};

struct NullHooks final : MaintenanceHooks
{
    void issuePrecharge(unsigned, unsigned, Cycle) override {}
    void issueAutoPrecharge(unsigned, unsigned, Cycle) override {}
    void issueRefresh(unsigned, Cycle) override {}
};

/** A one-shot op that becomes issuable at @p at and issues once. */
struct OneShot
{
    Cycle at;
    char tag;
    std::vector<std::pair<char, Cycle>> *log;
    bool done = false;

    bool
    fire(Cycle now)
    {
        if (done || now < at)
            return false;
        done = true;
        log->emplace_back(tag, now);
        return true;
    }

    Cycle wake(Cycle) const { return done ? kNever : at; }
};

TEST(MaintenanceOps, SameCycleWakesShareTheSlotInRegistrationOrder)
{
    // Both ops want cycle 10, but a round has one command slot: the
    // first-registered op consumes it, and the published bound must
    // still cover the loser so the engine re-polls the very next cycle.
    const DramConfig cfg;
    BankEngine banks(cfg);
    NullHooks hooks;
    MaintenanceEngine maint(cfg, banks, hooks);

    std::vector<std::pair<char, Cycle>> log;
    OneShot a{10, 'a', &log};
    OneShot b{10, 'b', &log};
    maint.registerOp(
        "op_a", [&](Cycle now) { return a.fire(now); },
        [&](Cycle now) { return a.wake(now); });
    maint.registerOp(
        "op_b", [&](Cycle now) { return b.fire(now); },
        [&](Cycle now) { return b.wake(now); });

    EXPECT_EQ(maint.opWakeBound(0), 10u);
    EXPECT_FALSE(maint.tryOps(9));
    EXPECT_TRUE(log.empty());

    ASSERT_TRUE(maint.tryOps(10));
    ASSERT_EQ(log.size(), 1u);
    EXPECT_EQ(log[0], std::make_pair('a', Cycle{10}));

    // op_b still wants cycle 10 — a bound at `now` clamps to now + 1,
    // never to a cycle the engine would sleep through.
    EXPECT_EQ(maint.opWakeBound(10), 11u);
    ASSERT_TRUE(maint.tryOps(11));
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[1], std::make_pair('b', Cycle{11}));

    // Both drained: the seam goes quiet, not busy.
    EXPECT_EQ(maint.opWakeBound(11), kNever);
    EXPECT_FALSE(maint.tryOps(12));
}

TEST(MaintenanceOps, WakeBoundAtOrBeforeNowClampsStrictlyPastNow)
{
    // An op whose nextWakeAt answers `now` (or earlier) on every query
    // must never produce a non-advancing wake bound — the exact shape
    // that would livelock the event engine's sleep loop.
    const DramConfig cfg;
    BankEngine banks(cfg);
    NullHooks hooks;
    MaintenanceEngine maint(cfg, banks, hooks);

    maint.registerOp(
        "op_now", [](Cycle) { return false; },
        [](Cycle now) { return now; });
    maint.registerOp(
        "op_past", [](Cycle) { return false; },
        [](Cycle) { return Cycle{0}; });

    for (Cycle now : {Cycle{0}, Cycle{1}, Cycle{17}, Cycle{1000}})
        EXPECT_EQ(maint.opWakeBound(now), now + 1) << "at cycle " << now;
}

TEST(MaintenanceOps, OpaqueOpsForcePerCyclePollingNotSleep)
{
    // The unnamed overload carries no wake contract: the engine must
    // report it as opaque (the controller then publishes now + 1 every
    // round) while the bound aggregation ignores it entirely.
    const DramConfig cfg;
    BankEngine banks(cfg);
    NullHooks hooks;
    MaintenanceEngine maint(cfg, banks, hooks);

    EXPECT_FALSE(maint.hasOps());
    unsigned polls = 0;
    maint.registerOp([&](Cycle) {
        ++polls;
        return false;
    });
    EXPECT_TRUE(maint.hasOps());
    EXPECT_TRUE(maint.hasOpaqueOps());
    EXPECT_EQ(maint.opWakeBound(5), kNever);

    EXPECT_FALSE(maint.tryOps(5));
    EXPECT_FALSE(maint.tryOps(6));
    EXPECT_EQ(polls, 2u);

    // A named op beside it publishes; the opaque one stays invisible to
    // the bound.
    maint.registerOp(
        "op_bounded", [](Cycle) { return false; },
        [](Cycle) { return Cycle{42}; });
    EXPECT_TRUE(maint.hasOpaqueOps());
    EXPECT_EQ(maint.opWakeBound(5), 42u);
}

} // namespace
} // namespace pra::dram

namespace pra::sim {
namespace {

constexpr std::uint64_t kShortRun = 50'000;

const workloads::Mix &
gupsRate()
{
    static const workloads::Mix mix{"GUPS",
                                    {"GUPS", "GUPS", "GUPS", "GUPS"}};
    return mix;
}

/** A PRAC config aggressive enough that RFMs really issue in 50k ops. */
SystemConfig
pracConfig()
{
    SystemConfig cfg = makeConfig(
        {&schemeByName("pra"), dram::PagePolicy::RelaxedClose, false});
    cfg.targetInstructions = kShortRun;
    cfg.dram.pracEnabled = true;
    cfg.dram.disturbanceThreshold = 4;
    cfg.dram.pracCamEntries = 2;
    cfg.dram.pracRecoveryWindow = 4096;
    return cfg;
}

TEST(MaintenanceOps, PracOpRegisteredAfterWarmSnapshotFork)
{
    // The prac_rfm op is registered in the controller's constructor; a
    // fork from a warm snapshot builds a fresh DRAM system, so the op
    // must come back with it. PRAC knobs are warmup-irrelevant (warmup
    // never touches the DRAM clock): the fork shares the PRAC-off
    // warmup and must still match a cold PRAC-on run bit-exactly.
    WarmupCache warm;
    const SystemConfig off = [] {
        SystemConfig c = pracConfig();
        c.dram.pracEnabled = false;
        return c;
    }();
    (void)runWorkload(gupsRate(), off, warm);   // Seed the shared warmup.

    const SystemConfig cfg = pracConfig();
    const RunResult forked = runWorkload(gupsRate(), cfg, warm);
    const RunResult cold = runWorkload(gupsRate(), cfg);
    EXPECT_TRUE(identicalResults(cold, forked));
    EXPECT_EQ(warm.computed(), 1u);

    // The mitigation machinery genuinely ran in both: counted RFMs and
    // their energy reached the stats, and the PRAC-off run issued none.
    EXPECT_GT(forked.dramStats.rfms, 0u);
    EXPECT_GT(forked.energy.rfmOps, 0u);
    EXPECT_EQ(forked.dramStats.rfms, cold.dramStats.rfms);
    EXPECT_EQ(runWorkload(gupsRate(), off, warm).dramStats.rfms, 0u);
}

TEST(MaintenanceOps, PracRunsBitIdenticalAcrossEngines)
{
    // The prac_rfm wake-bound contract is what lets the event engine
    // sleep through alert-free stretches; disagreement with the fully
    // per-cycle reference (a scheduling round on every DRAM cycle and no
    // system-level cycle skip, so no wake bound is used at all) means a
    // lost wakeup the model checker's soundness property guards at model
    // scale.
    SystemConfig per_cycle = pracConfig();
    per_cycle.dram.forceRounds = true;
    per_cycle.enableCycleSkip = false;
    const RunResult a = runWorkload(gupsRate(), per_cycle);
    const RunResult b = runWorkload(gupsRate(), pracConfig());
    EXPECT_TRUE(identicalResults(a, b));
    EXPECT_GT(a.dramStats.rfms, 0u);
}

TEST(MaintenanceOps, CanonicalConfigNamesThePracRfmOp)
{
    // The maintop-coverage lint rule requires every registered op name
    // in the result-cache key: the canonical config must say prac_rfm
    // exactly when the op would be registered.
    const std::string on = canonicalConfig(pracConfig());
    EXPECT_NE(on.find("prac_op = prac_rfm"), std::string::npos);

    SystemConfig off = pracConfig();
    off.dram.pracEnabled = false;
    EXPECT_EQ(canonicalConfig(off).find("prac_rfm"), std::string::npos);
    EXPECT_NE(canonicalConfig(off).find("prac_op = none"),
              std::string::npos);
}

} // namespace
} // namespace pra::sim
