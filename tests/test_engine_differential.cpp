/**
 * @file
 * Event-vs-forced-round differential (DESIGN.md §11).
 *
 * The event-driven engine promises *bit-identical* behaviour to a
 * controller that runs a full scheduling round on every cycle
 * (DramConfig::forceRounds): skipping to the next wake-up target may
 * never change a scheduling decision, only avoid the idle rounds
 * between decisions. This test pins that contract the hard way: the
 * golden canned request mix is driven through standalone controllers
 * with and without forced rounds for every scheduler policy x scheme x
 * page policy x device preset cell, and the stats/energy fingerprint,
 * the cycle-exact completion stream, and the checker verdict must match
 * field-for-field. Deliberate protocol faults (ignored tWTR / tCCD_L)
 * must produce the *same* violation lists in both modes — the event
 * engine may not skip past a bug's window. Two scripted scenarios pin
 * the side effects of the round after a command (write-drain hysteresis,
 * the wake of a refreshed powered-down rank). Finally the engine counters
 * prove the event runs actually exercised the fast path (ticks skipped,
 * rounds started by due wakes) and the forced runs skipped nothing.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "canned_traffic.h"
#include "dram/presets.h"
#include "dram/sched/scheduler_policy.h"

namespace pra::dram {
namespace {

using test::Harness;
using test::Outcome;
using test::runCanned;

DramConfig
withForcedRounds(DramConfig cfg, bool force)
{
    cfg.forceRounds = force;
    return cfg;
}

using Scenario = Outcome (*)(const DramConfig &, const std::string &);

/** Run one cell in both modes and require identical behaviour. */
void
expectEnginesAgree(const DramConfig &cfg, const std::string &label,
                   bool expect_violations = false,
                   Scenario scenario = runCanned)
{
    const Outcome forced =
        scenario(withForcedRounds(cfg, true), label + " (forced)");
    const Outcome event =
        scenario(withForcedRounds(cfg, false), label + " (event)");

    EXPECT_EQ(forced.statsFp, event.statsFp) << label;
    EXPECT_EQ(forced.completionsFp, event.completionsFp) << label;
    EXPECT_EQ(forced.end, event.end) << label;
    EXPECT_EQ(forced.violations, event.violations) << label;
    EXPECT_EQ(forced.violations.empty(), !expect_violations)
        << label << (forced.violations.empty()
                         ? ""
                         : ": " + forced.violations.front());

    // The forced run is the per-cycle reference: it skipped nothing and
    // ran a round on every cycle. The comparison is only meaningful if
    // the event run actually took the fast path: most ticks skipped,
    // rounds started by due published wakes.
    EXPECT_EQ(forced.engine.skippedTicks, 0u) << label;
    EXPECT_EQ(forced.engine.rounds, forced.end) << label;
    EXPECT_GT(event.engine.skippedTicks, 0u) << label;
    EXPECT_GT(event.engine.eventsPopped, 0u) << label;
    EXPECT_GT(event.engine.heapPeak, 0u) << label;
    // Every event-mode tick either skips or runs a round, so the two
    // counters partition the simulated cycles — and the run only
    // benefits if skipping dominates.
    EXPECT_EQ(event.engine.rounds + event.engine.skippedTicks, event.end)
        << label;
    EXPECT_LT(event.engine.rounds, event.engine.skippedTicks) << label;
}

TEST(EngineDifferential, AllSchedulersSchemesAndPresetsAgree)
{
    struct Cell
    {
        const char *name;
        bool ddr4;
        bool restricted;
        const SchemeModel *scheme;
    };
    // The golden-equivalence grid (DDR4 ships relaxed-close only).
    const Cell cells[] = {
        {"baseline-ddr3-relaxed", false, false, &schemeByName("baseline")},
        {"pra-ddr3-relaxed", false, false, &schemeByName("pra")},
        {"baseline-ddr3-restricted", false, true, &schemeByName("baseline")},
        {"pra-ddr3-restricted", false, true, &schemeByName("pra")},
        {"baseline-ddr4-relaxed", true, false, &schemeByName("baseline")},
        {"pra-ddr4-relaxed", true, false, &schemeByName("pra")},
    };
    for (const Cell &cell : cells) {
        for (SchedulerKind sched : kAllSchedulerKinds) {
            DramConfig cfg = cell.ddr4 ? ddr4_2400() : DramConfig{};
            if (cell.restricted)
                cfg.useRestrictedClosePage();
            cfg.scheme = cell.scheme;
            cfg.scheduler = sched;
            expectEnginesAgree(cfg, std::string(cell.name) + "/" +
                                        schedulerKindName(sched));
        }
    }
}

TEST(EngineDifferential, PowerDownDisabledStillAgrees)
{
    // Without power-down the idle stretches are pure standby — a
    // different wake-candidate mix (no threshold crossings).
    DramConfig cfg;
    cfg.scheme = &schemeByName("pra");
    cfg.powerDownEnabled = false;
    expectEnginesAgree(cfg, "pra-ddr3-no-powerdown");
}

TEST(EngineDifferential, FaultWindowsAreNotSkippedPast)
{
    // A protocol bug must be equally visible in both modes: the
    // event engine may not sleep through the window in which a faulty
    // gate issues an illegal command. Both deliberate bus-arbiter
    // faults must yield identical, non-empty checker violation lists.
    {
        DramConfig cfg;
        cfg.scheme = &schemeByName("pra");
        cfg.faultIgnoreTwtr = true;
        expectEnginesAgree(cfg, "fault-ignore-twtr", true);
    }
    {
        DramConfig cfg = ddr4_2400();
        cfg.scheme = &schemeByName("pra");
        cfg.faultIgnoreTccdL = true;
        expectEnginesAgree(cfg, "fault-ignore-tccdl", true);
    }
}

/**
 * FR-FCFS write-drain hysteresis at its low watermark. The write queue is
 * filled to the high watermark behind eight row-miss reads, so the
 * drain runs and the reads wait. When a write issue takes the queue to
 * the low watermark, one more write arrives 1, 2 or 3 cycles later. The
 * round after that issue has to see the post-issue queue size, and
 * only on its own cycle: with the arrival one cycle later the drain
 * stays on (the queue never rests at the low watermark), with a later
 * arrival it ends. Either way the waiting reads see the difference.
 */
Outcome
runDrainEdge(const DramConfig &cfg, const std::string &label)
{
    Harness h(cfg, label);
    const unsigned low = cfg.writeLowWatermark;
    // Six edges, each a 48-write drain and 1000 idle cycles: a few
    // thousand cycles apiece, far inside two tREFI.
    const Cycle budget = 6 * 2 * Cycle{cfg.timing.tRefi};
    std::uint32_t row = 0;
    auto place = [&](unsigned i) {
        DecodedAddr loc;
        loc.rank = i % cfg.ranksPerChannel;
        loc.bank = (i / cfg.ranksPerChannel) % cfg.banksPerRank;
        loc.row = 1 + row++ % 4000;
        return loc;
    };
    unsigned edges = 0;
    for (Cycle delay = 1; delay <= 6; ++delay) {
        for (unsigned i = 0; h.mc().writeQueueSize() < cfg.writeHighWatermark;
             ++i)
            h.enqueue(place(i), true);
        for (unsigned i = 0; i < 8; ++i)
            h.enqueue(place(i), false);
        std::size_t before = h.mc().writeQueueSize();
        while (h.withinBudget(budget)) {
            h.tick();
            const std::size_t after = h.mc().writeQueueSize();
            if (before == low + 1 && after == low)
                break;
            before = after;
        }
        ++edges;
        // The issue ran on cycle now() - 1; arrive at its cycle + delay
        // (delays 4..6 repeat 1..3 with the queues in a new state).
        const Cycle arrive = h.now() - 1 + (delay - 1) % 3 + 1;
        while (h.now() < arrive)
            h.tick();
        h.enqueue(place(edges), true);
        h.drain(1000, budget);
    }
    EXPECT_EQ(edges, 6u) << label;
    return h.outcome();
}

/**
 * A refresh falls due on a powered-down idle rank. The round after the
 * REF wakes the rank (it is no longer idle while refreshing), so once the
 * refresh ends the rank spends the power-down threshold in precharge
 * standby before it powers down again. Requests arriving just after
 * each refresh see whether the rank was woken.
 */
Outcome
runIdleRefresh(const DramConfig &cfg, const std::string &label)
{
    Harness h(cfg, label);
    const Timing &t = cfg.timing;
    // Four idle stretches of about one tREFI plus the final one.
    const Cycle budget = 8 * Cycle{t.tRefi};
    for (unsigned round = 0; round < 4; ++round) {
        DecodedAddr loc;
        loc.rank = round % cfg.ranksPerChannel;
        loc.row = 7 + round;
        h.enqueue(loc, round % 2 != 0);
        h.drain(0, budget);
        // Idle past the next refresh of both ranks, then arrive inside
        // the power-down threshold that follows the refresh.
        const Cycle wake = h.now() + t.tRefi + t.tRfc + 2;
        while (h.now() < wake && h.withinBudget(budget))
            h.tick();
    }
    h.drain(t.tRefi, budget);
    EXPECT_GT(h.mc().stats().refreshes, 0u) << label;
    EXPECT_GT(h.mc().energyCounts().powerDownCycles, 0u) << label;
    return h.outcome();
}

TEST(EngineDifferential, DrainHysteresisSeesThePostIssueQueue)
{
    for (SchedulerKind sched :
         {SchedulerKind::FrFcfs, SchedulerKind::FrFcfsWriteAge}) {
        DramConfig cfg;
        cfg.scheme = &schemeByName("pra");
        cfg.scheduler = sched;
        expectEnginesAgree(cfg,
                           std::string("drain-edge/") +
                               schedulerKindName(sched),
                           false, runDrainEdge);
    }
}

TEST(EngineDifferential, RefreshWakesAPoweredDownRank)
{
    DramConfig cfg;
    cfg.scheme = &schemeByName("pra");
    ASSERT_TRUE(cfg.powerDownEnabled);
    expectEnginesAgree(cfg, "idle-refresh", false, runIdleRefresh);
}

} // namespace
} // namespace pra::dram
