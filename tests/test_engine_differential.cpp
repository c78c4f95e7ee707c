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
 * engine may not skip past a bug's window. Finally the engine counters
 * prove the event runs actually exercised the fast path (ticks skipped,
 * wake-ups popped) and the forced runs skipped nothing.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/hash.h"
#include "dram/address_mapping.h"
#include "dram/controller.h"
#include "dram/presets.h"
#include "dram/sched/scheduler_policy.h"

namespace pra::dram {
namespace {

/** Everything one canned run produces that both modes must agree on. */
struct Outcome
{
    std::uint64_t statsFp = 0;        //!< Stats + energy fold.
    std::uint64_t completionsFp = 0;  //!< Cycle-exact completion stream.
    std::vector<std::string> violations;
    EngineStats engine;
    Cycle end = 0;
};

/** Same field fold as test_golden_equivalence.cpp. */
std::uint64_t
statsFingerprint(const ControllerStats &s, const power::EnergyCounts &e)
{
    Fnv1a h;
    h.add(s.readReqs);
    h.add(s.writeReqs);
    h.add(s.readRowHits);
    h.add(s.writeRowHits);
    h.add(s.readRowMisses);
    h.add(s.writeRowMisses);
    h.add(s.readFalseHits);
    h.add(s.writeFalseHits);
    h.add(s.actsForReads);
    h.add(s.actsForWrites);
    h.add(s.precharges);
    h.add(s.refreshes);
    h.add(s.forwardedReads);
    for (std::size_t b = 0; b < s.actGranularity.buckets(); ++b)
        h.add(s.actGranularity.count(b));
    h.add(s.readLatency.samples());
    h.add(s.readLatency.sum());
    h.add(s.readLatency.min());
    h.add(s.readLatency.max());
    for (auto a : e.acts)
        h.add(a);
    for (auto a : e.actsHalfHeight)
        h.add(a);
    h.add(e.sdsActs);
    h.add(e.sdsChipsActivated);
    h.add(e.readLines);
    h.add(e.writeLines);
    h.add(e.writeWordsDriven);
    h.add(e.actStandbyCycles);
    h.add(e.preStandbyCycles);
    h.add(e.powerDownCycles);
    h.add(e.refreshOps);
    h.add(e.elapsedCycles);
    return h.value();
}

/**
 * The golden canned mix (test_golden_equivalence.cpp), instrumented to
 * also fold the completion stream as it is delivered. The LCG arrival
 * pattern includes idle gaps long enough for power-down entry and a
 * two-tREFI idle tail — exactly the stretches the event engine skips.
 */
Outcome
runCanned(DramConfig cfg)
{
    cfg.channels = 1;
    cfg.enableChecker = true;
    AddressMapper mapper(cfg);
    MemoryController mc(cfg, 0);

    Fnv1a completions;
    Cycle now = 0;
    auto tickOnce = [&] {
        mc.tick(now++);
        for (const Completion &c : mc.completions()) {
            completions.add(c.tag);
            completions.add(c.addr);
            completions.add(c.finish);
            completions.add(c.latency);
        }
        mc.completions().clear();
    };

    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    auto next = [&state] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 16;
    };

    unsigned issued = 0;
    std::uint64_t tag = 1;
    while (issued < 600) {
        const std::uint64_t r = next();
        const bool is_write = r % 3 != 0;
        DecodedAddr loc;
        loc.rank = static_cast<unsigned>((r >> 3) % cfg.ranksPerChannel);
        loc.bank = static_cast<unsigned>((r >> 8) % cfg.banksPerRank);
        loc.row = static_cast<std::uint32_t>((r >> 12) % 48);
        loc.col =
            static_cast<unsigned>((r >> 20) % std::min(32u, cfg.linesPerRow));
        Request req;
        req.addr = mapper.encode(loc);
        req.loc = loc;
        req.isWrite = is_write;
        req.tag = tag++;
        if (is_write) {
            WordMask m = WordMask::single((r >> 28) % 8);
            if (r & 1)
                m |= WordMask::single((r >> 33) % 8);
            if (r & 2)
                m |= WordMask::single((r >> 38) % 8);
            req.mask = m;
        }
        if (mc.canAccept(is_write)) {
            mc.enqueue(req, now);
            ++issued;
        }
        const Cycle gap = (r % 7 == 0) ? 40 + (r >> 40) % 60 : 1 + r % 3;
        const Cycle until = now + gap;
        while (now < until)
            tickOnce();
    }
    const Cycle idle_end = now + 2 * cfg.timing.tRefi;
    while (now < idle_end || mc.busy())
        tickOnce();

    Outcome out;
    power::EnergyCounts energy = mc.energyCounts();
    energy.elapsedCycles = now;
    out.statsFp = statsFingerprint(mc.stats(), energy);
    out.completionsFp = completions.value();
    out.violations = mc.checker()->violations();
    out.engine = mc.engineStats();
    out.end = now;
    return out;
}

DramConfig
withForcedRounds(DramConfig cfg, bool force)
{
    cfg.forceRounds = force;
    return cfg;
}

/** Run one cell in both modes and require identical behaviour. */
void
expectEnginesAgree(const DramConfig &cfg, const std::string &label,
                   bool expect_violations = false)
{
    const Outcome forced = runCanned(withForcedRounds(cfg, true));
    const Outcome event = runCanned(withForcedRounds(cfg, false));

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
    // wake-ups popped from the heap.
    EXPECT_EQ(forced.engine.skippedTicks, 0u) << label;
    EXPECT_EQ(forced.engine.rounds, forced.end) << label;
    EXPECT_GT(event.engine.skippedTicks, 0u) << label;
    EXPECT_GT(event.engine.wakeups, 0u) << label;
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

} // namespace
} // namespace pra::dram
