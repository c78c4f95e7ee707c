/**
 * @file
 * Regression tests for the bounded protocol model checker
 * (src/analysis/model_checker.h) and its command-script replay format.
 *
 * Three layers:
 *  - live exploration: each deliberate fault hook must be caught within
 *    the default depth budget (for every scheduler policy), and the
 *    unfaulted model must explore clean — with the liveness properties
 *    and wakeup-soundness checking on, and with the measured reduction
 *    ratio and liveness headroom pinned;
 *  - fault hooks: the config-level seams the liveness faults arm are
 *    unit-tested directly (a suppressed-but-still-gating tWTR bound, an
 *    age threshold past which requests never issue);
 *  - distilled counterexamples: command scripts pinned here replay
 *    specific protocol rules (weighted tFAW bursts, DDR4 bank-group
 *    tCCD_S/tCCD_L, refresh/close collisions) straight through the
 *    independent TimingChecker, so these rules stay covered even if the
 *    explorer's search order changes.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/command_script.h"
#include "analysis/model_checker.h"
#include "core/scheme.h"
#include "dram/bus_arbiter.h"
#include "dram/sched/scheduler_policy.h"

namespace pra::analysis {
namespace {

std::vector<std::string>
replayText(const std::string &text, const dram::DramConfig &cfg)
{
    CommandScript script;
    std::string error;
    EXPECT_TRUE(CommandScript::parse(text, script, error)) << error;
    // One replay is enough: replayScript checks the script's commands
    // against a TimingChecker and a mask shadow and never builds a
    // controller, so no engine setting (DramConfig::forceRounds) can
    // change its verdicts.
    return replayScript(script, cfg);
}

bool
anyContains(const std::vector<std::string> &violations, const char *needle)
{
    for (const std::string &v : violations) {
        if (v.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

// --- Live exploration ---------------------------------------------------

class FaultCatch : public ::testing::TestWithParam<Fault>
{
};

TEST_P(FaultCatch, CaughtWithinDefaultBudgetUnderEveryScheduler)
{
    const Fault fault = GetParam();
    for (dram::SchedulerKind sched : dram::kAllSchedulerKinds) {
        ModelChecker::Options opts;
        opts.fault = fault;
        opts.scheduler = sched;
        const ModelCheckResult res = ModelChecker(opts).run();
        ASSERT_TRUE(res.violationFound)
            << faultName(fault) << " not caught under "
            << dram::schedulerKindName(sched);
        ASSERT_FALSE(res.counterexample.commands.empty());

        // The counterexample must survive a serialize/parse round trip
        // and reproduce a violation in the independent replayer.
        CommandScript parsed;
        std::string error;
        ASSERT_TRUE(CommandScript::parse(res.counterexample.serialize(),
                                         parsed, error))
            << error;
        EXPECT_EQ(parsed.fault, faultName(fault));
        EXPECT_EQ(parsed.commands.size(),
                  res.counterexample.commands.size());
        const auto violations =
            replayScript(parsed, ModelChecker::modelConfig(fault));
        EXPECT_FALSE(violations.empty())
            << "counterexample did not replay:\n"
            << res.counterexample.serialize();
    }
}

// LateRfm is absent deliberately: its counterexample indicts the
// exploration (a mitigation that never lands in time), not the replayed
// command stream, so it fails this suite's replay leg — it gets the
// dedicated recovery-window test below instead.
INSTANTIATE_TEST_SUITE_P(AllFaults, FaultCatch,
                         ::testing::Values(Fault::WidenAct,
                                           Fault::IgnoreTccdL,
                                           Fault::IgnoreTwtr,
                                           Fault::DropCount));

TEST(FaultNames, EveryFaultRoundTrips)
{
    for (const Fault f : kAllFaults) {
        Fault parsed = Fault::None;
        ASSERT_TRUE(parseFault(faultName(f), parsed)) << faultName(f);
        EXPECT_EQ(parsed, f) << faultName(f);
    }
    Fault parsed = Fault::WidenAct;
    EXPECT_FALSE(parseFault("no_such_fault", parsed));
    EXPECT_EQ(parsed, Fault::WidenAct);
}

TEST(ModelCheck, UnfaultedExplorationIsClean)
{
    for (dram::SchedulerKind sched : dram::kAllSchedulerKinds) {
        ModelChecker::Options opts;
        opts.scheduler = sched;
        const ModelCheckResult res = ModelChecker(opts).run();
        EXPECT_FALSE(res.violationFound)
            << "under " << dram::schedulerKindName(sched) << ": "
            << res.violation << "\n"
            << res.counterexample.serialize();
        // The space must converge inside the default budget — a clean
        // verdict on an exhausted budget proves nothing.
        EXPECT_FALSE(res.budgetExhausted);
        // Liveness headroom below the default bounds, with enough slack
        // that the properties are genuinely armed (not trivially tight).
        EXPECT_LE(res.maxRequestWait, ModelChecker::kDefaultLivenessBound);
        EXPECT_LE(res.maxRefreshOverrun, ModelChecker::kDefaultRefreshSlack);
        if (sched == dram::SchedulerKind::FrFcfs) {
            // Measured pins for the reordering policy (the exploration
            // is deterministic): re-pin deliberately when the model,
            // workload, or reduction changes.
            EXPECT_EQ(res.statesExplored, 514742u);
            EXPECT_EQ(res.maxRequestWait, 81u);
            EXPECT_EQ(res.maxRefreshOverrun, 21u);
            EXPECT_GT(res.idleLeaps, 0u);
            EXPECT_GT(res.interleavingsPruned, 0u);
        }
        // The exploration must be substantial, not vacuous: even the
        // non-reordering FCFS policy issues the full workload.
        EXPECT_GT(res.statesExplored, 100u);
        EXPECT_GT(res.commandsIssued, 100u);
    }
}

TEST(ModelCheck, SuppressedWakeBoundCaughtBySoundnessProperty)
{
    // faultSuppressWakeTwtr reports a stale tWTR release bound while the
    // gate keeps blocking reads: the event engine would sleep through the
    // release. The wakeup-soundness property must see, at some explored
    // quiet state, that the legal set changes before any published bound.
    for (dram::SchedulerKind sched : dram::kAllSchedulerKinds) {
        ModelChecker::Options opts;
        opts.fault = Fault::SuppressWake;
        opts.scheduler = sched;
        const ModelCheckResult res = ModelChecker(opts).run();
        ASSERT_TRUE(res.violationFound)
            << "suppress_wake not caught under "
            << dram::schedulerKindName(sched);
        EXPECT_NE(res.violation.find("lost wakeup"), std::string::npos)
            << res.violation;
        EXPECT_FALSE(res.budgetExhausted);
    }
}

TEST(ModelCheck, StarvedAgedRequestCaughtByBoundedProgress)
{
    // faultStarveAgedCycles makes the controller skip any request older
    // than the threshold — it stalls forever without ever issuing an
    // illegal command, invisible to the safety layer. Bounded progress
    // must flag it once the request outlives the liveness bound.
    for (dram::SchedulerKind sched : dram::kAllSchedulerKinds) {
        ModelChecker::Options opts;
        opts.fault = Fault::StarveAged;
        opts.scheduler = sched;
        const ModelCheckResult res = ModelChecker(opts).run();
        ASSERT_TRUE(res.violationFound)
            << "starve_aged not caught under "
            << dram::schedulerKindName(sched);
        EXPECT_NE(res.violation.find("request starved"), std::string::npos)
            << res.violation;
        EXPECT_FALSE(res.budgetExhausted);
    }
}

TEST(ModelCheck, ReductionExploresAtLeastFourTimesFewerStates)
{
    // Symmetry canonicalization + sleep sets + idle time-leaps against
    // the same exploration with reduction off, at equal depth and equal
    // findings (both clean). The interleaving breadth dominates this
    // space, so a shallow depth keeps the unreduced run affordable
    // without weakening the comparison.
    ModelChecker::Options on;
    on.depth = 16;
    ModelChecker::Options off = on;
    off.reduction = false;
    off.maxStates = 2000000;
    const ModelCheckResult res_on = ModelChecker(on).run();
    const ModelCheckResult res_off = ModelChecker(off).run();
    ASSERT_FALSE(res_on.violationFound) << res_on.violation;
    ASSERT_FALSE(res_off.violationFound) << res_off.violation;
    ASSERT_FALSE(res_on.budgetExhausted);
    ASSERT_FALSE(res_off.budgetExhausted);
    EXPECT_GE(res_off.statesExplored, 4 * res_on.statesExplored)
        << "reduction ratio regressed: " << res_off.statesExplored
        << " unreduced vs " << res_on.statesExplored << " reduced";
    // The reduced run actually used its machinery; the unreduced run
    // really ran bare.
    EXPECT_GT(res_on.idleLeaps, 0u);
    EXPECT_GT(res_on.interleavingsPruned, 0u);
    EXPECT_EQ(res_off.idleLeaps, 0u);
    EXPECT_EQ(res_off.interleavingsPruned, 0u);
}

TEST(ModelCheck, DegenerateGeometriesExploreClean)
{
    // Geometry overrides fold the workload onto the reduced shape; the
    // symmetry canonicalizer must stay sound when a bank group spans
    // every bank (groups off), when there is no rank symmetry to find,
    // and when per_group collapses to a single bank.
    struct Geometry
    {
        const char *name;
        unsigned ranks, banks, groups;
        std::uint64_t maxStates;
    };
    const Geometry geometries[] = {
        // Dropping the group wall removes the tCCD_L gate, so this space
        // is larger than the default geometry's.
        {"bank-groups-off", 0, 0, 1, 2000000},
        {"single-rank", 1, 0, 0, 1000000},
        {"single-bank", 0, 1, 0, 1000000},
    };
    for (const Geometry &g : geometries) {
        ModelChecker::Options opts;
        opts.overrideRanks = g.ranks;
        opts.overrideBanks = g.banks;
        opts.overrideBankGroups = g.groups;
        opts.maxStates = g.maxStates;
        const ModelCheckResult res = ModelChecker(opts).run();
        EXPECT_FALSE(res.violationFound)
            << g.name << ": " << res.violation << "\n"
            << res.counterexample.serialize();
        EXPECT_FALSE(res.budgetExhausted) << g.name;
        EXPECT_GT(res.statesExplored, 100u) << g.name;
    }
}

TEST(ModelCheck, ShrinkingMinimizesSafetyCounterexamples)
{
    ModelChecker::Options opts;
    opts.fault = Fault::IgnoreTwtr;
    const ModelCheckResult res = ModelChecker(opts).run();
    ASSERT_TRUE(res.violationFound);
    const dram::DramConfig cfg = ModelChecker::modelConfig(Fault::IgnoreTwtr);
    const auto base = replayScript(res.counterexample, cfg);
    ASSERT_FALSE(base.empty());

    const CommandScript shrunk = shrinkScript(res.counterexample, cfg);
    EXPECT_LT(shrunk.commands.size(), res.counterexample.commands.size());
    // The minimized script still reproduces the original first violation
    // verbatim, and dropping any single remaining command loses it (the
    // greedy pass ran to a fixpoint).
    const std::string &target = base.front();
    const auto shrunk_violations = replayScript(shrunk, cfg);
    EXPECT_TRUE(anyContains(shrunk_violations, target.c_str()));
    for (std::size_t i = 0; i < shrunk.commands.size(); ++i) {
        CommandScript trial = shrunk;
        trial.commands.erase(trial.commands.begin() +
                             static_cast<std::ptrdiff_t>(i));
        bool still = false;
        for (const std::string &v : replayScript(trial, cfg))
            still |= v == target;
        EXPECT_FALSE(still) << "command " << i << " was droppable";
    }
}

TEST(ModelCheck, ShrinkingLeavesLivenessCounterexamplesIntact)
{
    // A liveness counterexample indicts the exploration (a request that
    // never completes), not the replayed command stream — it replays
    // clean, and the shrinker must hand it back unchanged rather than
    // delete it down to nothing.
    ModelChecker::Options opts;
    opts.fault = Fault::StarveAged;
    const ModelCheckResult res = ModelChecker(opts).run();
    ASSERT_TRUE(res.violationFound);
    const dram::DramConfig cfg = ModelChecker::modelConfig(Fault::StarveAged);
    ASSERT_TRUE(replayScript(res.counterexample, cfg).empty());
    const CommandScript shrunk = shrinkScript(res.counterexample, cfg);
    EXPECT_EQ(shrunk.commands.size(), res.counterexample.commands.size());
}

// --- PRAC / disturbance safety (DESIGN.md §13) --------------------------

TEST(PracModelCheck, CleanPracExplorationPinsDisturbanceHeadroom)
{
    // The PRAC-armed model (per-row counters, Alert Back-Off, RFM) must
    // explore clean under every scheduler: no row reaches the threshold,
    // every alert recovers inside the window, and the liveness bounds
    // still hold with the rank spending alert-blocked stretches.
    const dram::DramConfig cfg = ModelChecker::modelConfig(
        Fault::None, ModelChecker::kDefaultDisturbanceThreshold);
    ASSERT_TRUE(cfg.pracEnabled);
    for (dram::SchedulerKind sched : dram::kAllSchedulerKinds) {
        ModelChecker::Options opts;
        opts.scheduler = sched;
        opts.disturbanceThreshold =
            ModelChecker::kDefaultDisturbanceThreshold;
        const ModelCheckResult res = ModelChecker(opts).run();
        EXPECT_FALSE(res.violationFound)
            << "under " << dram::schedulerKindName(sched) << ": "
            << res.violation << "\n"
            << res.counterexample.serialize();
        EXPECT_FALSE(res.budgetExhausted);
        // The alert/RFM machinery genuinely fired (not a vacuous pass)
        // and stayed inside the recovery window with real headroom.
        EXPECT_GT(res.maxRecoveryWait, 0u);
        EXPECT_LE(res.maxRecoveryWait, cfg.pracRecoveryWindow);
        EXPECT_LE(res.maxRequestWait, ModelChecker::kDefaultLivenessBound);
        if (sched == dram::SchedulerKind::FrFcfs) {
            // Measured pins (deterministic exploration): re-pin
            // deliberately when the PRAC model or workload changes.
            EXPECT_EQ(res.statesExplored, 508u);
            EXPECT_EQ(res.maxRecoveryWait, 22u);
        }
    }
}

TEST(PracModelCheck, LateRfmCaughtByRecoveryWindowProperty)
{
    // faultPracLateRfm releases the mitigation one full window after the
    // alert — every path overruns. The recovery-window property must
    // flag it; the counterexample replays clean (like liveness, the
    // violation is the exploration's schedule, not a command breach) and
    // the shrinker hands it back unchanged.
    for (dram::SchedulerKind sched : dram::kAllSchedulerKinds) {
        ModelChecker::Options opts;
        opts.fault = Fault::LateRfm;
        opts.scheduler = sched;
        const ModelCheckResult res = ModelChecker(opts).run();
        ASSERT_TRUE(res.violationFound)
            << "late_rfm not caught under "
            << dram::schedulerKindName(sched);
        EXPECT_NE(res.violation.find("recovery window"), std::string::npos)
            << res.violation;
        EXPECT_FALSE(res.budgetExhausted);

        const dram::DramConfig cfg =
            ModelChecker::modelConfig(Fault::LateRfm);
        EXPECT_TRUE(replayScript(res.counterexample, cfg).empty());
        const CommandScript shrunk = shrinkScript(res.counterexample, cfg);
        EXPECT_EQ(shrunk.commands.size(),
                  res.counterexample.commands.size());
    }
}

TEST(PracModelCheck, DropCountCounterexampleShrinksToBareHammer)
{
    // faultPracDropCount leaves partial ACTs uncounted, so the hammer
    // row crosses the threshold with no alert. The spec-side shadow
    // catches it, and the witness delta-debugs down to just the ACTs of
    // the victim row.
    ModelChecker::Options opts;
    opts.fault = Fault::DropCount;
    const ModelCheckResult res = ModelChecker(opts).run();
    ASSERT_TRUE(res.violationFound);
    EXPECT_NE(res.violation.find("disturbance threshold"),
              std::string::npos)
        << res.violation;

    const dram::DramConfig cfg = ModelChecker::modelConfig(Fault::DropCount);
    const auto base = replayScript(res.counterexample, cfg);
    ASSERT_TRUE(anyContains(base, "disturbance threshold"));
    const CommandScript shrunk = shrinkScript(res.counterexample, cfg);
    EXPECT_EQ(shrunk.commands.size(), cfg.disturbanceThreshold);
    for (const ScriptCommand &c : shrunk.commands) {
        EXPECT_EQ(c.kind, dram::CheckedCommand::Kind::Activate);
        EXPECT_EQ(c.row, shrunk.commands.front().row);
    }
    EXPECT_TRUE(anyContains(replayScript(shrunk, cfg),
                            "disturbance threshold"));
}

TEST(PracModelCheck, UnfaultedModelKeepsPracOff)
{
    // With neither a PRAC fault nor a threshold override, the model must
    // stay byte-compatible with the pre-PRAC explorations: PRAC off, and
    // the same state count the unfaulted pin above protects.
    const dram::DramConfig cfg = ModelChecker::modelConfig(Fault::None);
    EXPECT_FALSE(cfg.pracEnabled);
    EXPECT_FALSE(cfg.faultPracDropCount);
    EXPECT_FALSE(cfg.faultPracLateRfm);

    // Each PRAC fault arms PRAC and exactly its own hook.
    const dram::DramConfig drop =
        ModelChecker::modelConfig(Fault::DropCount);
    ASSERT_TRUE(drop.pracEnabled);
    EXPECT_TRUE(drop.faultPracDropCount);
    EXPECT_FALSE(drop.faultPracLateRfm);

    const dram::DramConfig late = ModelChecker::modelConfig(Fault::LateRfm);
    ASSERT_TRUE(late.pracEnabled);
    EXPECT_FALSE(late.faultPracDropCount);
    EXPECT_TRUE(late.faultPracLateRfm);
}

// --- Fault hooks --------------------------------------------------------

TEST(FaultHooks, SuppressWakeHidesTheBoundButKeepsTheGate)
{
    // The faulted arbiter still blocks reads for the full tWTR window
    // but reports a stale (cycle-0) release bound — exactly the shape
    // of wake bug the soundness property exists to catch.
    const dram::DramConfig faulted =
        ModelChecker::modelConfig(Fault::SuppressWake);
    ASSERT_TRUE(faulted.faultSuppressWakeTwtr);
    dram::BusArbiter bus(faulted);
    bus.noteWriteIssued(10, 2);
    EXPECT_TRUE(bus.readBlocked(11));
    EXPECT_EQ(bus.readBlockedUntil(), 0u);

    const dram::DramConfig clean = ModelChecker::modelConfig(Fault::None);
    dram::BusArbiter honest(clean);
    honest.noteWriteIssued(10, 2);
    EXPECT_TRUE(honest.readBlocked(11));
    // WL + tWTR + burst past the issue cycle.
    EXPECT_EQ(honest.readBlockedUntil(),
              10 + clean.timing.wl + clean.timing.tWtr + 2);
}

TEST(FaultHooks, StarveAgedDefersRequestsPastTheThreshold)
{
    const dram::DramConfig faulted =
        ModelChecker::modelConfig(Fault::StarveAged);
    ASSERT_EQ(faulted.faultStarveAgedCycles, 8u);
    EXPECT_FALSE(faulted.faultStarvesRequest(7, 0));
    EXPECT_TRUE(faulted.faultStarvesRequest(8, 0));
    EXPECT_TRUE(faulted.faultStarvesRequest(100, 0));

    const dram::DramConfig clean = ModelChecker::modelConfig(Fault::None);
    EXPECT_FALSE(clean.faultStarvesRequest(1000, 0));
}

TEST(ModelCheck, CleanRunDeepestPathReplaysClean)
{
    // --emit-test on a clean run serializes the deepest violation-free
    // path; that path must agree with the independent replayer.
    ModelChecker::Options opts;
    opts.depth = 30;
    opts.maxStates = 20000;
    const ModelCheckResult res = ModelChecker(opts).run();
    ASSERT_FALSE(res.violationFound) << res.violation;
    ASSERT_FALSE(res.deepestPath.commands.empty());
    const auto violations =
        replayScript(res.deepestPath, ModelChecker::modelConfig(Fault::None));
    EXPECT_TRUE(violations.empty())
        << violations.front() << "\n"
        << res.deepestPath.serialize();
}

TEST(ModelCheck, WorkloadExercisesBothRanksAndMaskMerging)
{
    const auto workload = ModelChecker::defaultWorkload();
    ASSERT_FALSE(workload.empty());
    bool rank1 = false, partialWrite = false, twins = false;
    for (const ModelRequest &r : workload) {
        rank1 |= r.rank == 1;
        partialWrite |= r.isWrite && r.mask != 0xff;
        // The symmetry canonicalizer needs at least one pair of requests
        // identical up to a bank rename within one bank group.
        for (const ModelRequest &o : workload) {
            twins |= &r != &o && r.rank == o.rank && r.bank != o.bank &&
                     r.bank / 2 == o.bank / 2 && r.row == o.row &&
                     r.col == o.col && r.arrival == o.arrival &&
                     r.isWrite == o.isWrite && r.mask == o.mask;
        }
    }
    EXPECT_TRUE(rank1);
    EXPECT_TRUE(partialWrite);
    EXPECT_TRUE(twins);
}

// --- Scheme plugins under the checker -----------------------------------

TEST(SchemePlugins, ReadPartialSchemesExploreCleanOnReducedGeometry)
{
    // Read-side partial activation multiplies the reachable bank states
    // (per-row sector masks defeat much of the symmetry reduction), so
    // the full-geometry space is out of unit-test budget; a single-rank,
    // two-bank fold keeps every scheduler convergent in milliseconds
    // while preserving contention, refresh pressure, and the fallback
    // re-activation path.
    struct Pin
    {
        const char *scheme;
        std::uint64_t frfcfsStates;
        unsigned frfcfsWait;
    };
    const Pin pins[] = {
        {"sectored", 38326u, 89u},
        {"pra_spec_read", 33011u, 90u},
    };
    for (const Pin &pin : pins) {
        for (dram::SchedulerKind sched : dram::kAllSchedulerKinds) {
            ModelChecker::Options opts;
            opts.scheme = pin.scheme;
            opts.scheduler = sched;
            opts.overrideRanks = 1;
            opts.overrideBanks = 2;
            // Partial-read ACTs (and spec-read's second, full-row ACT
            // after an underprediction) stretch queue waits past the
            // write-optimized default bound; the raised horizon keeps
            // bounded progress armed without false positives.
            opts.livenessBound = 128;
            const ModelCheckResult res = ModelChecker(opts).run();
            EXPECT_FALSE(res.violationFound)
                << pin.scheme << " under "
                << dram::schedulerKindName(sched) << ": " << res.violation
                << "\n" << res.counterexample.serialize();
            EXPECT_FALSE(res.budgetExhausted) << pin.scheme;
            if (sched == dram::SchedulerKind::FrFcfs) {
                // Measured pins (deterministic exploration): re-pin
                // deliberately when the model or workload changes.
                EXPECT_EQ(res.statesExplored, pin.frfcfsStates)
                    << pin.scheme;
                EXPECT_EQ(res.maxRequestWait, pin.frfcfsWait)
                    << pin.scheme;
                // The read-side activation cost is visible: both new
                // schemes wait past the default liveness bound where
                // PRA on the same fold stays under it (83 cycles).
                EXPECT_GT(res.maxRequestWait,
                          ModelChecker::kDefaultLivenessBound);
            }
        }
    }
    ModelChecker::Options pra_opts;
    pra_opts.overrideRanks = 1;
    pra_opts.overrideBanks = 2;
    pra_opts.livenessBound = 128;
    const ModelCheckResult pra_res = ModelChecker(pra_opts).run();
    ASSERT_FALSE(pra_res.violationFound) << pra_res.violation;
    EXPECT_EQ(pra_res.statesExplored, 10383u);
    EXPECT_EQ(pra_res.maxRequestWait, 83u);
    EXPECT_LT(pra_res.maxRequestWait, ModelChecker::kDefaultLivenessBound);
}

TEST(SchemePlugins, FullGeometryFcfsConvergesClean)
{
    // FCFS keeps the full-geometry space tiny (no reordering breadth),
    // so the unreduced model is still covered for both new schemes.
    struct Pin
    {
        const char *scheme;
        std::uint64_t states;
        unsigned wait;
    };
    const Pin pins[] = {
        {"sectored", 139u, 60u},
        {"pra_spec_read", 268u, 69u},
    };
    for (const Pin &pin : pins) {
        ModelChecker::Options opts;
        opts.scheme = pin.scheme;
        opts.scheduler = dram::SchedulerKind::Fcfs;
        const ModelCheckResult res = ModelChecker(opts).run();
        EXPECT_FALSE(res.violationFound)
            << pin.scheme << ": " << res.violation;
        EXPECT_FALSE(res.budgetExhausted) << pin.scheme;
        EXPECT_EQ(res.statesExplored, pin.states) << pin.scheme;
        EXPECT_EQ(res.maxRequestWait, pin.wait) << pin.scheme;
    }
}

TEST(SchemePlugins, FaultedSectoredRunRoundTripsSchemeMetadata)
{
    // A counterexample found under a non-default scheme must carry the
    // scheme in its script metadata and replay under that scheme's mask
    // algebra (the replayer would mis-derive expectations otherwise).
    ModelChecker::Options opts;
    opts.scheme = "sectored";
    opts.fault = Fault::WidenAct;
    opts.overrideRanks = 1;
    opts.overrideBanks = 2;
    opts.livenessBound = 128;
    const ModelCheckResult res = ModelChecker(opts).run();
    ASSERT_TRUE(res.violationFound);
    EXPECT_NE(res.violation.find("scheme-derived"), std::string::npos)
        << res.violation;

    CommandScript parsed;
    std::string error;
    ASSERT_TRUE(
        CommandScript::parse(res.counterexample.serialize(), parsed, error))
        << error;
    EXPECT_EQ(parsed.scheme, "sectored");
    dram::DramConfig cfg = ModelChecker::modelConfig(Fault::WidenAct);
    cfg.scheme = &schemeByName(parsed.scheme);
    EXPECT_TRUE(anyContains(replayScript(parsed, cfg), "scheme-derived"));
}

TEST(SchemePlugins, ScriptSchemeMetadataDefaultsToPra)
{
    // Pre-plugin scripts carry no scheme token; parsing must default to
    // the model's historical scheme and serializing a default script
    // must not emit the token (byte-identical round trip for pinned
    // counterexamples).
    CommandScript script;
    std::string error;
    ASSERT_TRUE(CommandScript::parse("# pra-modelcheck command script v1\n"
                                     "# scheduler=frfcfs fault=none\n"
                                     "ACT 0 0 0 5\n",
                                     script, error))
        << error;
    EXPECT_EQ(script.scheme, "pra");
    EXPECT_EQ(script.serialize().find("scheme="), std::string::npos);

    script.scheme = "sectored";
    const std::string text = script.serialize();
    EXPECT_NE(text.find("scheme=sectored"), std::string::npos);
    CommandScript reparsed;
    ASSERT_TRUE(CommandScript::parse(text, reparsed, error)) << error;
    EXPECT_EQ(reparsed.scheme, "sectored");
}

// --- Distilled counterexamples ------------------------------------------

TEST(ScriptRegression, WeightedTfawBurstIsFlagged)
{
    // Five full-row activations to distinct banks of one rank, spaced at
    // exactly tRRD, inside a widened tFAW window: the fifth exceeds the
    // weighted budget of 4.0 activations while every pairwise rule
    // (tRRD, tRC) stays satisfied.
    dram::DramConfig cfg = ModelChecker::modelConfig(Fault::None);
    cfg.banksPerRank = 8;
    cfg.timing.tFaw = 10;
    const auto violations = replayText("ACT 0 0 0 10\n"
                                       "ACT 2 0 1 10\n"
                                       "ACT 4 0 2 10\n"
                                       "ACT 6 0 3 10\n"
                                       "ACT 8 0 4 10\n",
                                       cfg);
    ASSERT_EQ(violations.size(), 1u) << violations.front();
    EXPECT_TRUE(anyContains(violations, "tFAW")) << violations.front();
}

TEST(ScriptRegression, BankGroupTccdShortOkLongFlagged)
{
    // Model geometry: 4 banks in 2 groups ({0,1} and {2,3}), tCCD_S = 2,
    // tCCD_L = 4. Cross-group reads at the short spacing are legal; the
    // final same-group read at the short spacing violates tCCD_L.
    const dram::DramConfig cfg = ModelChecker::modelConfig(Fault::None);
    const auto violations = replayText("ACT 0 0 0 7\n"
                                       "ACT 2 0 2 7\n"
                                       "ACT 4 0 1 7\n"
                                       "RD 5 0 0 7 burst=2\n"
                                       "RD 7 0 2 7 burst=2\n"
                                       "RD 9 0 1 7 burst=2\n"
                                       "RD 11 0 0 7 burst=2\n",
                                       cfg);
    ASSERT_EQ(violations.size(), 1u) << violations.front();
    EXPECT_TRUE(anyContains(violations, "tCCD_L")) << violations.front();
}

TEST(ScriptRegression, RefreshCollisionsAreFlagged)
{
    // Rank 0: REF while a bank is still open. Rank 1: a legal REF
    // followed by an ACT inside its tRFC window.
    const dram::DramConfig cfg = ModelChecker::modelConfig(Fault::None);
    const auto violations = replayText("ACT 0 0 0 3\n"
                                       "REF 4 0\n"
                                       "REF 5 1\n"
                                       "ACT 7 1 0 1\n",
                                       cfg);
    // The late ACT trips both the rank-level tRFC gate and the bank's
    // actAllowed register, so it may be reported more than once.
    ASSERT_GE(violations.size(), 2u);
    EXPECT_TRUE(anyContains(violations, "REF with bank"));
    EXPECT_TRUE(anyContains(violations, "command during tRFC"));
}

TEST(ScriptRegression, MaskInvariantsCheckedOnReplay)
{
    const dram::DramConfig cfg = ModelChecker::modelConfig(Fault::None);
    // A widened ACT (mask != scheme-derived expectation) is flagged.
    auto violations = replayText(
        "ACT 0 0 0 5 partial=1 weight=0.5 mask=8f expect=0f\n", cfg);
    EXPECT_TRUE(anyContains(violations, "scheme-derived"));

    // A read served by a partially open row is flagged even when every
    // timing rule passes.
    violations = replayText("ACT 0 0 0 5 partial=1 weight=0.5 mask=0f "
                            "expect=0f\n"
                            "RD 4 0 0 5 burst=2 need=03\n",
                            cfg);
    EXPECT_TRUE(anyContains(violations, "partially open row"));

    // A write outside the open mask is flagged.
    violations = replayText("ACT 0 0 0 5 partial=1 weight=0.5 mask=0f "
                            "expect=0f\n"
                            "WR 4 0 0 5 burst=2 need=f0\n",
                            cfg);
    EXPECT_TRUE(anyContains(violations, "outside open mask"));

    // The conforming variants replay clean.
    violations = replayText("ACT 0 0 0 5 partial=1 weight=0.5 mask=0f "
                            "expect=0f\n"
                            "WR 4 0 0 5 burst=2 need=0c\n",
                            cfg);
    EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(ScriptRegression, DistilledDropCountHammerReachesThreshold)
{
    // The drop_count counterexample as distilled by the explorer's
    // shrinker (3 of 15 commands): three partial-write ACTs of the
    // hammer row with no intervening mitigation. The spec shadow counts
    // every ACT — masked or not — so replay flags the third regardless
    // of the controller-side fault that hid them. Pinned permanently so
    // the disturbance property stays covered even if the explorer's
    // search order changes.
    const dram::DramConfig cfg =
        ModelChecker::modelConfig(Fault::DropCount);
    const auto violations = replayText(
        "# pra-modelcheck command script v1\n"
        "# scheduler=frfcfs fault=drop_count\n"
        "ACT 0 0 0 1 partial=1 weight=0.52252252252252251 mask=0f "
        "expect=0f\n"
        "ACT 15 0 0 1 partial=1 weight=0.52252252252252251 mask=0f "
        "expect=0f\n"
        "ACT 50 0 0 1 partial=1 weight=0.28828828828828829 mask=03 "
        "expect=03\n",
        cfg);
    EXPECT_TRUE(anyContains(violations,
                            "activation count reached the disturbance "
                            "threshold 3 without mitigation"))
        << (violations.empty() ? std::string("clean") : violations.front());
}

TEST(ScriptRegression, RfmResetsDisturbanceCountOnReplay)
{
    // Two ACTs of a row, an RFM naming it as the victim, then a third
    // ACT: the mitigation resets the spec count, so the path is clean.
    // Dropping only the RFM line makes the third ACT the threshold
    // breach — the reset, not the spacing, is what the clean verdict
    // hinges on.
    const dram::DramConfig cfg = ModelChecker::modelConfig(
        Fault::None, ModelChecker::kDefaultDisturbanceThreshold);
    const char *const kActs[] = {
        "ACT 0 0 0 5\n",  "PRE 6 0 0\n",    "ACT 9 0 0 5\n",
        "PRE 15 0 0\n",   "RFM 18 0 0 5\n", "ACT 22 0 0 5\n",
    };
    std::string with_rfm, without_rfm;
    for (const char *line : kActs) {
        with_rfm += line;
        if (std::string(line).rfind("RFM", 0) != 0)
            without_rfm += line;
    }
    const auto clean = replayText(with_rfm, cfg);
    EXPECT_TRUE(clean.empty()) << clean.front();
    EXPECT_TRUE(anyContains(replayText(without_rfm, cfg),
                            "disturbance threshold"));
}

TEST(ScriptRegression, RfmRecoveryWindowBlocksTheRank)
{
    // Any command inside tRFM of an ongoing mitigation is a collision —
    // the same rule that keeps RFM and refresh from overlapping. Model
    // tRFM is 4: an ACT 2 cycles after the RFM must be flagged.
    const dram::DramConfig cfg = ModelChecker::modelConfig(
        Fault::None, ModelChecker::kDefaultDisturbanceThreshold);
    const auto violations = replayText("ACT 0 0 0 5\n"
                                       "PRE 6 0 0\n"
                                       "RFM 9 0 0 5\n"
                                       "ACT 11 0 0 5\n",
                                       cfg);
    EXPECT_TRUE(anyContains(violations, "during tRFM"))
        << (violations.empty() ? std::string("clean") : violations.front());
    // RFM against a PRAC-disabled config is itself the violation.
    EXPECT_TRUE(anyContains(
        replayText("RFM 0 0 0 5\n", ModelChecker::modelConfig(Fault::None)),
        "RFM with PRAC disabled"));
}

TEST(ScriptRegression, RfmLineRoundTripsThroughParser)
{
    CommandScript script;
    std::string error;
    ASSERT_TRUE(CommandScript::parse("RFM 18 1 2 7\n", script, error))
        << error;
    ASSERT_EQ(script.commands.size(), 1u);
    const ScriptCommand &c = script.commands.front();
    EXPECT_EQ(c.kind, dram::CheckedCommand::Kind::Rfm);
    EXPECT_EQ(c.cycle, 18u);
    EXPECT_EQ(c.rank, 1u);
    EXPECT_EQ(c.bank, 2u);
    EXPECT_EQ(c.row, 7u);
    EXPECT_NE(script.serialize().find("RFM 18 1 2 7"), std::string::npos);
    // A victim-less RFM line is malformed.
    EXPECT_FALSE(CommandScript::parse("RFM 18 1 2\n", script, error));
}

TEST(ScriptRegression, ParserRejectsMalformedScripts)
{
    CommandScript script;
    std::string error;
    EXPECT_FALSE(CommandScript::parse("FOO 0 0 0 1\n", script, error));
    EXPECT_NE(error.find("unknown command"), std::string::npos);
    EXPECT_FALSE(CommandScript::parse("ACT 0 0\n", script, error));
    EXPECT_FALSE(
        CommandScript::parse("ACT 0 0 0 1 bogus=1\n", script, error));
    EXPECT_FALSE(
        CommandScript::parse("ACT 0 0 0 1 mask=zz\n", script, error));
}

} // namespace
} // namespace pra::analysis
