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
 * config names the op (the maintop-coverage lint handle). In between,
 * the open-bank scans (each rank's open-bank mask) are held to the full
 * ranks x banks scans they replaced over seeded random command runs.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
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

// --- Open-bank scans against full scans -----------------------------------
//
// The decision scans and the wake bound visit only the banks set in each
// rank's open-bank mask. The tests below drive a seeded random command
// sequence and, after every step, hold the engine to the full
// ranks x banks scan it replaced.

using BankRef = MaintenanceEngine::BankRef;

/** Records what the engine would issue; changes no state. */
struct RecordingHooks final : MaintenanceHooks
{
    std::vector<BankRef> closes, autoPres;
    std::vector<unsigned> refreshes, rfms;

    void
    issuePrecharge(unsigned r, unsigned b, Cycle) override
    {
        closes.emplace_back(r, b);
    }
    void
    issueAutoPrecharge(unsigned r, unsigned b, Cycle) override
    {
        autoPres.emplace_back(r, b);
    }
    void issueRefresh(unsigned r, Cycle) override { refreshes.push_back(r); }
    void issueRfm(unsigned r, Cycle) override { rfms.push_back(r); }
};

/** Applies each maintenance command the way the controller does. */
struct ApplyingHooks final : MaintenanceHooks
{
    BankEngine *banks;
    PracState *prac;
    unsigned closes = 0, autoPres = 0, refreshes = 0, rfms = 0;

    ApplyingHooks(BankEngine &b, PracState &p) : banks(&b), prac(&p) {}

    void
    issuePrecharge(unsigned r, unsigned b, Cycle now) override
    {
        banks->rank(r).prechargeBank(b, now);
        banks->onPrecharge(r, b);
        ++closes;
    }
    void
    issueAutoPrecharge(unsigned r, unsigned b, Cycle now) override
    {
        banks->rank(r).prechargeBank(b, now);
        banks->onPrecharge(r, b);
        ++autoPres;
    }
    void
    issueRefresh(unsigned r, Cycle now) override
    {
        banks->rank(r).refresh(now);
        ++refreshes;
    }
    void
    issueRfm(unsigned r, Cycle now) override
    {
        prac->applyRfm(r, now);
        banks->rank(r).rfm(now);
        ++rfms;
    }
};

/**
 * The wake bound as a full ranks x banks scan: every bank of every rank
 * is visited, and the refresh-ready maximum is taken over closed banks
 * as the loop goes. This is the form the open-bank scan replaced.
 */
Cycle
fullScanNextWake(const DramConfig &cfg, const BankEngine &banks,
                 const PracState *prac, Cycle now)
{
    Cycle next = kNever;
    auto consider = [&](Cycle c) {
        if (c > now && c < next)
            next = c;
    };
    for (unsigned r = 0; r < banks.numRanks(); ++r) {
        const Rank &rank = banks.rank(r);
        consider(rank.nextRefreshAt());
        if (rank.refreshing(now))
            consider(rank.refreshDoneAt());
        const bool want_maint =
            rank.refreshDue(now) || (prac && prac->alertActive(r));
        bool all_closed = true;
        Cycle refresh_ready = 0;
        for (unsigned b = 0; b < rank.numBanks(); ++b) {
            const Bank &bank = rank.bank(b);
            if (bank.autoPrechargePending())
                consider(bank.earliestPrecharge());
            if (bank.isOpen()) {
                all_closed = false;
                const bool useless = banks.openRowMatches(r, b) == 0 ||
                                     bank.hitCount() >= cfg.rowHitCap;
                if ((cfg.policy == PagePolicy::RelaxedClose && useless) ||
                    want_maint) {
                    consider(bank.earliestPrecharge());
                }
            } else {
                refresh_ready =
                    std::max(refresh_ready, bank.earliestActivate());
            }
        }
        if (rank.refreshDue(now) && all_closed && !rank.refreshing(now))
            consider(refresh_ready);
    }
    return next;
}

/**
 * Close and auto-precharge candidates as full scans in (rank, bank)
 * order, closed banks included — the order the open-bank scans must keep.
 */
std::vector<BankRef>
fullScanCloses(const DramConfig &cfg, const BankEngine &banks,
               const PracState *prac, Cycle now)
{
    std::vector<BankRef> out;
    for (unsigned r = 0; r < banks.numRanks(); ++r) {
        const Rank &rank = banks.rank(r);
        const bool want_maint =
            rank.refreshDue(now) || (prac && prac->alertActive(r));
        for (unsigned b = 0; b < rank.numBanks(); ++b) {
            const Bank &bank = rank.bank(b);
            const bool useless = banks.openRowMatches(r, b) == 0 ||
                                 bank.hitCount() >= cfg.rowHitCap;
            if (bank.isOpen() && bank.canPrecharge(now) &&
                ((cfg.policy == PagePolicy::RelaxedClose && useless) ||
                 want_maint)) {
                out.emplace_back(r, b);
            }
        }
    }
    return out;
}

std::vector<BankRef>
fullScanAutoPrecharges(const BankEngine &banks, Cycle now)
{
    std::vector<BankRef> out;
    for (unsigned r = 0; r < banks.numRanks(); ++r) {
        for (unsigned b = 0; b < banks.rank(r).numBanks(); ++b) {
            const Bank &bank = banks.bank(r, b);
            if (bank.autoPrechargePending() && bank.canPrecharge(now))
                out.emplace_back(r, b);
        }
    }
    return out;
}

/** Per-run command counts, to show each path was exercised. */
struct RandomRunCounts
{
    unsigned acts = 0, columns = 0, closes = 0, autoPres = 0;
    unsigned refreshes = 0, rfms = 0;
    /** Steps with one rank drained while the other still had work. */
    unsigned drainedRankSteps = 0;
};

/**
 * Run @p steps seeded random steps (enqueue, ACT, column, PRE, auto-PRE,
 * REF, RFM, maintenance close, time advance; enqueues pause every other
 * 1000 steps so ranks drain) on a 2-rank BankEngine
 * under @p policy, PRAC on or off. After every step: each rank's
 * open-bank mask equals the one recomputed from Bank::isOpen(); the
 * per-rank queued flag equals the per-bank counters; the close and
 * auto-precharge enumerators equal their full scans; each try / step
 * method issues exactly its enumerator's first (or every) candidate; and
 * nextWakeAt equals fullScanNextWake.
 */
RandomRunCounts
runRandomMaintenance(PagePolicy policy, bool prac_on, std::uint64_t seed,
                     unsigned steps)
{
    DramConfig cfg;
    cfg.ranksPerChannel = 2;
    cfg.policy = policy;
    cfg.pracEnabled = prac_on;
    cfg.disturbanceThreshold = 4;
    cfg.pracCamEntries = 2;
    cfg.pracRecoveryWindow = 4096;

    BankEngine banks(cfg);
    PracState prac(cfg);
    ApplyingHooks apply(banks, prac);
    MaintenanceEngine maint(cfg, banks, apply);
    if (prac_on)
        maint.setPracState(&prac);
    std::deque<Request> queue, none;
    Rng rng(seed);
    RandomRunCounts counts;
    Cycle now = 0;
    const bool failed_before = ::testing::Test::HasFailure();

    auto randomBank = [&](unsigned &r, unsigned &b) {
        r = static_cast<unsigned>(rng.below(cfg.ranksPerChannel));
        b = static_cast<unsigned>(rng.below(cfg.banksPerRank));
    };

    for (unsigned step = 0; step < steps; ++step) {
        unsigned r = 0, b = 0;
        switch (rng.below(9)) {
          case 0:
          case 1: {   // Enqueue a request to a random bank and row.
            // Every other 1000 steps enqueue nothing, so ranks drain.
            if (queue.size() >= 24 || (step / 1000) % 2 == 1)
                break;
            randomBank(r, b);
            Request req;
            req.loc.rank = r;
            req.loc.bank = b;
            req.loc.row = static_cast<std::uint32_t>(rng.below(4));
            req.isWrite = rng.chance(0.3);
            req.need = rng.chance(0.5) ? WordMask::full()
                                       : WordMask::single(
                                             static_cast<unsigned>(
                                                 rng.below(8)));
            queue.push_back(req);
            banks.onEnqueue(queue.back());
            break;
          }
          case 2: {   // ACT, where the bank and rank gates allow it.
            // Mostly for a queued request's row, so its column can follow.
            std::uint32_t row = static_cast<std::uint32_t>(rng.below(4));
            if (!queue.empty() && rng.chance(0.8)) {
                const Request &req = queue[rng.below(queue.size())];
                r = req.loc.rank;
                b = req.loc.bank;
                row = req.loc.row;
            } else {
                randomBank(r, b);
            }
            Rank &rank = banks.rank(r);
            if (rank.bank(b).isOpen() || !rank.bank(b).canActivate(now) ||
                !rank.canActivate(now, 1.0) || rank.refreshing(now) ||
                rank.rfmBusy(now) || prac.alertActive(r)) {
                break;
            }
            const bool partial = rng.chance(0.5);
            const WordMask mask =
                partial ? WordMask::single(
                              static_cast<unsigned>(rng.below(8)))
                        : WordMask::full();
            rank.activateBank(b, now, row, mask, partial);
            rank.recordActivation(now, 1.0);
            if (prac_on)
                prac.onActivate(r, b, row, partial, now);
            banks.recountOpenRowMatches(r, b, queue, none);
            ++counts.acts;
            break;
          }
          case 3: {   // Column access for the oldest servable request.
            for (std::size_t i = 0; i < queue.size(); ++i) {
                Request &req = queue[i];
                Bank &bank = banks.bank(req.loc.rank, req.loc.bank);
                if (banks.probe(req) != RowProbe::Hit ||
                    bank.autoPrechargePending() || !bank.canRead(now)) {
                    continue;
                }
                bank.read(now, 4);
                bank.recordHit();
                if (policy == PagePolicy::RestrictedClose)
                    bank.setAutoPrecharge();
                banks.onDequeue(req);
                queue.erase(queue.begin() +
                            static_cast<std::ptrdiff_t>(i));
                ++counts.columns;
                break;
            }
            break;
          }
          case 4:   // Explicit PRE of a random open bank.
            randomBank(r, b);
            if (banks.bank(r, b).canPrecharge(now))
                apply.issuePrecharge(r, b, now);
            break;
          case 5:
            maint.stepAutoPrecharge(now);
            break;
          case 6:
            maint.tryRefresh(now);
            break;
          case 7:
            maint.tryRfm(now);
            break;
          default:
            maint.tryMaintenanceClose(now);
            break;
        }
        if (rng.chance(0.5))
            now += 1 + rng.below(24);

        // The mask and the per-rank counter against their sources.
        for (unsigned rr = 0; rr < banks.numRanks(); ++rr) {
            const Rank &rank = banks.rank(rr);
            std::uint64_t mask = 0;
            bool queued = false;
            for (unsigned bb = 0; bb < rank.numBanks(); ++bb) {
                if (rank.bank(bb).isOpen())
                    mask |= std::uint64_t{1} << bb;
                queued = queued || banks.queued(rr, bb) > 0;
            }
            EXPECT_EQ(rank.openBanks(), mask)
                << "step " << step << " rank " << rr;
            EXPECT_EQ(banks.anyQueuedInRank(rr), queued)
                << "step " << step << " rank " << rr;
            if (!queued && !queue.empty())
                ++counts.drainedRankSteps;
        }

        // Each try / step method against its enumerator, on a second
        // engine whose hooks only record.
        RecordingHooks rec;
        MaintenanceEngine probe(cfg, banks, rec);
        if (prac_on)
            probe.setPracState(&prac);
        const PracState *prac_ptr = prac_on ? &prac : nullptr;
        const auto closes = probe.closeCandidates(now);
        EXPECT_EQ(closes, fullScanCloses(cfg, banks, prac_ptr, now))
            << "step " << step;
        EXPECT_EQ(probe.autoPrechargeCandidates(now),
                  fullScanAutoPrecharges(banks, now))
            << "step " << step;
        EXPECT_EQ(probe.tryMaintenanceClose(now), !closes.empty());
        if (!closes.empty()) {
            EXPECT_EQ(rec.closes, std::vector<BankRef>{closes.front()})
                << "step " << step;
        }
        const auto refreshes = probe.refreshCandidates(now);
        EXPECT_EQ(probe.tryRefresh(now), !refreshes.empty());
        if (!refreshes.empty()) {
            EXPECT_EQ(rec.refreshes,
                      std::vector<unsigned>{refreshes.front()})
                << "step " << step;
        }
        const auto rfms = probe.rfmCandidates(now);
        EXPECT_EQ(probe.tryRfm(now), !rfms.empty());
        if (!rfms.empty()) {
            EXPECT_EQ(rec.rfms, std::vector<unsigned>{rfms.front()})
                << "step " << step;
        }
        if (policy == PagePolicy::RestrictedClose) {
            probe.stepAutoPrecharge(now);
            EXPECT_EQ(rec.autoPres, probe.autoPrechargeCandidates(now))
                << "step " << step;
        }
        EXPECT_EQ(probe.nextWakeAt(now),
                  fullScanNextWake(cfg, banks, prac_ptr, now))
            << "step " << step << " cycle " << now;
        if (::testing::Test::HasFailure() && !failed_before)
            break;
    }
    counts.closes = apply.closes;
    counts.autoPres = apply.autoPres;
    counts.refreshes = apply.refreshes;
    counts.rfms = apply.rfms;
    return counts;
}

void
expectOpenBankScansMatchFullScans(PagePolicy policy)
{
    for (const bool prac_on : {false, true}) {
        SCOPED_TRACE(prac_on ? "PRAC on" : "PRAC off");
        const RandomRunCounts n =
            runRandomMaintenance(policy, prac_on, 2600 + prac_on, 12000);
        // Every path the checks cover was really taken.
        EXPECT_GT(n.acts, 100u);
        EXPECT_GT(n.columns, 50u);
        EXPECT_GT(n.closes, 50u);
        EXPECT_GT(n.refreshes, 2u);
        EXPECT_GT(n.drainedRankSteps, 100u);
        if (policy == PagePolicy::RestrictedClose) {
            EXPECT_GT(n.autoPres, 10u);
        }
        if (prac_on) {
            EXPECT_GT(n.rfms, 2u);
        } else {
            EXPECT_EQ(n.rfms, 0u);
        }
    }
}

TEST(MaintenanceOps, OpenBankScansMatchFullScansRelaxedClose)
{
    expectOpenBankScansMatchFullScans(PagePolicy::RelaxedClose);
}

TEST(MaintenanceOps, OpenBankScansMatchFullScansRestrictedClose)
{
    expectOpenBankScansMatchFullScans(PagePolicy::RestrictedClose);
}

TEST(MaintenanceOps, OpenBankScansMatchFullScansOpenPage)
{
    expectOpenBankScansMatchFullScans(PagePolicy::OpenPage);
}

TEST(MaintenanceOps, BankVisitsCountOnlyOpenBanks)
{
    // The work counter behind EngineStats::maintBankVisits: a scan of an
    // all-closed engine with no refresh due visits no bank, one open
    // bank costs one visit per scan, and a due refresh over closed banks
    // reads every bank of that rank once for its tRP maximum.
    DramConfig cfg;
    cfg.ranksPerChannel = 2;
    BankEngine banks(cfg);
    NullHooks hooks;
    MaintenanceEngine maint(cfg, banks, hooks);

    (void)maint.nextWakeAt(0);
    (void)maint.closeCandidates(0);
    EXPECT_FALSE(maint.tryMaintenanceClose(0));
    EXPECT_EQ(maint.bankVisits(), 0u);

    banks.rank(1).activateBank(5, 0, 3, WordMask::full(), false);
    (void)maint.nextWakeAt(1);
    (void)maint.closeCandidates(1);
    EXPECT_EQ(maint.bankVisits(), 2u);

    banks.rank(1).prechargeBank(5, cfg.timing.tRas);
    const Cycle due = banks.rank(0).nextRefreshAt();
    ASSERT_LT(due, banks.rank(1).nextRefreshAt());
    (void)maint.nextWakeAt(due);
    EXPECT_EQ(maint.bankVisits(), 2u + cfg.banksPerRank);
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

TEST(MaintenanceOps, PracRunsBitIdenticalUnderForcedRounds)
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
