/**
 * @file
 * Tests for the cross-layer invariant auditor (src/verify) — first at
 * the unit level with hand-fed event streams, then end-to-end: audited
 * full-system runs of every scheme must be violation free, and a
 * deliberately injected mask-widening fault in the controller
 * (DramConfig::auditFaultWidenAct) must be caught by the PRA-mask
 * invariant with a ring-buffer report.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "dram/prac.h"
#include "sim/experiment.h"
#include "verify/auditor.h"

namespace pra::verify {
namespace {

AuditConfig
praAuditConfig()
{
    dram::DramConfig d;
    d.scheme = &schemeByName("pra");
    AuditConfig ac;
    ac.scheme = d.scheme;
    ac.channels = 1;
    ac.ranksPerChannel = d.ranksPerChannel;
    ac.banksPerRank = d.banksPerRank;
    ac.power = d.power;
    ac.chipsPerRank = d.chipsPerRank;
    ac.eccChipsPerRank = d.eccChipsPerRank;
    ac.configFingerprint = 0xdeadbeef;
    return ac;
}

DramCommandEvent
actEvent(const AuditConfig &ac, bool for_write, WordMask dirty)
{
    DramCommandEvent ev;
    ev.kind = DramCommandEvent::Kind::Activate;
    ev.cycle = 100;
    ev.row = 7;
    ev.addr = 0x1000;
    ev.forWrite = for_write;
    ev.mask = ac.scheme->actMask(for_write, dirty);
    ev.partial = ac.scheme->needsMaskCycle(for_write, dirty);
    ev.granularity = ac.scheme->actGranularity(for_write, dirty);
    ev.weight = ac.scheme->actWeight(ev.granularity, ac.power);
    return ev;
}

TEST(Auditor, CleanManualWriteSequence)
{
    const AuditConfig ac = praAuditConfig();
    Auditor a(ac);

    const WordMask dirty{0x03};
    a.onWriteEnqueue({50, 0, 0, 0, 7, 0x1000, dirty, 0xff});
    a.onCommand(actEvent(ac, true, dirty));

    DramCommandEvent col;
    col.kind = DramCommandEvent::Kind::Write;
    col.cycle = 120;
    col.row = 7;
    col.addr = 0x1000;
    col.forWrite = true;
    col.mask = dirty;   // Words driven.
    col.need = dirty;   // MAT footprint.
    a.onCommand(col);

    DramCommandEvent pre;
    pre.kind = DramCommandEvent::Kind::Precharge;
    pre.cycle = 160;
    a.onCommand(pre);

    EXPECT_TRUE(a.clean()) << a.report();
    EXPECT_EQ(a.eventsAudited(), 4u);
}

TEST(Auditor, PartialReadActivationFlagged)
{
    const AuditConfig ac = praAuditConfig();
    Auditor a(ac);

    // A read activation that opened only half the MAT groups: PRA must
    // never do this (reads are full-row by construction).
    DramCommandEvent ev = actEvent(ac, false, WordMask::full());
    ev.mask = WordMask{0x0f};
    a.onCommand(ev);

    ASSERT_FALSE(a.clean());
    bool found = false;
    for (const auto &v : a.violations())
        found = found || v.find("read-full-row") != std::string::npos;
    EXPECT_TRUE(found) << a.report();
}

TEST(Auditor, WidenedWriteActivationFlagged)
{
    const AuditConfig ac = praAuditConfig();
    Auditor a(ac);

    const WordMask dirty{0x03};
    a.onWriteEnqueue({50, 0, 0, 0, 7, 0x1000, dirty, 0xff});
    DramCommandEvent ev = actEvent(ac, true, dirty);
    ev.mask |= WordMask{0x80};   // Controller opened a MAT it shouldn't.
    a.onCommand(ev);

    ASSERT_FALSE(a.clean());
    EXPECT_NE(a.violations()[0].find("mask-conformance"),
              std::string::npos);
    // The report carries the evidence: invariant table, the offending
    // masks, and the pre-violation ring buffer.
    const std::string report = a.report();
    EXPECT_NE(report.find("ring buffer"), std::string::npos);
    EXPECT_NE(report.find("config fingerprint"), std::string::npos);
    EXPECT_NE(report.find("0xdeadbeef"), std::string::npos);
}

TEST(Auditor, ColumnOutsideOpenMaskFlagged)
{
    const AuditConfig ac = praAuditConfig();
    Auditor a(ac);

    const WordMask dirty{0x03};
    a.onWriteEnqueue({50, 0, 0, 0, 7, 0x1000, dirty, 0xff});
    a.onCommand(actEvent(ac, true, dirty));

    DramCommandEvent col;
    col.kind = DramCommandEvent::Kind::Write;
    col.cycle = 120;
    col.row = 7;
    col.addr = 0x1000;
    col.forWrite = true;
    col.mask = WordMask{0x0c};
    col.need = WordMask{0x0c};   // Outside the 0x03 activation.
    a.onCommand(col);

    ASSERT_FALSE(a.clean());
    bool found = false;
    for (const auto &v : a.violations())
        found = found || v.find("within-open-mask") != std::string::npos;
    EXPECT_TRUE(found) << a.report();
}

TEST(Auditor, CommandInsideQuiescentWindowFlagged)
{
    const AuditConfig ac = praAuditConfig();
    Auditor a(ac);

    a.beginQuiescentWindow(1000, 2000);
    a.onCommand(actEvent(ac, false, WordMask::full()));
    a.endQuiescentWindow();

    ASSERT_FALSE(a.clean());
    bool found = false;
    for (const auto &v : a.violations())
        found = found || v.find("skip-quiescent") != std::string::npos;
    EXPECT_TRUE(found) << a.report();
}

TEST(Auditor, FingerprintMismatchFlagged)
{
    Auditor a(praAuditConfig());
    a.checkFingerprint("unit test", 1, 1);
    EXPECT_TRUE(a.clean());
    a.checkFingerprint("unit test", 1, 2);
    ASSERT_FALSE(a.clean());
    EXPECT_NE(a.violations()[0].find("fork-fingerprint"),
              std::string::npos);
}

TEST(Auditor, FinalizeComparesEveryCommandDrivenCount)
{
    // Every command-driven EnergyCounts row must match the shadow
    // exactly — readWordsDriven included (sectored reads drive fewer
    // words than a full line).
    power::EnergyCounts aggregate;
    Auditor clean(praAuditConfig());
    clean.finalize(aggregate);
    EXPECT_TRUE(clean.clean()) << clean.report();

    ++aggregate.readWordsDriven;
    Auditor a(praAuditConfig());
    a.finalize(aggregate);
    ASSERT_FALSE(a.clean());
    EXPECT_NE(a.violations()[0].find("power.event-conservation"),
              std::string::npos)
        << a.report();
    EXPECT_NE(a.violations()[0].find("read_words_driven"),
              std::string::npos)
        << a.report();
}

// --- PRAC count conservation (DESIGN.md §13) --------------------------

AuditConfig
pracOnConfig()
{
    // A tiny CAM so the Misra-Gries eviction path is reachable in a
    // handful of events.
    AuditConfig ac = praAuditConfig();
    ac.pracEnabled = true;
    ac.pracCamEntries = 2;
    return ac;
}

DramCommandEvent
pracAct(const AuditConfig &ac, std::uint32_t row, std::uint64_t tracked,
        Cycle cycle)
{
    DramCommandEvent ev = actEvent(ac, false, WordMask::full());
    ev.cycle = cycle;
    ev.row = row;
    ev.pracTracked = tracked;
    return ev;
}

DramCommandEvent
preEvent(Cycle cycle)
{
    DramCommandEvent ev;
    ev.kind = DramCommandEvent::Kind::Precharge;
    ev.cycle = cycle;
    return ev;
}

DramCommandEvent
rfmEvent(Cycle cycle, std::uint32_t row, std::uint64_t cleared,
         std::uint64_t tracked)
{
    DramCommandEvent ev;
    ev.kind = DramCommandEvent::Kind::Rfm;
    ev.cycle = cycle;
    ev.row = row;
    ev.pracCleared = cleared;
    ev.pracTracked = tracked;
    return ev;
}

bool
mentions(const Auditor &a, const char *needle)
{
    for (const auto &v : a.violations()) {
        if (v.find(needle) != std::string::npos)
            return true;
    }
    return false;
}

/** trackedSum == countedActs - mitigatedCount on every rank of @p prac. */
void
expectPracConserved(const dram::PracState &prac, unsigned ranks)
{
    for (unsigned r = 0; r < ranks; ++r) {
        EXPECT_EQ(prac.trackedSum(r),
                  prac.countedActs(r) - prac.mitigatedCount(r))
            << "rank " << r;
    }
}

TEST(Auditor, PracConservationCleanActRfmSequence)
{
    // Hammer one row twice, then mitigate it: the controller's reported
    // tracked sums (1, 2, then 0 after the RFM clears 2) satisfy
    // trackedSum == acts - mitigated at every step. A real PracState
    // runs the same sequence, so the reported sums are its own and the
    // identity is checked on its counters at the end.
    const AuditConfig ac = pracOnConfig();
    dram::DramConfig dc;
    dc.pracEnabled = true;
    dc.pracCamEntries = ac.pracCamEntries;
    dram::PracState prac(dc);
    Auditor a(ac);
    prac.onActivate(0, 0, 7, false, 100);
    EXPECT_EQ(prac.trackedSum(0), 1u);
    a.onCommand(pracAct(ac, 7, prac.trackedSum(0), 100));
    a.onCommand(preEvent(110));
    prac.onActivate(0, 0, 7, false, 120);
    EXPECT_EQ(prac.trackedSum(0), 2u);
    a.onCommand(pracAct(ac, 7, prac.trackedSum(0), 120));
    a.onCommand(preEvent(130));
    const dram::PracMitigation mit = prac.applyRfm(0, 150);
    EXPECT_EQ(mit.row, 7u);
    EXPECT_EQ(mit.cleared, 2u);
    a.onCommand(rfmEvent(150, mit.row, mit.cleared, prac.trackedSum(0)));
    EXPECT_TRUE(a.clean()) << a.report();

    EXPECT_EQ(prac.trackedSum(0), 0u);
    EXPECT_EQ(prac.countedActs(0), 2u);
    EXPECT_EQ(prac.mitigatedCount(0), 2u);
    expectPracConserved(prac, dc.ranksPerChannel);
}

TEST(Auditor, PracDroppedCountFlagged)
{
    // The drop_count fault shape: an ACT the controller never counted.
    // Conservation expects tracked sum 1 after the first ACT; reporting
    // 0 must trip at that very event.
    const AuditConfig ac = pracOnConfig();
    Auditor a(ac);
    a.onCommand(pracAct(ac, 7, 0, 100));
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(mentions(a, "count-conservation")) << a.report();
    EXPECT_TRUE(mentions(a, "conservation expects 1")) << a.report();
}

TEST(Auditor, PracRfmVictimMismatchFlagged)
{
    // Row 7 is twice as hot as row 9; an RFM claiming to have mitigated
    // row 9 disagrees with the replica's hottest-entry selection.
    const AuditConfig ac = pracOnConfig();
    Auditor a(ac);
    a.onCommand(pracAct(ac, 7, 1, 100));
    a.onCommand(preEvent(110));
    a.onCommand(pracAct(ac, 7, 2, 120));
    a.onCommand(preEvent(130));
    a.onCommand(pracAct(ac, 9, 3, 140));
    a.onCommand(preEvent(150));
    a.onCommand(rfmEvent(170, 9, 1, 2));
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(mentions(a, "hottest entry")) << a.report();
}

TEST(Auditor, PracCamEvictionInheritsCountAndConserves)
{
    // Three distinct rows overflow the 2-entry CAM: the eviction
    // inherits the coldest count (over-approximating the newcomer, never
    // undercounting), so the tracked sum still rises by exactly one per
    // ACT and conservation holds throughout — including a return of the
    // evicted row.
    const AuditConfig ac = pracOnConfig();
    Auditor a(ac);
    std::uint64_t tracked = 0;
    Cycle cycle = 100;
    for (std::uint32_t row : {1u, 2u, 3u, 1u}) {
        a.onCommand(pracAct(ac, row, ++tracked, cycle));
        a.onCommand(preEvent(cycle + 10));
        cycle += 20;
    }
    EXPECT_TRUE(a.clean()) << a.report();
}

TEST(Auditor, RfmWithPracDisabledFlagged)
{
    Auditor a(praAuditConfig());
    a.onCommand(rfmEvent(100, 7, 1, 0));
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(mentions(a, "PRAC disabled")) << a.report();
}

TEST(Auditor, RfmWithNothingTrackedFlagged)
{
    const AuditConfig ac = pracOnConfig();
    Auditor a(ac);
    a.onCommand(rfmEvent(100, 7, 0, 0));
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(mentions(a, "no tracked activation counts"))
        << a.report();
}

// --- End-to-end -------------------------------------------------------

sim::SystemConfig
smallConfig(const SchemeModel *scheme, bool dbi)
{
    sim::SystemConfig cfg =
        sim::makeConfig({scheme, dram::PagePolicy::RelaxedClose, dbi});
    cfg.enableAudit = true;
    cfg.caches.l2 = cache::CacheParams{256 * 1024, 8, kLineBytes};
    cfg.warmupOpsPerCore = 3000;
    cfg.targetInstructions = 40'000;
    // Scan densely enough that small runs exercise the coherence scan.
    cfg.auditScanStride = 1024;
    return cfg;
}

sim::RunResult
runAudited(const sim::SystemConfig &cfg, const sim::System **out_sys,
           std::unique_ptr<sim::System> &holder)
{
    const workloads::Mix mix{"mix", {"GUPS", "lbm", "em3d", "mcf"}};
    std::vector<std::unique_ptr<cpu::Generator>> gens;
    for (unsigned i = 0; i < mix.apps.size(); ++i)
        gens.push_back(workloads::makeGenerator(mix.apps[i], i + 1));
    holder = std::make_unique<sim::System>(cfg, std::move(gens));
    if (out_sys)
        *out_sys = holder.get();
    return holder->run();
}

TEST(AuditorEndToEnd, AuditedRunsAreCleanAcrossSchemes)
{
    const struct
    {
        const SchemeModel *scheme;
        bool dbi;
    } points[] = {
        {&schemeByName("baseline"), false}, {&schemeByName("fga"), false},
        {&schemeByName("halfdram"), false}, {&schemeByName("pra"), false},
        {&schemeByName("pra"), true},       {&schemeByName("halfdram+pra"), true},
        {&schemeByName("sds"), false},      {&schemeByName("sectored"), false},
        {&schemeByName("pra_spec_read"), false},
        {&schemeByName("pra_spec_read"), true},
    };
    for (const auto &p : points) {
        SCOPED_TRACE(std::string(p.scheme->displayName()) + std::string(p.dbi ? "/dbi"
                                                              : ""));
        std::unique_ptr<sim::System> sys;
        const sim::System *view = nullptr;
        runAudited(smallConfig(p.scheme, p.dbi), &view, sys);
        ASSERT_NE(view->auditor(), nullptr);
        EXPECT_TRUE(view->auditor()->clean()) << view->auditor()->report();
        EXPECT_GT(view->auditor()->eventsAudited(), 1000u);
        EXPECT_GT(view->auditor()->scansRun(), 0u);
    }
}

TEST(AuditorEndToEnd, PracRunAuditedCleanWithRealRfms)
{
    // An aggressive PRAC point (threshold 4, 2-entry CAM) so the run
    // issues real RFMs; the conservation invariant then audits every
    // ACT and every mitigation online against the replayed CAM.
    sim::SystemConfig cfg = smallConfig(&schemeByName("pra"), false);
    cfg.dram.pracEnabled = true;
    cfg.dram.disturbanceThreshold = 4;
    cfg.dram.pracCamEntries = 2;
    cfg.dram.pracRecoveryWindow = 4096;
    std::unique_ptr<sim::System> sys;
    const sim::System *view = nullptr;
    const sim::RunResult res = runAudited(cfg, &view, sys);
    EXPECT_GT(res.dramStats.rfms, 0u);
    ASSERT_NE(view->auditor(), nullptr);
    EXPECT_TRUE(view->auditor()->clean()) << view->auditor()->report();

    // The identity the auditor checks event by event also holds on each
    // controller's own counters at the end of the run.
    std::uint64_t counted = 0, mitigated = 0;
    for (unsigned c = 0; c < view->dram().numChannels(); ++c) {
        const dram::PracState &prac = view->dram().channel(c).prac();
        expectPracConserved(prac, cfg.dram.ranksPerChannel);
        for (unsigned r = 0; r < cfg.dram.ranksPerChannel; ++r) {
            counted += prac.countedActs(r);
            mitigated += prac.mitigatedCount(r);
        }
    }
    EXPECT_GT(counted, 0u);
    EXPECT_GT(mitigated, 0u);
}

TEST(AuditorEndToEnd, InjectedMaskWideningIsCaught)
{
    // The acceptance-criteria fault drill: a controller bug that widens
    // every partial activation by one MAT group must be caught by the
    // PRA mask-conformance invariant, with the ring-buffer report.
    sim::SystemConfig cfg = smallConfig(&schemeByName("pra"), false);
    cfg.dram.auditFaultWidenAct = 0x80;

    std::unique_ptr<sim::System> sys;
    const sim::System *view = nullptr;
    runAudited(cfg, &view, sys);

    ASSERT_NE(view->auditor(), nullptr);
    ASSERT_FALSE(view->auditor()->clean());
    const auto &stats = view->auditor()->invariants();
    const auto &mask_stat =
        stats[static_cast<std::size_t>(Invariant::ActMaskConformance)];
    EXPECT_GT(mask_stat.violations, 0u);

    const std::string report = view->auditor()->report();
    EXPECT_NE(report.find("dram.act.mask-conformance"), std::string::npos);
    EXPECT_NE(report.find("ring buffer"), std::string::npos);
    EXPECT_NE(report.find("config fingerprint"), std::string::npos);
}

TEST(AuditorEndToEnd, WidenedReadActivationCaughtUnderSpeculativeReads)
{
    // Read-side drill for the same fault hook: under a partial-reads
    // scheme a covertly widened read ACT is neither the speculative
    // read mask nor the full-row fallback, so the repurposed
    // read-activation invariant must flag it.
    sim::SystemConfig cfg = smallConfig(&schemeByName("pra_spec_read"), false);
    cfg.dram.auditFaultWidenAct = 0x80;

    std::unique_ptr<sim::System> sys;
    const sim::System *view = nullptr;
    runAudited(cfg, &view, sys);

    ASSERT_NE(view->auditor(), nullptr);
    ASSERT_FALSE(view->auditor()->clean());
    const auto &read_stat = view->auditor()->invariants()
        [static_cast<std::size_t>(Invariant::ReadFullRow)];
    EXPECT_GT(read_stat.violations, 0u);
    EXPECT_NE(view->auditor()->report().find("speculative read mask"),
              std::string::npos);
}

/** Scoped environment override (tests are single-threaded). */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        if (old) {
            had_ = true;
            old_ = old;
        }
        ::setenv(name, value, 1);
    }
    ~EnvGuard()
    {
        if (had_)
            ::setenv(name_, old_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    bool had_ = false;
    std::string old_;
};

TEST(AuditorEndToEnd, ReplayModeMatchesFastPathBitExactly)
{
    const sim::SystemConfig cfg = smallConfig(&schemeByName("pra"), true);

    std::unique_ptr<sim::System> fast_sys;
    const sim::RunResult fast = runAudited(cfg, nullptr, fast_sys);

    EnvGuard replay("PRA_AUDIT_REPLAY", "1");
    std::unique_ptr<sim::System> slow_sys;
    const sim::System *slow_view = nullptr;
    const sim::RunResult slow = runAudited(cfg, &slow_view, slow_sys);

    ASSERT_NE(slow_view->auditor(), nullptr);
    EXPECT_TRUE(slow_view->auditor()->clean())
        << slow_view->auditor()->report();
    const auto &skip_stat = slow_view->auditor()->invariants()
        [static_cast<std::size_t>(Invariant::SkipQuiescent)];
    EXPECT_GT(skip_stat.checks, 0u);

    // Replaying the skipped windows through the slow path must not
    // change a single bit of the result.
    EXPECT_EQ(fast.dramCycles, slow.dramCycles);
    EXPECT_EQ(fast.ipc, slow.ipc);
    EXPECT_EQ(fast.memReads, slow.memReads);
    EXPECT_EQ(fast.memWrites, slow.memWrites);
    EXPECT_TRUE(fast.energy == slow.energy);
    EXPECT_EQ(fast.totalEnergyNj, slow.totalEnergyNj);
    EXPECT_EQ(fast.avgPowerMw, slow.avgPowerMw);
}

TEST(AuditorEndToEnd, ForkFingerprintAudited)
{
    EnvGuard replay("PRA_AUDIT_REPLAY", "1");
    const sim::SystemConfig cfg = smallConfig(&schemeByName("pra"), false);

    const workloads::Mix mix{"mix", {"GUPS", "lbm", "em3d", "mcf"}};
    std::vector<std::unique_ptr<cpu::Generator>> gens;
    for (unsigned i = 0; i < mix.apps.size(); ++i)
        gens.push_back(workloads::makeGenerator(mix.apps[i], i + 1));
    sim::System warm(cfg, std::move(gens));
    const sim::WarmSnapshot snap = warm.exportWarmSnapshot();

    sim::System fork(cfg, snap);
    fork.run();

    ASSERT_NE(fork.auditor(), nullptr);
    EXPECT_TRUE(fork.auditor()->clean()) << fork.auditor()->report();
    const auto &fp_stat = fork.auditor()->invariants()
        [static_cast<std::size_t>(Invariant::ForkFingerprint)];
    EXPECT_GT(fp_stat.checks, 0u);
}

} // namespace
} // namespace pra::verify
