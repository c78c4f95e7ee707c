/**
 * @file
 * Timing-constraint tests for the Bank FSM (tRCD/tRAS/tRP/tRC/tRTP/tWR,
 * PRA mask-delivery delay) and the Rank (weighted tFAW window, tRRD,
 * refresh scheduling, power-down, open-bank mask), and the BankEngine's
 * hit-bank mask under canned controller traffic. A bank opens and
 * closes only through its Rank, so the Bank tests drive bank 0 of one.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "canned_traffic.h"
#include "common/rng.h"
#include "dram/rank.h"

namespace pra::dram {
namespace {

const Timing kT{};   // DDR3-1600 defaults.
/** Default configuration; its timings are the kT defaults above. */
const DramConfig kCfg{};

TEST(Bank, ActivateThenColumnAfterTrcd)
{
    Rank r(kCfg, 0);
    Bank &b = r.bank(0);
    EXPECT_TRUE(b.canActivate(0));
    r.activateBank(0, 100, 7, WordMask::full(), false);
    EXPECT_FALSE(b.canActivate(100));   // Row open.
    EXPECT_FALSE(b.canRead(100 + kT.tRcd - 1));
    EXPECT_TRUE(b.canRead(100 + kT.tRcd));
    EXPECT_TRUE(b.canWrite(100 + kT.tRcd));
}

TEST(Bank, PartialActivationAddsMaskCycle)
{
    Rank r(kCfg, 0);
    Bank &b = r.bank(0);
    r.activateBank(0, 100, 7, WordMask::single(0), true);
    // Paper Fig. 7a: column command after tRCD + tCK.
    EXPECT_FALSE(b.canWrite(100 + kT.tRcd));
    EXPECT_TRUE(b.canWrite(100 + kT.tRcd + kT.praMaskCycles));
}

TEST(Bank, PrechargeGatedByTras)
{
    Rank r(kCfg, 0);
    Bank &b = r.bank(0);
    r.activateBank(0, 50, 3, WordMask::full(), false);
    EXPECT_FALSE(b.canPrecharge(50 + kT.tRas - 1));
    EXPECT_TRUE(b.canPrecharge(50 + kT.tRas));
}

TEST(Bank, ReadPushesPrechargeByTrtp)
{
    Rank r(kCfg, 0);
    Bank &b = r.bank(0);
    r.activateBank(0, 0, 3, WordMask::full(), false);
    const Cycle rd = 0 + kT.tRas - 2;   // Late read.
    b.read(rd, kT.burstCycles);
    EXPECT_FALSE(b.canPrecharge(kT.tRas));
    EXPECT_TRUE(b.canPrecharge(rd + kT.tRtp));
}

TEST(Bank, WritePushesPrechargeByWriteRecovery)
{
    Rank r(kCfg, 0);
    Bank &b = r.bank(0);
    r.activateBank(0, 0, 3, WordMask::full(), false);
    const Cycle wr = kT.tRcd;
    b.write(wr, kT.burstCycles);
    const Cycle expect = wr + kT.wl + kT.burstCycles + kT.tWr;
    EXPECT_FALSE(b.canPrecharge(expect - 1));
    EXPECT_TRUE(b.canPrecharge(expect));
}

TEST(Bank, RowCycleLimitsBackToBackActivations)
{
    Rank r(kCfg, 0);
    Bank &b = r.bank(0);
    r.activateBank(0, 0, 1, WordMask::full(), false);
    r.prechargeBank(0, kT.tRas);   // Earliest legal precharge.
    // tRP after PRE would allow tRAS + tRP = tRC; also gated by tRC.
    EXPECT_FALSE(b.canActivate(kT.tRas + kT.tRp - 1));
    EXPECT_TRUE(b.canActivate(kT.tRc));
}

TEST(Bank, ColumnToColumnGapTccd)
{
    Rank r(kCfg, 0);
    Bank &b = r.bank(0);
    r.activateBank(0, 0, 1, WordMask::full(), false);
    b.read(kT.tRcd, kT.burstCycles);
    EXPECT_FALSE(b.canRead(kT.tRcd + kT.tCcd - 1));
    EXPECT_TRUE(b.canRead(kT.tRcd + kT.tCcd));
}

TEST(Bank, HitCountTracksColumnAccesses)
{
    Rank r(kCfg, 0);
    Bank &b = r.bank(0);
    r.activateBank(0, 0, 1, WordMask::full(), false);
    EXPECT_EQ(b.hitCount(), 0u);
    b.recordHit();
    b.recordHit();
    EXPECT_EQ(b.hitCount(), 2u);
    r.prechargeBank(0, kT.tRas);
    EXPECT_EQ(b.hitCount(), 0u);
}

DramConfig
rankConfig()
{
    DramConfig cfg;
    return cfg;
}

TEST(Rank, TrrdGapBetweenActivations)
{
    const DramConfig cfg = rankConfig();
    Rank r(cfg, 0);
    EXPECT_TRUE(r.canActivate(100, 1.0));
    r.recordActivation(100, 1.0);
    EXPECT_FALSE(r.canActivate(100 + kT.tRrd - 1, 1.0));
    EXPECT_TRUE(r.canActivate(100 + kT.tRrd, 1.0));
}

TEST(Rank, PartialActivationsShrinkTrrd)
{
    const DramConfig cfg = rankConfig();
    Rank r(cfg, 0);
    // A 1/8-row activation (weight 3.7/22.2) relaxes the gap to the
    // 2-cycle floor.
    r.recordActivation(100, 3.7 / 22.2);
    EXPECT_FALSE(r.canActivate(101, 1.0));
    EXPECT_TRUE(r.canActivate(102, 1.0));
}

TEST(Rank, TfawLimitsFourFullActivations)
{
    const DramConfig cfg = rankConfig();
    Rank r(cfg, 0);
    // Four full-weight activations, spaced by tRRD.
    Cycle t = 1000;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(r.canActivate(t, 1.0));
        r.recordActivation(t, 1.0);
        t += kT.tRrd;
    }
    // Fifth activation must wait for the window to roll over.
    EXPECT_FALSE(r.canActivate(t, 1.0));
    EXPECT_TRUE(r.canActivate(1000 + kT.tFaw, 1.0));
}

TEST(Rank, WeightedTfawAdmitsManyPartialActivations)
{
    const DramConfig cfg = rankConfig();
    Rank r(cfg, 0);
    // Paper Section 4.1.3: partial activations relax tFAW. Weight 1/6
    // activations fit 24 to a window, not 4.
    const double w = 3.7 / 22.2;
    Cycle t = 1000;
    int admitted = 0;
    for (int i = 0; i < 30; ++i) {
        if (r.canActivate(t, w)) {
            r.recordActivation(t, w);
            ++admitted;
        }
        t += 2;
    }
    EXPECT_GT(admitted, 10);
}

TEST(Rank, RefreshScheduleAndBlocking)
{
    const DramConfig cfg = rankConfig();
    Rank r(cfg, 0);
    EXPECT_FALSE(r.refreshDue(0));
    const Cycle due = kT.tRefi;
    EXPECT_TRUE(r.refreshDue(due));
    ASSERT_TRUE(r.canRefresh(due));
    r.refresh(due);
    EXPECT_TRUE(r.refreshing(due + kT.tRfc - 1));
    EXPECT_FALSE(r.refreshing(due + kT.tRfc));
    // Banks blocked during tRFC.
    EXPECT_FALSE(r.bank(0).canActivate(due + kT.tRfc - 1));
    EXPECT_TRUE(r.bank(0).canActivate(due + kT.tRfc));
    // Next refresh scheduled one tREFI later.
    EXPECT_FALSE(r.refreshDue(due + kT.tRefi - 1));
    EXPECT_TRUE(r.refreshDue(due + kT.tRefi));
}

TEST(Rank, RefreshRequiresAllBanksClosed)
{
    const DramConfig cfg = rankConfig();
    Rank r(cfg, 0);
    r.activateBank(2, 0, 9, WordMask::full(), false);
    EXPECT_FALSE(r.canRefresh(kT.tRefi));
    r.prechargeBank(2, kT.tRas);
    // tRP must also have elapsed.
    EXPECT_FALSE(r.canRefresh(kT.tRas + kT.tRp - 1));
    EXPECT_TRUE(r.canRefresh(kT.tRc));
}

TEST(Rank, PowerDownAfterIdleThresholdAndWake)
{
    const DramConfig cfg = rankConfig();
    Rank r(cfg, 0);
    for (Cycle t = 0; t < cfg.powerDownThreshold + 1; ++t)
        r.updatePowerState(t, false);
    EXPECT_TRUE(r.poweredDown());
    EXPECT_EQ(r.powerState(cfg.powerDownThreshold + 1),
              RankState::PowerDown);
    // Queued work wakes the rank; tXP gates the next activation.
    const Cycle wake = cfg.powerDownThreshold + 5;
    r.updatePowerState(wake, true);
    EXPECT_FALSE(r.poweredDown());
    EXPECT_FALSE(r.bank(0).canActivate(wake + kT.tXp - 1));
    EXPECT_TRUE(r.bank(0).canActivate(wake + kT.tXp));
}

TEST(Rank, NoPowerDownWhenDisabled)
{
    DramConfig cfg = rankConfig();
    cfg.powerDownEnabled = false;
    Rank r(cfg, 0);
    for (Cycle t = 0; t < 100; ++t)
        r.updatePowerState(t, false);
    EXPECT_FALSE(r.poweredDown());
    EXPECT_EQ(r.powerState(100), RankState::PrechargeStandby);
}

TEST(Rank, PowerStateReflectsOpenBanks)
{
    const DramConfig cfg = rankConfig();
    Rank r(cfg, 0);
    EXPECT_EQ(r.powerState(0), RankState::PrechargeStandby);
    r.activateBank(1, 0, 4, WordMask::full(), false);
    EXPECT_EQ(r.powerState(1), RankState::ActiveStandby);
    EXPECT_FALSE(r.allBanksClosed());
}

/** The open-bank mask recomputed from every bank's own row state. */
std::uint64_t
recomputedOpenMask(const Rank &r)
{
    std::uint64_t mask = 0;
    for (unsigned b = 0; b < r.numBanks(); ++b) {
        if (r.bank(b).isOpen())
            mask |= std::uint64_t{1} << b;
    }
    return mask;
}

TEST(Rank, OpenBankMaskTracksRandomActivatePrecharge)
{
    // A seeded random ACT/PRE sequence over a 16-bank rank, timing
    // ignored (the mask follows open state, not legality): after every
    // step the mask must equal the one recomputed from Bank::isOpen(),
    // also in a copy (warm forks and model-checker states copy ranks).
    DramConfig cfg = rankConfig();
    cfg.banksPerRank = 16;
    Rank r(cfg, 0);
    Rng rng(26);
    unsigned opened = 0;
    for (Cycle now = 0; now < 4000; ++now) {
        const auto b = static_cast<unsigned>(rng.below(cfg.banksPerRank));
        if (r.bank(b).isOpen()) {
            r.prechargeBank(b, now);
        } else {
            r.activateBank(b, now, static_cast<std::uint32_t>(rng.below(8)),
                           WordMask::full(), rng.chance(0.5));
            ++opened;
        }
        ASSERT_EQ(r.openBanks(), recomputedOpenMask(r)) << "cycle " << now;
        ASSERT_EQ(r.allBanksClosed(), r.openBanks() == 0);
        if (now % 97 == 0) {
            const Rank copy = r;
            ASSERT_EQ(copy.openBanks(), recomputedOpenMask(copy));
        }
    }
    EXPECT_GT(opened, 1000u);
}

TEST(Rank, OpenBankMaskCoversEveryBankIndex)
{
    // The widest rank the mask describes: bank 63 maps to the top bit.
    DramConfig cfg = rankConfig();
    cfg.banksPerRank = Rank::kMaxBanks;
    Rank r(cfg, 0);
    r.activateBank(Rank::kMaxBanks - 1, 0, 1, WordMask::full(), false);
    r.activateBank(0, 0, 1, WordMask::full(), false);
    EXPECT_EQ(r.openBanks(), (std::uint64_t{1} << 63) | 1u);
    r.prechargeBank(Rank::kMaxBanks - 1, kT.tRas);
    EXPECT_EQ(r.openBanks(), 1u);
    r.prechargeBank(0, kT.tRas);
    EXPECT_TRUE(r.allBanksClosed());
}

TEST(Rank, RejectsMoreBanksThanTheOpenMaskHolds)
{
    DramConfig cfg = rankConfig();
    cfg.banksPerRank = Rank::kMaxBanks + 1;
    EXPECT_THROW(Rank(cfg, 0), std::invalid_argument);
}

TEST(BankEngine, HitBanksTrackOpenRowMatchesUnderEveryPagePolicy)
{
    // The canned controller traffic under each page policy, with
    // partial writes (pra) and speculative partial reads
    // (pra_spec_read): after every tick, on every rank, bit b of
    // hitBanks() is set exactly when openRowMatches(r, b) > 0, and the
    // mask lies inside the rank's open banks.
    for (const char *scheme : {"pra", "pra_spec_read"}) {
        for (const auto &[policy, name] :
             {std::pair{PagePolicy::RelaxedClose, "relaxed"},
              std::pair{PagePolicy::RestrictedClose, "restricted"},
              std::pair{PagePolicy::OpenPage, "open"}}) {
            DramConfig cfg;
            cfg.scheme = &schemeByName(scheme);
            if (policy == PagePolicy::RestrictedClose)
                cfg.useRestrictedClosePage();
            cfg.policy = policy;
            const std::string label = std::string(scheme) + "/" + name;
            test::Harness h(cfg, label);
            std::uint64_t set_bits = 0;
            std::uint64_t bad_ticks = 0;
            h.afterEachTick([&](const MemoryController &mc) {
                const BankEngine &banks = mc.bankEngine();
                bool bad = false;
                for (unsigned r = 0; r < banks.numRanks(); ++r) {
                    const std::uint64_t hits = banks.hitBanks(r);
                    set_bits += static_cast<unsigned>(std::popcount(hits));
                    bad |= (hits & ~banks.rank(r).openBanks()) != 0;
                    for (unsigned b = 0; b < cfg.banksPerRank; ++b) {
                        bad |= ((hits >> b & 1u) != 0) !=
                               (banks.openRowMatches(r, b) > 0);
                    }
                }
                if (bad && bad_ticks++ == 0)
                    ADD_FAILURE() << label << ": first wrong mask at cycle "
                                  << h.now() - 1;
            });
            test::driveCanned(h, cfg);
            EXPECT_EQ(bad_ticks, 0u) << label;
            EXPECT_GT(set_bits, 0u) << label;
        }
    }
}

} // namespace
} // namespace pra::dram
