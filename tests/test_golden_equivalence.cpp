/**
 * @file
 * Golden-equivalence fingerprints for the memory controller.
 *
 * The controller decomposition (scheduler / bank-engine / bus-arbiter /
 * maintenance layers, DESIGN.md §9) promises the default FR-FCFS path
 * is *bit-identical* to the pre-refactor monolith. This test pins that
 * contract: a canned deterministic request mix is driven through a
 * standalone controller under Baseline and PRA (DDR3 relaxed close,
 * restricted close, and the DDR4-2400 bank-group preset), and the
 * FNV-1a fingerprint over every ControllerStats and EnergyCounts field
 * must equal the constants recorded against the pre-refactor controller
 * (commit 1110031). Any scheduling, timing, or accounting change on the
 * default path — however small — changes a fingerprint.
 *
 * Regenerating (only for a deliberate, documented behaviour change +
 * result-cache salt bump): run with PRA_GOLDEN_PRINT=1 and paste the
 * printed table over kGolden below.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "common/hash.h"
#include "dram/address_mapping.h"
#include "dram/controller.h"
#include "dram/presets.h"

namespace pra::dram {
namespace {

/** Fold every stats/energy field into one order-fixed FNV-1a hash. */
std::uint64_t
fingerprint(const ControllerStats &s, const power::EnergyCounts &e)
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
 * Drive a canned request mix: an LCG request stream over both ranks,
 * all banks, mixed reads and masked writes, bursty enough to trigger
 * write drains, long enough to span several refresh intervals. Every
 * arrival cycle and address is a pure function of the seed, so the
 * command-by-command trace is deterministic.
 */
std::uint64_t
runCanned(DramConfig cfg, const char *name)
{
    cfg.channels = 1;
    cfg.enableChecker = true;
    AddressMapper mapper(cfg);
    MemoryController mc(cfg, 0);

    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    auto next = [&state] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 16;
    };

    // Every gap at its longest plus twice a row cycle and a refresh per
    // request, the idle tail and one more refresh interval: a healthy
    // run ends far inside this, and a lost wake or delivery bound fails
    // here instead of spinning.
    const Timing &t = cfg.timing;
    const Cycle budget =
        600 * (99 + 2 * Cycle{t.tRc + t.tRfc}) + 3 * Cycle{t.tRefi};
    Cycle now = 0;
    unsigned issued = 0;
    std::uint64_t tag = 1;
    while (issued < 600 && now < budget) {
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
            // One to three dirty words, LCG-chosen.
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
        // Bursty arrivals: mostly back-to-back, sometimes an idle gap
        // long enough for power-down entry.
        const Cycle gap = (r % 7 == 0) ? 40 + (r >> 40) % 60 : 1 + r % 3;
        const Cycle until = now + gap;
        while (now < until)
            mc.tick(now++);
    }
    // Drain, then run through two more refresh intervals of idle time.
    const Cycle idle_end = now + 2 * cfg.timing.tRefi;
    while ((now < idle_end || mc.busy()) && now < budget) {
        mc.tick(now++);
        mc.completions().clear();
    }
    if (now >= budget) {
        ADD_FAILURE() << name << ": still busy at the " << budget
                      << "-cycle budget (" << issued
                      << " of 600 requests enqueued)";
    }

    EXPECT_TRUE(mc.checker()->clean())
        << mc.checker()->violations().front();

    power::EnergyCounts energy = mc.energyCounts();
    energy.elapsedCycles = now;
    return fingerprint(mc.stats(), energy);
}

struct GoldenCell
{
    const char *name;
    std::uint64_t expected;
};

/**
 * Fingerprints recorded against the pre-refactor monolith (the first
 * six cells) and, for schemes added after the plugin registry landed,
 * against their introducing commit. A cell's name is
 * "<registered-scheme-name>-<preset>-<policy>".
 */
constexpr GoldenCell kGolden[] = {
    {"baseline-ddr3-relaxed", 0xb2432a700e84e478ull},
    {"pra-ddr3-relaxed", 0xdf2efc895924e165ull},
    {"baseline-ddr3-restricted", 0x71394f85a4d127c0ull},
    {"pra-ddr3-restricted", 0x2e027501f7371a6dull},
    {"baseline-ddr4-relaxed", 0x603aadb6879edd99ull},
    {"pra-ddr4-relaxed", 0xf89618ae30e8c868ull},
    {"sectored-ddr3-relaxed", 0x50e31305dfb05b3dull},
    {"sectored-ddr3-restricted", 0x56f42c8d8eca0726ull},
    {"pra_spec_read-ddr3-relaxed", 0x5da6647e6b476519ull},
};

DramConfig
cellConfig(const char *name)
{
    const std::string n = name;
    DramConfig cfg;
    if (n.find("ddr4") != std::string::npos)
        cfg = ddr4_2400();
    if (n.find("restricted") != std::string::npos)
        cfg.useRestrictedClosePage();
    // The cell name's leading token is the registered scheme name.
    cfg.scheme = &schemeByName(n.substr(0, n.find("-ddr")));
    return cfg;
}

TEST(GoldenEquivalence, DefaultPathMatchesPreRefactorFingerprints)
{
    const bool print = [] {
        const char *env = std::getenv("PRA_GOLDEN_PRINT");
        return env && env[0] == '1';
    }();
    for (const GoldenCell &cell : kGolden) {
        const std::uint64_t actual =
            runCanned(cellConfig(cell.name), cell.name);
        if (print) {
            std::printf("    {\"%s\", 0x%llxull},\n", cell.name,
                        static_cast<unsigned long long>(actual));
            continue;
        }
        EXPECT_EQ(actual, cell.expected)
            << cell.name << ": default-path behaviour diverged from the "
            << "pre-refactor controller (got 0x" << std::hex << actual
            << "); if this change is deliberate, bump kResultCacheSalt "
            << "and regenerate with PRA_GOLDEN_PRINT=1";
    }
}

} // namespace
} // namespace pra::dram
