/**
 * @file
 * Golden-equivalence fingerprints for the memory controller.
 *
 * The controller decomposition (scheduler / bank-engine / bus-arbiter /
 * maintenance layers, DESIGN.md §9) promises the default FR-FCFS path
 * is *bit-identical* to the pre-refactor monolith. This test pins that
 * contract: the canned deterministic request mix (canned_traffic.h) is
 * driven through a standalone controller under Baseline and PRA (DDR3 relaxed close,
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

#include "canned_traffic.h"
#include "dram/presets.h"

namespace pra::dram {
namespace {

/** The canned mix's stats/energy fingerprint; the run must be clean. */
std::uint64_t
runCanned(const DramConfig &cfg, const char *name)
{
    const test::Outcome out = test::runCanned(cfg, name);
    EXPECT_TRUE(out.violations.empty()) << name << ": "
                                        << out.violations.front();
    return out.statsFp;
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
