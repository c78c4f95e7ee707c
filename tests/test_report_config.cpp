/**
 * @file
 * Tests for result export (JSON/CSV) and key=value configuration
 * parsing.
 */
#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>
#include <type_traits>

#include "field_perturb.h"
#include "sim/config_io.h"
#include "sim/report.h"

namespace pra::sim {
namespace {

RunResult
sampleResult()
{
    RunResult r;
    r.ipc = {0.5, 0.25};
    r.dramCycles = 1000;
    r.avgPowerMw = 1234.5;
    r.totalEnergyNj = 42.0;
    r.edp = 99.0;
    r.breakdown.actPre = 10.0;
    r.breakdown.readIo = 2.0;
    r.dramStats.readReqs = 100;
    r.dramStats.writeReqs = 50;
    r.dramStats.readRowHits = 30;
    r.dramStats.readRowMisses = 70;
    r.dramStats.actGranularity.record(1, 40);
    r.dramStats.actGranularity.record(8, 60);
    r.dirtyWords.record(1, 9);
    r.energy.acts[0] = 40;
    r.energy.acts[7] = 60;
    return r;
}

TEST(Report, JsonContainsKeyFields)
{
    const std::string json = toJson("GUPS", "PRA/relaxed", sampleResult());
    EXPECT_NE(json.find("\"workload\":\"GUPS\""), std::string::npos);
    EXPECT_NE(json.find("\"config\":\"PRA/relaxed\""), std::string::npos);
    EXPECT_NE(json.find("\"avg_power_mw\":1234.5"), std::string::npos);
    EXPECT_NE(json.find("\"ipc\":[0.5,0.25]"), std::string::npos);
    EXPECT_NE(json.find("\"read_hit_rate\":0.3"), std::string::npos);
    EXPECT_NE(json.find("\"act_granularity\":[0.4,"), std::string::npos);
    // Balanced braces/brackets (cheap well-formedness check).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

TEST(Report, CsvRowMatchesHeaderArity)
{
    const std::string header = csvHeader();
    const std::string row = toCsvRow("lbm", "Baseline", sampleResult());
    EXPECT_EQ(std::count(header.begin(), header.end(), ','),
              std::count(row.begin(), row.end(), ','));
    EXPECT_NE(row.find("lbm,Baseline,1000,"), std::string::npos);
}

TEST(Report, CsvWriterEmitsHeaderOnce)
{
    std::ostringstream os;
    CsvWriter writer(os);
    writer.add("a", "b", sampleResult());
    writer.add("c", "d", sampleResult());
    const std::string out = os.str();
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
    EXPECT_EQ(out.find("workload,"), 0u);
}

// Config-line text of a row's value (the syntax applyConfigLine parses).
template <typename T>
    requires std::is_integral_v<T>
std::string
textOf(T v)
{
    if constexpr (std::is_same_v<T, bool>)
        return v ? "true" : "false";
    else
        return std::to_string(static_cast<std::uint64_t>(v));
}

std::string
textOf(double v)
{
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

std::string
textOf(dram::AddrMapping v)
{
    return std::to_string(static_cast<int>(v));
}

std::string
textOf(dram::SchedulerKind v)
{
    return dram::schedulerKindName(v);
}

std::string
textOf(const SchemeModel *v)
{
    return v->name();
}

template <typename D>
std::string
textOf(dram::PolicyKey<D> k)
{
    switch (k.cfg.policy) {
      case dram::PagePolicy::RelaxedClose:
        return "relaxed";
      case dram::PagePolicy::RestrictedClose:
        return "restricted";
      case dram::PagePolicy::OpenPage:
        return "openpage";
    }
    return "?";
}

template <typename T>
std::string
textOf(KiB<T> k)
{
    return std::to_string(k.bytes / 1024);
}

std::string
textOf(std::string_view v)
{
    return std::string(v);
}

std::string
rowText(const SystemConfig &cfg, std::size_t row)
{
    std::string out;
    std::size_t i = 0;
    forEachField(
        [&](const char *, unsigned, const auto &m) {
            if (i++ == row)
                out = textOf(m);
        },
        cfg);
    return out;
}

TEST(ConfigIo, EverySettableKeyRoundTrips)
{
    // Driven by SystemConfig's field table: each settable row, changed
    // and written as a config line, must parse back to the same value
    // and the same canonical config.
    const SystemConfig base;
    std::size_t settable = 0;
    for (std::size_t i = 0; i < test::rowCount(base); ++i) {
        SystemConfig want = base;
        const test::PerturbedRow row = test::perturbRow(want, i);
        if (!(row.flags & kFieldSettable))
            continue;
        ++settable;
        ASSERT_TRUE(row.changed) << row.key;
        const std::string text = rowText(want, i);
        ASSERT_NE(text, rowText(base, i)) << row.key;

        SystemConfig got = base;
        ASSERT_TRUE(applyConfigLine(row.key + " = " + text, got))
            << row.key;
        EXPECT_EQ(rowText(got, i), text) << row.key;
        EXPECT_EQ(canonicalConfig(got), canonicalConfig(want)) << row.key;
    }
    EXPECT_EQ(settable, 53u);
}

TEST(EnergyCountsFields, EveryCountMovesEnergyOrPower)
{
    // Driven by EnergyCounts' field table: one more event in any row
    // (any granularity of the activation arrays) must reach the power
    // model, or its energy is silently dropped. One ECC chip, so the
    // SDS activations count too (ECC devices activate full rows).
    const dram::DramConfig d;
    const power::PowerModel model(d.power, d.chipsPerRank,
                                  d.ranksPerChannel, /*ecc_chips=*/1);
    power::EnergyCounts base;
    forEachField(
        [](const char *, unsigned, auto &m) {
            if constexpr (std::is_integral_v<std::decay_t<decltype(m)>>)
                m = 1000;
            else
                m.fill(1000);
        },
        base);
    const double total = model.energy(base).total();
    const double power = model.averagePower(base);

    // Bump element @p elem of row @p row; the key, or "" past its end.
    auto bump = [](power::EnergyCounts &c, std::size_t row,
                   std::size_t elem) {
        std::string key;
        std::size_t i = 0;
        forEachField(
            [&](const char *k, unsigned, auto &m) {
                if (i++ != row)
                    return;
                if constexpr (std::is_integral_v<
                                  std::decay_t<decltype(m)>>) {
                    if (elem == 0) {
                        ++m;
                        key = k;
                    }
                } else if (elem < m.size()) {
                    ++m[elem];
                    key = std::string(k) + "[" + std::to_string(elem) + "]";
                }
            },
            c);
        return key;
    };
    std::size_t checked = 0;
    for (std::size_t row = 0; row < test::rowCount(base); ++row) {
        for (std::size_t elem = 0;; ++elem) {
            power::EnergyCounts c = base;
            const std::string key = bump(c, row, elem);
            if (key.empty())
                break;
            ++checked;
            EXPECT_TRUE(model.energy(c).total() != total ||
                        model.averagePower(c) != power)
                << key;
        }
    }
    EXPECT_EQ(checked, 2 * 8 + 12u);
}

TEST(ConfigIo, AppliesSchemeAndPolicy)
{
    SystemConfig cfg;
    applyConfigLine("scheme = pra", cfg);
    EXPECT_EQ(cfg.dram.scheme, &schemeByName("pra"));
    applyConfigLine("scheme = halfdram+pra", cfg);
    EXPECT_EQ(cfg.dram.scheme, &schemeByName("halfdram+pra"));
    applyConfigLine("policy = restricted", cfg);
    EXPECT_EQ(cfg.dram.policy, dram::PagePolicy::RestrictedClose);
    EXPECT_EQ(cfg.dram.mapping, dram::AddrMapping::LineInterleaved);
    applyConfigLine("policy = relaxed", cfg);
    EXPECT_EQ(cfg.dram.mapping, dram::AddrMapping::RowInterleaved);
}

TEST(ConfigIo, NumericAndBooleanKeys)
{
    SystemConfig cfg;
    applyConfigLine("row_hit_cap = 6", cfg);
    applyConfigLine("read_queue = 32", cfg);
    applyConfigLine("dbi = true", cfg);
    applyConfigLine("power_down = off", cfg);
    applyConfigLine("checker = 1", cfg);
    applyConfigLine("target_instructions = 500000", cfg);
    applyConfigLine("l2_kb = 2048", cfg);
    applyConfigLine("trcd = 13", cfg);
    EXPECT_EQ(cfg.dram.rowHitCap, 6u);
    EXPECT_EQ(cfg.dram.readQueueDepth, 32u);
    EXPECT_TRUE(cfg.enableDbi);
    EXPECT_FALSE(cfg.dram.powerDownEnabled);
    EXPECT_TRUE(cfg.dram.enableChecker);
    EXPECT_EQ(cfg.targetInstructions, 500'000u);
    EXPECT_EQ(cfg.caches.l2.sizeBytes, 2048u * 1024);
    EXPECT_EQ(cfg.dram.timing.tRcd, 13u);
}

TEST(ConfigIo, CommentsAndBlanksIgnored)
{
    SystemConfig cfg;
    EXPECT_FALSE(applyConfigLine("", cfg));
    EXPECT_FALSE(applyConfigLine("   # just a comment", cfg));
    EXPECT_TRUE(applyConfigLine("row_hit_cap = 2 # inline", cfg));
    EXPECT_EQ(cfg.dram.rowHitCap, 2u);
}

TEST(ConfigIo, ErrorsAreLoud)
{
    SystemConfig cfg;
    EXPECT_THROW(applyConfigLine("no_such_key = 1", cfg),
                 std::runtime_error);
    EXPECT_THROW(applyConfigLine("scheme = quantum", cfg),
                 std::runtime_error);
    EXPECT_THROW(applyConfigLine("dbi = perhaps", cfg),
                 std::runtime_error);
    EXPECT_THROW(applyConfigLine("justakey", cfg), std::runtime_error);
}

TEST(ConfigIo, EverySchemeSpellingIsSelectableByConfigString)
{
    // A new comparator must be reachable from a config file with zero
    // code edits: every registered name, display name, and alias parses
    // straight through the registry.
    for (const SchemeModel *s : allSchemes()) {
        std::vector<std::string> spellings{s->name(), s->displayName()};
        for (const std::string &a : s->aliases())
            spellings.push_back(a);
        for (const std::string &sp : spellings) {
            SystemConfig cfg;
            applyConfigLine("scheme = " + sp, cfg);
            EXPECT_EQ(cfg.dram.scheme, s) << sp;
        }
    }
}

TEST(ConfigIo, UnknownSchemeErrorListsEveryRegisteredName)
{
    SystemConfig cfg;
    try {
        applyConfigLine("scheme = quantum", cfg);
        FAIL() << "unknown scheme must throw";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("quantum"), std::string::npos) << what;
        for (const SchemeModel *s : allSchemes())
            EXPECT_NE(what.find(s->name()), std::string::npos)
                << what << " is missing " << s->name();
    }
}

TEST(ConfigIo, StreamLoadAndDumpRoundTrip)
{
    SystemConfig cfg;
    std::istringstream in(
        "scheme = halfdram\n"
        "policy = restricted\n"
        "# tuned queues\n"
        "write_queue = 48\n");
    loadConfig(in, cfg);
    EXPECT_EQ(cfg.dram.scheme, &schemeByName("halfdram"));
    EXPECT_EQ(cfg.dram.writeQueueDepth, 48u);

    const std::string dump = dumpConfig(cfg);
    EXPECT_NE(dump.find("scheme = Half-DRAM"), std::string::npos);
    EXPECT_NE(dump.find("policy = restricted"), std::string::npos);
}

} // namespace
} // namespace pra::sim
