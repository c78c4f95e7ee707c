/**
 * @file
 * Tests for the repo-specific lint engine (src/analysis/lint.h): each
 * rule is drilled with synthetic sources (including the "field added to
 * DramConfig without a canonicalConfig entry" scenario the lint exists
 * to catch), and the real tree under PRA_SOURCE_DIR must scan clean.
 *
 * Note: this file spells forbidden entropy patterns (rand(), ...)
 * inside drill inputs. That is safe because the entropy rule scopes
 * itself to src/ paths: pra_lint loads tests/ only as the
 * fault-coverage reference corpus.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/lint.h"

namespace pra::analysis {
namespace {

std::vector<LintIssue>
issuesOfRule(const std::vector<LintIssue> &issues, const std::string &rule)
{
    std::vector<LintIssue> out;
    for (const LintIssue &i : issues) {
        if (i.rule == rule)
            out.push_back(i);
    }
    return out;
}

std::string
joined(const std::vector<LintIssue> &issues)
{
    std::string out;
    for (const LintIssue &i : issues)
        out += i.format() + "\n";
    return out;
}

// --- Parsing helpers ----------------------------------------------------

TEST(StructFields, ExtractsDataMembersOnly)
{
    const std::string text = R"(
        /** Doc comment mentioning fakeField and rand(). */
        struct Sample
        {
            unsigned channels = 2;          //!< trailing comment
            std::uint8_t mask = 0;
            std::array<std::uint64_t, 8> acts{};
            Timing timing{};
            power::PowerParams power{};
            std::uint64_t warmup = 120'000; // digit separator
            SchemeTraits traits() const { return {}; }
            void reset() { mask = 0; }
            static constexpr int kConst = 3;
            bool operator==(const Sample &o) const = default;
        };
        struct Other { int unrelated; };
    )";
    const auto fields = structFields(text, "Sample");
    EXPECT_EQ(fields, (std::vector<std::string>{
                          "channels", "mask", "acts", "timing", "power",
                          "warmup"}));
    EXPECT_EQ(structFields(text, "Other"),
              std::vector<std::string>{"unrelated"});
    EXPECT_TRUE(structFields(text, "Missing").empty());
}

TEST(EnumMembers, ExtractsEnumeratorsSkippingInitializers)
{
    const std::string text = R"(
        enum Fault;   // forward declaration is skipped
        /** Doc mentioning FakeMember. */
        enum class Fault : unsigned
        {
            None,         //!< comment
            WidenAct = 3,
            StarveAged,
        };
        enum Plain { A, B };
    )";
    EXPECT_EQ(enumMembers(text, "Fault"),
              (std::vector<std::string>{"None", "WidenAct", "StarveAged"}));
    EXPECT_EQ(enumMembers(text, "Plain"),
              (std::vector<std::string>{"A", "B"}));
    EXPECT_TRUE(enumMembers(text, "Missing").empty());
}

TEST(FunctionBody, ExtractsDefinitionNotDeclaration)
{
    const std::string text = R"(
        std::string canonicalConfig(const SystemConfig &cfg);
        std::string canonicalConfig(const SystemConfig &cfg)
        {
            return std::to_string(cfg.dram.channels);
        }
        void other() { int canonical = 0; (void)canonical; }
    )";
    const std::string body = functionBody(text, "canonicalConfig");
    EXPECT_TRUE(containsIdentifier(body, "channels"));
    EXPECT_FALSE(containsIdentifier(body, "canonical"));
    EXPECT_TRUE(functionBody(text, "missing").empty());
}

// --- Rule: entropy ------------------------------------------------------

TEST(EntropyRule, FlagsAmbientEntropyAndClocks)
{
    const std::vector<SourceFile> files{
        {"src/dram/bad.cpp",
         "int a = rand();\n"
         "std::random_device rd;\n"
         "auto t = std::chrono::steady_clock::now();\n"
         "int fd = open(\"/dev/urandom\", 0);\n"}};
    const auto issues = issuesOfRule(lintSources(files), "entropy");
    ASSERT_EQ(issues.size(), 4u) << joined(issues);
    EXPECT_EQ(issues[0].line, 1u);
    EXPECT_EQ(issues[3].line, 4u);
}

TEST(EntropyRule, FlagsEveryDeterminismScriptPattern)
{
    // Every spelling of the determinism pattern
    //   (^|[^[:alnum:]_.])(rand|srand|rand_r|random|drand48|time|
    //   gettimeofday|clock_gettime|clock)[[:space:]]*\(
    //   | std::random_device | std::(system|steady|high_resolution)_clock
    //   | ::getentropy | /dev/u?random
    // is flagged exactly once, with any whitespace (a tab included)
    // between a call name and its '('.
    const char *const calls[] = {"rand",    "srand",        "rand_r",
                                 "random",  "drand48",      "time",
                                 "gettimeofday", "clock_gettime", "clock"};
    const char *const gaps[] = {"", " ", "\t", " \t "};
    std::vector<std::string> lines;
    for (const char *call : calls) {
        for (const char *gap : gaps) {
            lines.push_back(std::string("x = ") + call + gap + "(0);");
            lines.push_back(std::string(call) + gap + "(0);");
        }
    }
    for (const char *use : {"std::random_device rd;",
                            "auto t = std::system_clock::now();",
                            "auto t = std::steady_clock::now();",
                            "auto t = std::high_resolution_clock::now();",
                            "::getentropy(buf, 8);",
                            "open(\"/dev/urandom\", 0);",
                            "open(\"/dev/random\", 0);"})
        lines.push_back(use);

    for (const std::string &line : lines) {
        const auto issues = issuesOfRule(
            lintSources({{"src/dram/bad.cpp", line + "\n"}}), "entropy");
        EXPECT_EQ(issues.size(), 1u) << line << "\n" << joined(issues);
    }
}

TEST(EntropyRule, IgnoresCommentsAnchorsAndRngHeader)
{
    const std::vector<SourceFile> files{
        {"src/dram/ok.cpp",
         "// rand() in a comment is fine\n"
         "/* std::random_device too */\n"
         "int strand(int x);\n"          // Identifier suffix: anchored.
         "int y = strand(3);\n"
         "int ranktime(int);\n"
         "double lifetime (0.5);\n"      // `time` bounded inside words.
         "int z = obj.time();\n"},       // Member call on another object.
        {"src/common/rng.h",
         "std::uint64_t seedFromEntropy() { return rand(); }\n"}};
    const auto issues = issuesOfRule(lintSources(files), "entropy");
    EXPECT_TRUE(issues.empty()) << joined(issues);
}

// --- Rule: unordered-iteration ------------------------------------------

TEST(UnorderedIterationRule, FlagsIterationAcrossDeclaringFile)
{
    // Member declared in the header, iterated in the .cpp: names are
    // pooled across result-affecting files.
    const std::vector<SourceFile> files{
        {"src/dram/widget.h",
         "struct W { std::unordered_map<int, int> index_; };\n"},
        {"src/dram/widget.cpp",
         "void W::walk() {\n"
         "    for (auto &[k, v] : index_) { use(k, v); }\n"
         "}\n"}};
    const auto issues =
        issuesOfRule(lintSources(files), "unordered-iteration");
    ASSERT_EQ(issues.size(), 1u) << joined(issues);
    EXPECT_EQ(issues[0].file, "src/dram/widget.cpp");
    EXPECT_EQ(issues[0].line, 2u);
}

TEST(UnorderedIterationRule, SuppressionAndElementAccessAndScope)
{
    const std::vector<SourceFile> files{
        // Annotated iteration (keys sorted afterwards) is accepted.
        {"src/cache/sorted.cpp",
         "std::unordered_map<int, int> m_;\n"
         "void f() {\n"
         "    // pra-lint: unordered-ok (keys sorted before use)\n"
         "    for (auto &[k, v] : m_) keys.push_back(k);\n"
         "}\n"},
        // Iterating a mapped value (deterministic vector) is fine.
        {"src/cache/value.cpp",
         "std::unordered_map<int, std::vector<int>> byRow_;\n"
         "void g(int k) {\n"
         "    for (int line : byRow_.at(k)) use(line);\n"
         "}\n"},
        // Outside the result-affecting directories the rule is off.
        {"src/power/report.cpp",
         "std::unordered_set<int> seen_;\n"
         "void h() { for (int s : seen_) print(s); }\n"},
        // Explicit iterator walks are flagged too.
        {"src/sim/iter.cpp",
         "std::unordered_set<int> live_;\n"
         "void k() { for (auto it = live_.begin(); it != live_.end(); "
         "++it) use(*it); }\n"}};
    const auto issues =
        issuesOfRule(lintSources(files), "unordered-iteration");
    ASSERT_EQ(issues.size(), 1u) << joined(issues);
    EXPECT_EQ(issues[0].file, "src/sim/iter.cpp");
}

// --- Rule: timing-locality ----------------------------------------------

TEST(TimingLocalityRule, FlagsRawTimingUseInIssuePath)
{
    const std::vector<SourceFile> files{
        {"src/dram/controller.cpp",
         "void f(const DramConfig &cfg) {\n"
         "    Cycle gap = cfg.timing.tRcd + cfg.timing.tCcd;\n"
         "    Timing t = cfg.timing;\n"
         "}\n"},
        {"src/dram/sched/frfcfs.cpp",
         "Cycle g(const Timing &t) { return t.tRrd; }\n"}};
    const auto issues = issuesOfRule(lintSources(files), "timing-locality");
    ASSERT_EQ(issues.size(), 3u) << joined(issues);
    EXPECT_EQ(issues[0].file, "src/dram/controller.cpp");
    EXPECT_EQ(issues[0].line, 2u);
    EXPECT_EQ(issues[1].line, 3u);
    EXPECT_EQ(issues[2].file, "src/dram/sched/frfcfs.cpp");
    EXPECT_NE(issues[0].message.find("timing_tables.h"), std::string::npos);
}

TEST(TimingLocalityRule, ScopeSuppressionAndBoundedIdentifiers)
{
    const std::vector<SourceFile> files{
        // The table builder is the one place allowed raw Timing access.
        {"src/dram/timing_tables.cpp",
         "BankTables b(const Timing &t) { return {t.tRcd}; }\n"},
        // So is the independent oracle.
        {"src/dram/checker.cpp",
         "bool legal(const Timing &t) { return t.tCcd > 0; }\n"},
        // Outside src/dram the rule is off entirely.
        {"src/sim/system.cpp",
         "void s(const DramConfig &c) { use(c.timing.tRfc); }\n"},
        // Table-type identifiers and the include path are anchored:
        // `Timing` inside `TimingTables` / `timing` before `_` never
        // match word-bounded.
        {"src/dram/controller.h",
         "#include \"dram/timing_tables.h\"\n"
         "// comment mentioning timing is stripped before the scan\n"
         "struct C { TimingTables tables_; };\n"},
        // An annotated cold-path site is accepted.
        {"src/dram/rank.cpp",
         "void r(const DramConfig &cfg) {\n"
         "    // pra-lint: timing-ok (power-down exit, not issue path)\n"
         "    wake_ = now + cfg.timing.tXp;\n"
         "}\n"}};
    const auto issues = issuesOfRule(lintSources(files), "timing-locality");
    EXPECT_TRUE(issues.empty()) << joined(issues);
}

// --- Rule: scheme-locality ----------------------------------------------

TEST(SchemeLocalityRule, FlagsClosedSchemeWorldIdioms)
{
    const std::vector<SourceFile> files{
        {"src/dram/bad_dispatch.cpp",
         "void f(const DramConfig &cfg) {\n"
         "    if (cfg.scheme == Scheme::Pra) fastPath();\n"
         "    SchemeTraits t = traitsOf(cfg);\n"
         "    if (name == \"sectored\") sectorPath();\n"
         "    if (std::string(s->displayName()) != \"Half-DRAM\") other();\n"
         "}\n"}};
    const auto issues = issuesOfRule(lintSources(files), "scheme-locality");
    ASSERT_EQ(issues.size(), 4u) << joined(issues);
    EXPECT_EQ(issues[0].line, 2u);
    EXPECT_NE(issues[0].message.find("Scheme::"), std::string::npos);
    EXPECT_EQ(issues[1].line, 3u);
    EXPECT_NE(issues[1].message.find("SchemeTraits"), std::string::npos);
    EXPECT_EQ(issues[2].line, 4u);
    EXPECT_NE(issues[2].message.find("sectored"), std::string::npos);
    EXPECT_EQ(issues[3].line, 5u);
    // The fix-path is named in every diagnostic.
    for (const LintIssue &i : issues)
        EXPECT_NE(i.message.find("SchemeModel"), std::string::npos)
            << i.message;
}

TEST(SchemeLocalityRule, ScopeSuppressionAndAllowedIdioms)
{
    const std::vector<SourceFile> files{
        // The registry TU is the one place allowed to enumerate schemes.
        {"src/core/scheme.cpp",
         "const SchemeModel *legacy() { return map(Scheme::Pra); }\n"},
        // Registry lookup by name is the sanctioned selection idiom.
        {"src/sim/lookup.cpp",
         "void g(SystemConfig &c) {\n"
         "    c.dram.scheme = &schemeByName(\"sectored\");\n"
         "    c.other = findScheme(\"pra\");\n"
         "}\n"},
        // An annotated site is accepted (marker on the line above).
        {"src/analysis/compat.cpp",
         "bool h(const std::string &s) {\n"
         "    // pra-lint: scheme-ok (serialization default, not dispatch)\n"
         "    return s != \"pra\";\n"
         "}\n"},
        // SchemeModel itself is word-bounded past the `Scheme` probe,
        // and non-registered literals compare freely.
        {"src/dram/clean.cpp",
         "void k(const SchemeModel *m, const std::string &hdr) {\n"
         "    if (hdr == \"pra-result-cache v1\") use(m);\n"
         "}\n"},
        // Outside src/ the rule is off (tests drill scheme behaviour by
        // name on purpose).
        {"tests/test_drill.cpp",
         "TEST(X, Y) { EXPECT_TRUE(name == \"sectored\"); }\n"}};
    const auto issues = issuesOfRule(lintSources(files), "scheme-locality");
    EXPECT_TRUE(issues.empty()) << joined(issues);
}

// --- Rule: config-coverage ----------------------------------------------

namespace drill {

const char *const kConfigHeader =
    "struct DramConfig\n"
    "{\n"
    "    unsigned channels = 2;\n"
    "    unsigned newKnob = 1;\n"
    "};\n";

const char *const kSystemHeader =
    "struct SystemConfig\n"
    "{\n"
    "    dram::DramConfig dram{};\n"
    "    bool enableAudit = false;   // pra-lint: observational\n"
    "};\n";

std::vector<SourceFile>
files(const std::string &config_io)
{
    return {{"src/dram/config.h", kConfigHeader},
            {"src/sim/system.h", kSystemHeader},
            {"src/sim/config_io.cpp", config_io}};
}

} // namespace drill

TEST(ConfigCoverageRule, FieldMissingFromCanonicalConfigFails)
{
    // The ISSUE drill: a field added to DramConfig with a parse handler
    // but no canonicalConfig entry must fail the lint.
    const auto issues = issuesOfRule(
        lintSources(drill::files(
            "std::string canonicalConfig(const SystemConfig &cfg)\n"
            "{ return std::to_string(cfg.dram.channels); }\n"
            "void applyConfigLine(SystemConfig &c)\n"
            "{ c.dram.channels = 1; c.dram.newKnob = 2; "
            "c.enableAudit = true; }\n")),
        "config-coverage");
    ASSERT_EQ(issues.size(), 1u) << joined(issues);
    EXPECT_EQ(issues[0].file, "src/dram/config.h");
    EXPECT_NE(issues[0].message.find("newKnob"), std::string::npos);
    EXPECT_NE(issues[0].message.find("canonicalConfig"), std::string::npos);
}

TEST(ConfigCoverageRule, FieldMissingFromApplyConfigLineFails)
{
    const auto issues = issuesOfRule(
        lintSources(drill::files(
            "std::string canonicalConfig(const SystemConfig &cfg)\n"
            "{ return std::to_string(cfg.dram.channels + cfg.dram.newKnob);"
            " }\n"
            "void applyConfigLine(SystemConfig &c)\n"
            "{ c.dram.channels = 1; c.enableAudit = true; }\n")),
        "config-coverage");
    ASSERT_EQ(issues.size(), 1u) << joined(issues);
    EXPECT_NE(issues[0].message.find("newKnob"), std::string::npos);
    EXPECT_NE(issues[0].message.find("applyConfigLine"), std::string::npos);
}

TEST(ConfigCoverageRule, FullCoverageAndObservationalExemptionPass)
{
    // enableAudit is annotated observational: exempt from the canonical
    // key (it cannot affect results) but still settable from configs.
    const auto issues = issuesOfRule(
        lintSources(drill::files(
            "std::string canonicalConfig(const SystemConfig &cfg)\n"
            "{ return std::to_string(cfg.dram.channels + cfg.dram.newKnob);"
            " }\n"
            "void applyConfigLine(SystemConfig &c)\n"
            "{ c.dram.channels = 1; c.dram.newKnob = 2; "
            "c.enableAudit = true; }\n")),
        "config-coverage");
    EXPECT_TRUE(issues.empty()) << joined(issues);
}

TEST(ConfigCoverageRule, NoConfigKeyMarkerExemptsOnlyTheHandler)
{
    // A switch System sets from the environment carries no config key:
    // `pra-lint: no-config-key` on the line above exempts it from the
    // handler check, but not from the canonical key.
    const std::vector<SourceFile> files{
        {"src/dram/config.h",
         "struct DramConfig\n"
         "{\n"
         "    unsigned channels = 2;\n"
         "    // pra-lint: no-config-key\n"
         "    bool envSwitch = false;   // pra-lint: observational\n"
         "    // pra-lint: no-config-key\n"
         "    unsigned envKnob = 0;\n"
         "};\n"},
        {"src/sim/system.h", drill::kSystemHeader},
        {"src/sim/config_io.cpp",
         "std::string canonicalConfig(const SystemConfig &cfg)\n"
         "{ return std::to_string(cfg.dram.channels); }\n"
         "void applyConfigLine(SystemConfig &c)\n"
         "{ c.dram.channels = 1; c.enableAudit = true; }\n"}};
    const auto issues =
        issuesOfRule(lintSources(files), "config-coverage");
    ASSERT_EQ(issues.size(), 1u) << joined(issues);
    EXPECT_NE(issues[0].message.find("envKnob"), std::string::npos);
    EXPECT_NE(issues[0].message.find("canonicalConfig"), std::string::npos);
}

TEST(ConfigCoverageRule, MentionInsideDumpConfigDoesNotCount)
{
    // dumpConfig mentioning the field must not mask the missing handler.
    const auto issues = issuesOfRule(
        lintSources(drill::files(
            "std::string canonicalConfig(const SystemConfig &cfg)\n"
            "{ return std::to_string(cfg.dram.channels + cfg.dram.newKnob);"
            " }\n"
            "std::string dumpConfig(const SystemConfig &cfg)\n"
            "{ return std::to_string(cfg.dram.newKnob + cfg.enableAudit); "
            "}\n"
            "void applyConfigLine(SystemConfig &c)\n"
            "{ c.dram.channels = 1; c.enableAudit = true; }\n")),
        "config-coverage");
    ASSERT_EQ(issues.size(), 1u) << joined(issues);
    EXPECT_NE(issues[0].message.find("newKnob"), std::string::npos);
}

// --- Rule: energy-coverage ----------------------------------------------

TEST(EnergyCoverageRule, UnconsumedCounterFails)
{
    const std::vector<SourceFile> files{
        {"src/power/power_model.h",
         "struct EnergyCounts\n"
         "{\n"
         "    std::uint64_t readLines = 0;\n"
         "    std::uint64_t orphanCount = 0;\n"
         "};\n"},
        {"src/power/power_model.cpp",
         "double f(const EnergyCounts &c) { return 1.0 * c.readLines; }\n"},
        {"src/verify/auditor.cpp",
         "void check(const EnergyCounts &c)\n"
         "{ expect(c.readLines); expect(c.orphanCount); }\n"}};
    const auto issues = issuesOfRule(lintSources(files), "energy-coverage");
    ASSERT_EQ(issues.size(), 1u) << joined(issues);
    EXPECT_NE(issues[0].message.find("orphanCount"), std::string::npos);
    EXPECT_NE(issues[0].message.find("power_model.cpp"), std::string::npos);
}

// --- Rule: fault-coverage -----------------------------------------------

namespace faultdrill {

const char *const kCheckerHeader =
    "enum class Fault\n"
    "{\n"
    "    None,\n"
    "    WidenAct,\n"
    "    StarveAged,\n"
    "};\n";

const char *const kConfigHeader =
    "struct DramConfig\n"
    "{\n"
    "    unsigned channels = 2;\n"
    "    std::uint8_t auditFaultWidenAct = 0;\n"
    "    Cycle faultStarveAgedCycles = 0;\n"
    "    bool faultStarvesRequest(Cycle now) const { return false; }\n"
    "};\n";

std::vector<SourceFile>
files(const std::string &test_text)
{
    std::vector<SourceFile> out{
        {"src/analysis/model_checker.h", kCheckerHeader},
        {"src/dram/config.h", kConfigHeader}};
    if (!test_text.empty())
        out.push_back({"tests/test_drill.cpp", test_text});
    return out;
}

} // namespace faultdrill

TEST(FaultCoverageRule, UndrilledHookAndEnumMemberFail)
{
    // The tests corpus exercises WidenAct and its config hook but never
    // mentions StarveAged or its cycle threshold: both must be flagged,
    // at their declaration sites.
    const auto issues = issuesOfRule(
        lintSources(faultdrill::files(
            "TEST(X, Y) { o.fault = Fault::WidenAct;\n"
            "  cfg.auditFaultWidenAct = 0x80; use(Fault::None); }\n")),
        "fault-coverage");
    ASSERT_EQ(issues.size(), 2u) << joined(issues);
    EXPECT_EQ(issues[0].file, "src/analysis/model_checker.h");
    EXPECT_NE(issues[0].message.find("Fault::StarveAged"),
              std::string::npos);
    EXPECT_EQ(issues[1].file, "src/dram/config.h");
    EXPECT_NE(issues[1].message.find("faultStarveAgedCycles"),
              std::string::npos);
    EXPECT_NE(issues[1].message.find("tests/"), std::string::npos);
}

TEST(FaultCoverageRule, FullCoveragePasses)
{
    const auto issues = issuesOfRule(
        lintSources(faultdrill::files(
            "TEST(X, Y) { use(Fault::None, Fault::WidenAct,\n"
            "  Fault::StarveAged);\n"
            "  cfg.auditFaultWidenAct = 0x80;\n"
            "  cfg.faultStarveAgedCycles = 8; }\n")),
        "fault-coverage");
    EXPECT_TRUE(issues.empty()) << joined(issues);
}

TEST(FaultCoverageRule, InactiveWithoutTestsCorpus)
{
    // A src-only scan has no corpus to check against — the rule must
    // stay silent rather than flag every hook.
    const auto issues = issuesOfRule(lintSources(faultdrill::files("")),
                                     "fault-coverage");
    EXPECT_TRUE(issues.empty()) << joined(issues);
}

TEST(FaultCoverageRule, NonHookFieldsAreOutOfScope)
{
    // `channels` is uncovered by the drill corpus but is not a fault
    // hook; a mention inside a comment must not count as coverage.
    const auto issues = issuesOfRule(
        lintSources(faultdrill::files(
            "// auditFaultWidenAct faultStarveAgedCycles StarveAged\n"
            "TEST(X, Y) { use(Fault::None, Fault::WidenAct); }\n")),
        "fault-coverage");
    ASSERT_EQ(issues.size(), 3u) << joined(issues);
    for (const LintIssue &i : issues)
        EXPECT_EQ(i.message.find("channels"), std::string::npos)
            << i.message;
}

// --- Rule: maintop-coverage ---------------------------------------------

namespace maintopdrill {

/** A config_io.cpp stand-in whose canonical key names (or omits) an op. */
std::string
configIo(bool names_op)
{
    std::string body = "std::string canonicalConfig(const SystemConfig "
                       "&cfg)\n{\n    std::ostringstream os;\n";
    if (names_op)
        body += "    os << \"maint_op = scrub_patrol\" << '\\n';\n";
    body += "    return os.str();\n}\n";
    return body;
}

std::vector<SourceFile>
files(const std::string &src_text, const std::string &test_text,
      bool canonical_names_op = true)
{
    std::vector<SourceFile> out{
        {"src/dram/engine_user.cpp", src_text},
        {"src/sim/config_io.cpp", configIo(canonical_names_op)}};
    if (!test_text.empty())
        out.push_back({"tests/test_drill.cpp", test_text});
    return out;
}

const char *const kNamedCall =
    "void wire(MaintenanceEngine &maint)\n"
    "{\n"
    "    maint.registerOp(\n"
    "        \"scrub_patrol\", [](Cycle now) { return false; },\n"
    "        [](Cycle now) { return now + 1; });\n"
    "}\n";

} // namespace maintopdrill

TEST(MaintopCoverageRule, CoveredNamedOpPasses)
{
    const auto issues = issuesOfRule(
        lintSources(maintopdrill::files(
            maintopdrill::kNamedCall,
            "TEST(X, Y) { run(\"scrub_patrol\"); }\n")),
        "maintop-coverage");
    EXPECT_TRUE(issues.empty()) << joined(issues);
}

TEST(MaintopCoverageRule, UndrilledOpFlaggedAtTheCallSite)
{
    // The op is named in the canonical key but no tests/ file mentions
    // it: flagged once, at the registration line.
    const auto issues = issuesOfRule(
        lintSources(maintopdrill::files(maintopdrill::kNamedCall,
                                        "TEST(X, Y) { unrelated(); }\n")),
        "maintop-coverage");
    ASSERT_EQ(issues.size(), 1u) << joined(issues);
    EXPECT_EQ(issues[0].file, "src/dram/engine_user.cpp");
    EXPECT_EQ(issues[0].line, 3u);
    EXPECT_NE(issues[0].message.find("scrub_patrol"), std::string::npos);
    EXPECT_NE(issues[0].message.find("tests/"), std::string::npos);
}

TEST(MaintopCoverageRule, OpMissingFromCanonicalKeyFlagged)
{
    const auto issues = issuesOfRule(
        lintSources(maintopdrill::files(
            maintopdrill::kNamedCall,
            "TEST(X, Y) { run(\"scrub_patrol\"); }\n",
            /*canonical_names_op=*/false)),
        "maintop-coverage");
    ASSERT_EQ(issues.size(), 1u) << joined(issues);
    EXPECT_NE(issues[0].message.find("canonicalConfig"), std::string::npos);
}

TEST(MaintopCoverageRule, ObservationalAnnotationWaivesTheCanonicalKey)
{
    // A vetted result-neutral op opts out of the cache-key requirement
    // (but never out of the tests/ requirement).
    const char *const annotated =
        "void wire(MaintenanceEngine &maint)\n"
        "{\n"
        "    // pra-lint: observational\n"
        "    maint.registerOp(\n"
        "        \"scrub_patrol\", [](Cycle now) { return false; },\n"
        "        [](Cycle now) { return now + 1; });\n"
        "}\n";
    const auto issues = issuesOfRule(
        lintSources(maintopdrill::files(
            annotated, "TEST(X, Y) { run(\"scrub_patrol\"); }\n",
            /*canonical_names_op=*/false)),
        "maintop-coverage");
    EXPECT_TRUE(issues.empty()) << joined(issues);
}

TEST(MaintopCoverageRule, UnnamedRegistrationAlwaysFlagged)
{
    const auto issues = issuesOfRule(
        lintSources(maintopdrill::files(
            "void wire(MaintenanceEngine &maint)\n"
            "{\n"
            "    maint.registerOp([](Cycle now) { return false; });\n"
            "}\n",
            "TEST(X, Y) { everything(); }\n")),
        "maintop-coverage");
    ASSERT_EQ(issues.size(), 1u) << joined(issues);
    EXPECT_NE(issues[0].message.find("unnamed"), std::string::npos);
    EXPECT_EQ(issues[0].line, 3u);
}

TEST(MaintopCoverageRule, DeclarationsAndTestCallersAreOutOfScope)
{
    // The seam's own declarations (no member access before the name)
    // must not read as call sites, and registrations inside tests/ are
    // drills, not production ops.
    const auto issues = issuesOfRule(
        lintSources({{"src/dram/maintenance_engine.h",
                      "class MaintenanceEngine {\n"
                      "  public:\n"
                      "    void registerOp(MaintenanceOp op);\n"
                      "    void registerOp(std::string name, "
                      "MaintenanceOp op, OpWakeBound wake);\n"
                      "};\n"},
                     {"tests/test_drill.cpp",
                      "TEST(X, Y) { maint.registerOp(op); }\n"}}),
        "maintop-coverage");
    EXPECT_TRUE(issues.empty()) << joined(issues);
}

TEST(MaintopCoverageRule, TestsRequirementInactiveWithoutCorpus)
{
    // A src-only scan still enforces the canonical key but has no
    // corpus to demand drills from.
    const auto issues = issuesOfRule(
        lintSources(maintopdrill::files(maintopdrill::kNamedCall, "")),
        "maintop-coverage");
    EXPECT_TRUE(issues.empty()) << joined(issues);
}

// --- The real tree must be clean ----------------------------------------

TEST(RepoScan, SourceTreeIsLintClean)
{
#ifndef PRA_SOURCE_DIR
    GTEST_SKIP() << "PRA_SOURCE_DIR not defined";
#else
    namespace fs = std::filesystem;
    const fs::path src = fs::path(PRA_SOURCE_DIR) / "src";
    ASSERT_TRUE(fs::is_directory(src)) << src;

    // tests/ joins the scan as the fault-coverage corpus, mirroring
    // tools/pra_lint.cpp.
    std::vector<fs::path> paths;
    for (const fs::path &dir :
         {src, fs::path(PRA_SOURCE_DIR) / "tests"}) {
        if (!fs::is_directory(dir))
            continue;
        for (const fs::directory_entry &e :
             fs::recursive_directory_iterator(dir)) {
            if (!e.is_regular_file())
                continue;
            const std::string ext = e.path().extension().string();
            if (ext == ".h" || ext == ".cpp")
                paths.push_back(e.path());
        }
    }
    std::sort(paths.begin(), paths.end());
    ASSERT_GT(paths.size(), 50u);   // Sanity: the tree was actually found.

    std::vector<SourceFile> files;
    for (const fs::path &p : paths) {
        std::ifstream in(p);
        ASSERT_TRUE(in) << p;
        std::ostringstream ss;
        ss << in.rdbuf();
        std::error_code ec;
        files.push_back(
            {fs::relative(p, fs::path(PRA_SOURCE_DIR), ec).generic_string(),
             ss.str()});
    }

    const auto issues = lintSources(files);
    EXPECT_TRUE(issues.empty()) << joined(issues);

    // The scan must have really exercised the coverage rules: the
    // config, energy, and fault-coverage anchors exist in the tree.
    bool sawConfig = false, sawPower = false, sawTests = false;
    for (const SourceFile &f : files) {
        sawConfig |= f.path == "src/sim/config_io.cpp";
        sawPower |= f.path == "src/power/power_model.cpp";
        sawTests |= f.path.rfind("tests/", 0) == 0;
    }
    EXPECT_TRUE(sawConfig);
    EXPECT_TRUE(sawPower);
    EXPECT_TRUE(sawTests);
#endif
}

} // namespace
} // namespace pra::analysis
