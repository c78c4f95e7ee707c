/**
 * @file
 * Tests for the two-level reuse engine: warmup snapshot forking
 * (WarmSnapshot / WarmupCache) and the content-addressed persistent
 * result cache (ResultCache).
 *
 * The contract under test is absolute: every reuse level must be
 * invisible in the results. A system forked from a warm snapshot must
 * match a cold run statistic-for-statistic, a cache hit must replay the
 * stored RunResult byte-identically, and any config, workload, or salt
 * change must miss the cache.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "field_perturb.h"
#include "sim/result_cache.h"
#include "sim/runner.h"

namespace pra::sim {
namespace {

constexpr std::uint64_t kShortRun = 50'000;

SystemConfig
shortConfig(const SchemeModel *scheme)
{
    SystemConfig cfg = makeConfig(
        {scheme, dram::PagePolicy::RelaxedClose, false});
    cfg.targetInstructions = kShortRun;
    return cfg;
}

const workloads::Mix &
gupsRate()
{
    static const workloads::Mix mix{"GUPS",
                                    {"GUPS", "GUPS", "GUPS", "GUPS"}};
    return mix;
}

/// Temporary directory wired into PRA_CACHE_DIR for one test, restoring
/// the previous environment and removing the directory afterwards.
class ScopedCacheDir
{
  public:
    ScopedCacheDir()
    {
        // PID-qualified: ctest runs every test in its own process (the
        // counter restarts at 0 each time), and a parallel ctest must
        // not land two tests in the same cache directory.
        dir_ = (std::filesystem::temp_directory_path() /
                ("pra-cache-test-" + std::to_string(::getpid()) + "-" +
                 std::to_string(::testing::UnitTest::GetInstance()
                                    ->random_seed()) +
                 "-" + std::to_string(counter_++)))
                   .string();
        saveEnv("PRA_CACHE_DIR", savedDir_, hadDir_);
        saveEnv("PRA_NO_CACHE", savedNo_, hadNo_);
        setenv("PRA_CACHE_DIR", dir_.c_str(), 1);
        unsetenv("PRA_NO_CACHE");
    }

    ~ScopedCacheDir()
    {
        restoreEnv("PRA_CACHE_DIR", savedDir_, hadDir_);
        restoreEnv("PRA_NO_CACHE", savedNo_, hadNo_);
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    const std::string &dir() const { return dir_; }

  private:
    static void
    saveEnv(const char *name, std::string &saved, bool &had)
    {
        const char *v = std::getenv(name);
        had = (v != nullptr);
        if (v)
            saved = v;
    }

    static void
    restoreEnv(const char *name, const std::string &saved, bool had)
    {
        if (had)
            setenv(name, saved.c_str(), 1);
        else
            unsetenv(name);
    }

    static inline int counter_ = 0;
    std::string dir_;
    std::string savedDir_, savedNo_;
    bool hadDir_ = false, hadNo_ = false;
};

TEST(WarmSnapshot, ForkedRunMatchesColdRunBitExactly)
{
    // One warmup, three schemes forked from it — each must equal its
    // own cold run on every statistic.
    WarmupCache warm;
    for (const SchemeModel *scheme :
         {&schemeByName("baseline"), &schemeByName("pra"), &schemeByName("halfdram+pra")}) {
        SCOPED_TRACE(std::string(scheme->displayName()));
        const SystemConfig cfg = shortConfig(scheme);
        const RunResult cold = runWorkload(gupsRate(), cfg);
        const RunResult forked = runWorkload(gupsRate(), cfg, warm);
        EXPECT_TRUE(identicalResults(cold, forked));
    }
    // All three schemes agree on every warmup-relevant field, so the
    // cache must have simulated exactly one warmup.
    EXPECT_EQ(warm.computed(), 1u);
}

TEST(WarmSnapshot, ForkedRunMatchesColdWithDbiRowKeys)
{
    // The DBI row-key function captures the address mapper; a snapshot
    // must stay valid (and bit-identical) after its source System dies.
    WarmupCache warm;
    SystemConfig cfg = shortConfig(&schemeByName("pra"));
    cfg.enableDbi = true;
    const RunResult forked = runWorkload(gupsRate(), cfg, warm);
    const RunResult cold = runWorkload(gupsRate(), cfg);
    EXPECT_TRUE(identicalResults(cold, forked));
    EXPECT_GT(forked.dbiProactive + forked.memWrites, 0u);
}

TEST(WarmSnapshot, SnapshotOutlivesSourceSystem)
{
    const SystemConfig cfg = shortConfig(&schemeByName("baseline"));
    WarmSnapshot snap = [&] {
        System source(cfg, mixGenerators(gupsRate()));
        return source.exportWarmSnapshot();
    }();   // Source destroyed here.
    System forked(cfg, snap);
    const RunResult from_snapshot = forked.run();
    const RunResult cold = runWorkload(gupsRate(), cfg);
    EXPECT_TRUE(identicalResults(cold, from_snapshot));
}

TEST(WarmSnapshot, DisabledWarmupFallsBackToColdPath)
{
    WarmupCache warm;
    SystemConfig cfg = shortConfig(&schemeByName("baseline"));
    cfg.warmupOpsPerCore = 0;
    const RunResult a = runWorkload(gupsRate(), cfg, warm);
    const RunResult b = runWorkload(gupsRate(), cfg);
    EXPECT_TRUE(identicalResults(a, b));
    EXPECT_EQ(warm.computed(), 0u);
}

TEST(WarmupKey, SchemeInvariantButGeometrySensitive)
{
    const SystemConfig base = shortConfig(&schemeByName("baseline"));
    // Scheme, timing, and run-length changes must not split warmups...
    SystemConfig pra = shortConfig(&schemeByName("pra"));
    pra.targetInstructions = 123;
    pra.dram.timing.tRcd += 2;
    EXPECT_EQ(warmupKey(base, gupsRate()), warmupKey(pra, gupsRate()));
    // ...but anything the warmup path touches must.
    SystemConfig l2 = base;
    l2.caches.l2.sizeBytes *= 2;
    EXPECT_NE(warmupKey(base, gupsRate()), warmupKey(l2, gupsRate()));
    SystemConfig dbi = base;
    dbi.enableDbi = true;
    EXPECT_NE(warmupKey(base, gupsRate()), warmupKey(dbi, gupsRate()));
    SystemConfig chan = base;
    chan.dram.channels *= 2;
    EXPECT_NE(warmupKey(base, gupsRate()), warmupKey(chan, gupsRate()));
    const workloads::Mix other{"lbm", {"lbm", "lbm", "lbm", "lbm"}};
    EXPECT_NE(warmupKey(base, gupsRate()), warmupKey(base, other));
}

TEST(RunResultSerialization, RoundTripIsBitExact)
{
    const RunResult res = runWorkload(gupsRate(),
                                      shortConfig(&schemeByName("pra")));
    const std::string text = serializeRunResult(res);
    const std::optional<RunResult> back = deserializeRunResult(text);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(identicalResults(res, *back));
    EXPECT_EQ(serializeRunResult(*back), text);
}

TEST(RunResultSerialization, EveryRowIsSerializedAndRoundTrips)
{
    // Driven by RunResult's field table: a row the serialization drops
    // (or the parse skips) cannot change the text or survive the round
    // trip.
    const RunResult base = runWorkload(gupsRate(),
                                       shortConfig(&schemeByName("pra")));
    const std::string text = serializeRunResult(base);
    const std::size_t rows = test::rowCount(base);
    ASSERT_GT(rows, 40u);
    for (std::size_t i = 0; i < rows; ++i) {
        RunResult res = base;
        const test::PerturbedRow row = test::perturbRow(res, i);
        ASSERT_TRUE(row.changed) << row.key;
        const std::string changed = serializeRunResult(res);
        EXPECT_NE(changed, text) << row.key;
        const std::optional<RunResult> back = deserializeRunResult(changed);
        ASSERT_TRUE(back.has_value()) << row.key;
        EXPECT_EQ(serializeRunResult(*back), changed) << row.key;
    }
}

TEST(RunResultSerialization, RejectsCorruptedText)
{
    const RunResult res = runWorkload(gupsRate(),
                                      shortConfig(&schemeByName("baseline")));
    const std::string text = serializeRunResult(res);
    EXPECT_FALSE(deserializeRunResult("").has_value());
    EXPECT_FALSE(deserializeRunResult("garbage 1 2 3").has_value());
    // Truncation anywhere must fail, not zero-fill.
    EXPECT_FALSE(
        deserializeRunResult(text.substr(0, text.size() / 2)).has_value());
    // A stray label rename must fail the strict parse.
    std::string renamed = text;
    renamed.replace(renamed.find("mem_reads"), 9, "mem_reeds");
    EXPECT_FALSE(deserializeRunResult(renamed).has_value());
}

TEST(ResultCacheKey, SensitiveToEveryInput)
{
    const SystemConfig base = shortConfig(&schemeByName("baseline"));
    const std::string mat = resultCacheMaterial(base, gupsRate());

    SystemConfig timing = base;
    timing.dram.timing.tRcd += 1;
    EXPECT_NE(mat, resultCacheMaterial(timing, gupsRate()));

    SystemConfig power = base;
    power.dram.power.read += 1.0;
    EXPECT_NE(mat, resultCacheMaterial(power, gupsRate()));

    SystemConfig target = base;
    target.targetInstructions += 1;
    EXPECT_NE(mat, resultCacheMaterial(target, gupsRate()));

    const workloads::Mix other{"other", {"GUPS", "GUPS", "GUPS", "lbm"}};
    EXPECT_NE(mat, resultCacheMaterial(base, other));

    // The display name must NOT affect the key (it is presentation).
    workloads::Mix renamed = gupsRate();
    renamed.name = "same-apps-different-name";
    EXPECT_EQ(mat, resultCacheMaterial(base, renamed));

    // A salt bump must invalidate everything.
    EXPECT_NE(mat, resultCacheMaterial(base, gupsRate(), "v2-salt"));
}

TEST(ResultCacheKey, SensitiveToEveryConfigRowButTheObservational)
{
    // Driven by SystemConfig's field table: every row that can change
    // simulated results must reach the canonical key, and the
    // observational rows must not (forced-round and audited runs share
    // cache entries with plain ones).
    const SystemConfig base = shortConfig(&schemeByName("pra"));
    const std::string mat = resultCacheMaterial(base, gupsRate());
    const std::size_t rows = test::rowCount(base);
    ASSERT_GT(rows, 100u);
    std::vector<std::string> observational;
    for (std::size_t i = 0; i < rows; ++i) {
        SystemConfig cfg = base;
        const test::PerturbedRow row = test::perturbRow(cfg, i);
        if (!row.changed)
            continue;   // prac_op follows `prac`, drilled below.
        if (row.flags & kFieldObservational) {
            observational.push_back(row.key);
            EXPECT_EQ(mat, resultCacheMaterial(cfg, gupsRate())) << row.key;
        } else {
            EXPECT_NE(mat, resultCacheMaterial(cfg, gupsRate())) << row.key;
        }
    }
    EXPECT_EQ(observational, (std::vector<std::string>{
                                 "force_rounds", "audit",
                                 "audit_scan_stride"}));
}

TEST(ResultCacheKey, SensitiveToEveryPracKnob)
{
    // The PRAC block changes which commands issue when (RFMs steal
    // slots, recovery windows block ranks), so every knob — and the op's
    // very presence — must reach the canonical key. The seed for this
    // family was the v4 salt bump; the per-field checks keep it honest.
    const SystemConfig base = shortConfig(&schemeByName("pra"));
    const std::string mat = resultCacheMaterial(base, gupsRate());

    SystemConfig prac = base;
    prac.dram.pracEnabled = true;
    const std::string prac_mat = resultCacheMaterial(prac, gupsRate());
    EXPECT_NE(mat, prac_mat);

    const auto mutate = [&](auto &&fn) {
        SystemConfig c = prac;
        fn(c.dram);
        return resultCacheMaterial(c, gupsRate());
    };
    EXPECT_NE(prac_mat, mutate([](dram::DramConfig &d) {
                  d.disturbanceThreshold += 1;
              }));
    EXPECT_NE(prac_mat,
              mutate([](dram::DramConfig &d) { d.pracCamEntries += 1; }));
    EXPECT_NE(prac_mat, mutate([](dram::DramConfig &d) {
                  d.pracRecoveryWindow += 1;
              }));
    EXPECT_NE(prac_mat, mutate([](dram::DramConfig &d) {
                  d.faultPracDropCount = true;
              }));
    EXPECT_NE(prac_mat, mutate([](dram::DramConfig &d) {
                  d.faultPracLateRfm = true;
              }));
    EXPECT_NE(prac_mat,
              mutate([](dram::DramConfig &d) { d.timing.tRfm += 1; }));
    EXPECT_NE(prac_mat,
              mutate([](dram::DramConfig &d) { d.power.tRfm += 1; }));

    // The salt records the PRAC generation: stale v3 results can never
    // replay against this build.
    EXPECT_EQ(kResultCacheSalt, "pra-result-cache-v4");
    EXPECT_NE(mat, resultCacheMaterial(base, gupsRate(),
                                       "pra-result-cache-v3"));
}

TEST(ResultCache, StoreThenLoadIsByteIdentical)
{
    ScopedCacheDir tmp;
    const ResultCache cache = ResultCache::fromEnv();
    ASSERT_TRUE(cache.enabled());
    EXPECT_EQ(cache.dir(), tmp.dir());

    const SystemConfig cfg = shortConfig(&schemeByName("pra"));
    const RunResult res = runWorkload(gupsRate(), cfg);
    const std::string mat = resultCacheMaterial(cfg, gupsRate());

    EXPECT_FALSE(cache.load(mat).has_value());
    cache.store(mat, res);
    const std::optional<RunResult> hit = cache.load(mat);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(serializeRunResult(*hit), serializeRunResult(res));

    // A different key (salt bump) must miss, not alias.
    EXPECT_FALSE(
        cache.load(resultCacheMaterial(cfg, gupsRate(), "v2")).has_value());
}

TEST(ResultCache, CollidingHashWithDifferentMaterialMisses)
{
    ScopedCacheDir tmp;
    const ResultCache cache(tmp.dir());
    ASSERT_TRUE(cache.enabled());

    const SystemConfig cfg = shortConfig(&schemeByName("baseline"));
    const RunResult res = runWorkload(gupsRate(), cfg);
    const std::string mat = resultCacheMaterial(cfg, gupsRate());
    cache.store(mat, res);

    // Corrupt the stored entry's material in place: the loader must
    // detect the byte mismatch (as it would on a genuine FNV collision)
    // and treat the entry as a miss rather than replay a wrong result.
    std::string path;
    for (const auto &e : std::filesystem::directory_iterator(tmp.dir()))
        path = e.path().string();
    ASSERT_FALSE(path.empty());
    std::string contents;
    {
        std::ifstream in(path, std::ios::binary);
        contents.assign(std::istreambuf_iterator<char>(in), {});
    }
    const std::size_t pos = contents.find("scheme = ");
    ASSERT_NE(pos, std::string::npos);
    contents[pos] = 'X';
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << contents;
    }
    EXPECT_FALSE(cache.load(mat).has_value());
}

TEST(ResultCache, RunnerServesSecondSweepFromCache)
{
    ScopedCacheDir tmp;
    const std::vector<SweepJob> jobs = {
        {gupsRate(),
         {&schemeByName("baseline"), dram::PagePolicy::RelaxedClose, false},
         kShortRun,
         {}},
        {gupsRate(),
         {&schemeByName("pra"), dram::PagePolicy::RelaxedClose, false},
         kShortRun,
         {}},
    };

    Runner first(2);
    const std::vector<RunResult> cold = first.run(jobs);
    EXPECT_EQ(first.resultCacheHits(), 0u);
    EXPECT_EQ(first.warmupsComputed(), 1u);

    Runner second(2);
    const std::vector<RunResult> warm = second.run(jobs);
    EXPECT_EQ(second.resultCacheHits(), jobs.size());
    EXPECT_EQ(second.warmupsComputed(), 0u);   // Nothing simulated.

    ASSERT_EQ(cold.size(), warm.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        EXPECT_TRUE(identicalResults(cold[i], warm[i]));
    }
}

TEST(ResultCache, NoCacheEnvDisablesPersistence)
{
    ScopedCacheDir tmp;
    setenv("PRA_NO_CACHE", "1", 1);
    const ResultCache cache = ResultCache::fromEnv();
    EXPECT_FALSE(cache.enabled());

    // A disabled cache never loads or stores.
    const SystemConfig cfg = shortConfig(&schemeByName("baseline"));
    const std::string mat = resultCacheMaterial(cfg, gupsRate());
    cache.store(mat, RunResult{});
    EXPECT_FALSE(cache.load(mat).has_value());
    // With the cache disabled the directory is never even created.
    EXPECT_FALSE(std::filesystem::exists(tmp.dir()));
}

TEST(ResultCache, UnrecognizedNoCacheValueDisablesDefensively)
{
    ScopedCacheDir tmp;
    setenv("PRA_NO_CACHE", "maybe", 1);
    EXPECT_FALSE(ResultCache::fromEnv().enabled());
    setenv("PRA_NO_CACHE", "0", 1);
    EXPECT_TRUE(ResultCache::fromEnv().enabled());
    setenv("PRA_NO_CACHE", "false", 1);
    EXPECT_TRUE(ResultCache::fromEnv().enabled());
}

TEST(ResultCache, FnvMatchesReferenceVectors)
{
    // Published FNV-1a 64-bit test vectors.
    EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ull);
}

} // namespace
} // namespace pra::sim
