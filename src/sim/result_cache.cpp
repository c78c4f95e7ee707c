#include "sim/result_cache.h"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/hash.h"
#include "sim/config_io.h"

namespace pra::sim {

namespace {

std::uint64_t
doubleBits(double v)
{
    std::uint64_t u;
    static_assert(sizeof(u) == sizeof(v));
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

double
bitsDouble(std::uint64_t u)
{
    double v;
    std::memcpy(&v, &u, sizeof(v));
    return v;
}

void
putDouble(std::ostream &os, double v)
{
    os << "0x" << std::hex << doubleBits(v) << std::dec;
}

/**
 * Strict token-stream reader for deserialization: every labelled read
 * checks the expected label, and any failure poisons the whole parse
 * (deserializeRunResult then returns nullopt).
 */
class TokenReader
{
  public:
    explicit TokenReader(const std::string &text) : in_(text) {}

    bool ok() const { return ok_; }

    /** Read "label value" (or a bare value when label is null). */
    std::uint64_t
    u64(const char *label)
    {
        expect(label);
        std::uint64_t v = 0;
        if (ok_ && !(in_ >> v))
            ok_ = false;
        return v;
    }

    double
    f64(const char *label)
    {
        expect(label);
        if (!ok_)
            return 0.0;
        std::string tok;
        if (!(in_ >> tok) || tok.size() < 3 || tok[0] != '0' ||
            tok[1] != 'x') {
            ok_ = false;
            return 0.0;
        }
        std::uint64_t u = 0;
        std::istringstream hex(tok.substr(2));
        if (!(hex >> std::hex >> u) || !hex.eof()) {
            ok_ = false;
            return 0.0;
        }
        return bitsDouble(u);
    }

    /** Consume a bare label with no value (the "end" trailer). */
    void marker(const char *label) { expect(label); }

    /**
     * Read "label N v0 ... vN-1" where N must equal @p expected_count
     * (all serialized containers have fixed, config-independent sizes
     * except ipc/retired, whose length the caller reads first).
     */
    template <typename Fill>
    void
    u64Seq(const char *label, std::size_t expected_count, Fill fill)
    {
        const std::uint64_t n = u64(label);
        if (!ok_ || n != expected_count) {
            ok_ = false;
            return;
        }
        for (std::size_t i = 0; ok_ && i < expected_count; ++i) {
            std::uint64_t v = 0;
            if (in_ >> v)
                fill(i, v);
            else
                ok_ = false;
        }
    }

  private:
    void
    expect(const char *label)
    {
        if (!ok_ || label == nullptr)
            return;
        std::string tok;
        if (!(in_ >> tok) || tok != label)
            ok_ = false;
    }

    std::istringstream in_;
    bool ok_ = true;
};

void
warnStoreOnce(const char *what, const std::string &detail)
{
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
        std::fprintf(stderr,
                     "[pra] warning: result cache %s (%s); continuing "
                     "without persisting\n",
                     what, detail.c_str());
    }
}

/** Parse common boolean-ish env values; nullopt when unrecognized. */
std::optional<bool>
parseEnvBool(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    if (s == "1" || s == "true" || s == "yes" || s == "on")
        return true;
    if (s.empty() || s == "0" || s == "false" || s == "no" || s == "off")
        return false;
    return std::nullopt;
}

} // namespace

std::uint64_t
fnv1a(std::string_view data)
{
    return pra::fnv1a64(data);
}

std::string
workloadSpec(const workloads::Mix &mix)
{
    std::ostringstream os;
    for (std::size_t slot = 0; slot < mix.apps.size(); ++slot) {
        if (!mix.apps[slot].empty())
            os << "slot" << slot << " = " << mix.apps[slot] << '\n';
    }
    return os.str();
}

std::string
resultCacheMaterial(const SystemConfig &cfg, const workloads::Mix &mix,
                    std::string_view salt)
{
    std::string material = canonicalConfig(cfg);
    material += workloadSpec(mix);
    material += "salt = ";
    material += salt;
    material += '\n';
    return material;
}

std::string
serializeRunResult(const RunResult &res)
{
    std::ostringstream os;
    os << "ipc " << res.ipc.size();
    for (double v : res.ipc) {
        os << ' ';
        putDouble(os, v);
    }
    os << "\nretired " << res.retired.size();
    for (std::uint64_t v : res.retired)
        os << ' ' << v;
    os << "\ndram_cycles " << res.dramCycles << '\n';

    const dram::ControllerStats &s = res.dramStats;
    os << "read_reqs " << s.readReqs << '\n'
       << "write_reqs " << s.writeReqs << '\n'
       << "read_row_hits " << s.readRowHits << '\n'
       << "write_row_hits " << s.writeRowHits << '\n'
       << "read_row_misses " << s.readRowMisses << '\n'
       << "write_row_misses " << s.writeRowMisses << '\n'
       << "read_false_hits " << s.readFalseHits << '\n'
       << "write_false_hits " << s.writeFalseHits << '\n'
       << "acts_for_reads " << s.actsForReads << '\n'
       << "acts_for_writes " << s.actsForWrites << '\n'
       << "precharges " << s.precharges << '\n'
       << "refreshes " << s.refreshes << '\n'
       << "rfms " << s.rfms << '\n'
       << "forwarded_reads " << s.forwardedReads << '\n';
    os << "act_granularity " << s.actGranularity.buckets();
    for (std::size_t b = 0; b < s.actGranularity.buckets(); ++b)
        os << ' ' << s.actGranularity.count(b);
    os << "\nread_act_granularity " << s.readActGranularity.buckets();
    for (std::size_t b = 0; b < s.readActGranularity.buckets(); ++b)
        os << ' ' << s.readActGranularity.count(b);
    os << "\nread_latency " << s.readLatency.samples() << ' ';
    putDouble(os, s.readLatency.sum());
    os << ' ';
    putDouble(os, s.readLatency.min());
    os << ' ';
    putDouble(os, s.readLatency.max());
    os << '\n';

    const power::EnergyCounts &e = res.energy;
    os << "acts " << e.acts.size();
    for (std::uint64_t v : e.acts)
        os << ' ' << v;
    os << "\nacts_half " << e.actsHalfHeight.size();
    for (std::uint64_t v : e.actsHalfHeight)
        os << ' ' << v;
    os << "\nsds_acts " << e.sdsActs << '\n'
       << "sds_chips " << e.sdsChipsActivated << '\n'
       << "read_lines " << e.readLines << '\n'
       << "write_lines " << e.writeLines << '\n'
       << "write_words_driven " << e.writeWordsDriven << '\n'
       << "read_words_driven " << e.readWordsDriven << '\n'
       << "act_standby_cycles " << e.actStandbyCycles << '\n'
       << "pre_standby_cycles " << e.preStandbyCycles << '\n'
       << "power_down_cycles " << e.powerDownCycles << '\n'
       << "refresh_ops " << e.refreshOps << '\n'
       << "rfm_ops " << e.rfmOps << '\n'
       << "elapsed_cycles " << e.elapsedCycles << '\n';

    os << "dirty_words " << res.dirtyWords.buckets();
    for (std::size_t b = 0; b < res.dirtyWords.buckets(); ++b)
        os << ' ' << res.dirtyWords.count(b);
    os << "\nmem_reads " << res.memReads << '\n'
       << "mem_writes " << res.memWrites << '\n'
       << "dbi_proactive " << res.dbiProactive << '\n';

    const power::EnergyBreakdown &bd = res.breakdown;
    os << "breakdown";
    for (double v : {bd.actPre, bd.read, bd.write, bd.readIo, bd.writeIo,
                     bd.background, bd.refresh}) {
        os << ' ';
        putDouble(os, v);
    }
    os << "\navg_power_mw ";
    putDouble(os, res.avgPowerMw);
    os << "\ntotal_energy_nj ";
    putDouble(os, res.totalEnergyNj);
    os << "\nedp ";
    putDouble(os, res.edp);
    os << "\nend\n";
    return os.str();
}

std::optional<RunResult>
deserializeRunResult(const std::string &text)
{
    TokenReader r(text);
    RunResult res;

    // ipc/retired carry their own length (the active-core count); every
    // other container has a fixed size checked by u64Seq.
    const std::uint64_t cores = r.u64("ipc");
    if (!r.ok() || cores == 0 || cores > 64)
        return std::nullopt;
    res.ipc.reserve(cores);
    for (std::uint64_t i = 0; i < cores; ++i)
        res.ipc.push_back(r.f64(nullptr));
    res.retired.reserve(cores);
    r.u64Seq("retired", cores,
             [&](std::size_t, std::uint64_t v) { res.retired.push_back(v); });
    res.dramCycles = r.u64("dram_cycles");

    dram::ControllerStats &s = res.dramStats;
    s.readReqs = r.u64("read_reqs");
    s.writeReqs = r.u64("write_reqs");
    s.readRowHits = r.u64("read_row_hits");
    s.writeRowHits = r.u64("write_row_hits");
    s.readRowMisses = r.u64("read_row_misses");
    s.writeRowMisses = r.u64("write_row_misses");
    s.readFalseHits = r.u64("read_false_hits");
    s.writeFalseHits = r.u64("write_false_hits");
    s.actsForReads = r.u64("acts_for_reads");
    s.actsForWrites = r.u64("acts_for_writes");
    s.precharges = r.u64("precharges");
    s.refreshes = r.u64("refreshes");
    s.rfms = r.u64("rfms");
    s.forwardedReads = r.u64("forwarded_reads");
    r.u64Seq("act_granularity", s.actGranularity.buckets(),
             [&](std::size_t b, std::uint64_t v) {
                 s.actGranularity.record(b, v);
             });
    r.u64Seq("read_act_granularity", s.readActGranularity.buckets(),
             [&](std::size_t b, std::uint64_t v) {
                 s.readActGranularity.record(b, v);
             });
    {
        const std::uint64_t n = r.u64("read_latency");
        const double sum = r.f64(nullptr);
        const double min = r.f64(nullptr);
        const double max = r.f64(nullptr);
        s.readLatency = Summary::fromRaw(n, sum, min, max);
    }

    power::EnergyCounts &e = res.energy;
    r.u64Seq("acts", e.acts.size(),
             [&](std::size_t i, std::uint64_t v) { e.acts[i] = v; });
    r.u64Seq("acts_half", e.actsHalfHeight.size(),
             [&](std::size_t i, std::uint64_t v) { e.actsHalfHeight[i] = v; });
    e.sdsActs = r.u64("sds_acts");
    e.sdsChipsActivated = r.u64("sds_chips");
    e.readLines = r.u64("read_lines");
    e.writeLines = r.u64("write_lines");
    e.writeWordsDriven = r.u64("write_words_driven");
    e.readWordsDriven = r.u64("read_words_driven");
    e.actStandbyCycles = r.u64("act_standby_cycles");
    e.preStandbyCycles = r.u64("pre_standby_cycles");
    e.powerDownCycles = r.u64("power_down_cycles");
    e.refreshOps = r.u64("refresh_ops");
    e.rfmOps = r.u64("rfm_ops");
    e.elapsedCycles = r.u64("elapsed_cycles");

    r.u64Seq("dirty_words", res.dirtyWords.buckets(),
             [&](std::size_t b, std::uint64_t v) {
                 res.dirtyWords.record(b, v);
             });
    res.memReads = r.u64("mem_reads");
    res.memWrites = r.u64("mem_writes");
    res.dbiProactive = r.u64("dbi_proactive");

    power::EnergyBreakdown &bd = res.breakdown;
    bd.actPre = r.f64("breakdown");
    bd.read = r.f64(nullptr);
    bd.write = r.f64(nullptr);
    bd.readIo = r.f64(nullptr);
    bd.writeIo = r.f64(nullptr);
    bd.background = r.f64(nullptr);
    bd.refresh = r.f64(nullptr);
    res.avgPowerMw = r.f64("avg_power_mw");
    res.totalEnergyNj = r.f64("total_energy_nj");
    res.edp = r.f64("edp");
    r.marker("end");   // Fails the parse when the trailer is missing.

    if (!r.ok())
        return std::nullopt;
    return res;
}

bool
identicalResults(const RunResult &a, const RunResult &b)
{
    // The serialization is bit-exact and covers every simulated-result
    // field, so textual equality is exactly statistic-for-statistic bit
    // equality. RunResult::engine is deliberately outside it: the
    // engine counters describe how the simulator ran (wall-clock
    // diagnostics), not what it computed, and a forced-round run
    // (DramConfig::forceRounds) must share cache entries with, and
    // compare identical to, an event-driven one.
    return serializeRunResult(a) == serializeRunResult(b);
}

ResultCache::ResultCache(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        std::fprintf(stderr,
                     "[pra] warning: cannot create result cache directory "
                     "'%s' (%s); caching disabled\n",
                     dir.c_str(), ec.message().c_str());
        return;
    }
    dir_ = dir;
}

ResultCache
ResultCache::fromEnv()
{
    if (const char *no = std::getenv("PRA_NO_CACHE")) {
        const std::optional<bool> parsed = parseEnvBool(no);
        if (!parsed) {
            std::fprintf(stderr,
                         "[pra] warning: unrecognized PRA_NO_CACHE='%s' "
                         "(want 0/1/true/false); disabling the result "
                         "cache to be safe\n",
                         no);
            return ResultCache();
        }
        if (*parsed)
            return ResultCache();
    }

    std::string dir;
    if (const char *d = std::getenv("PRA_CACHE_DIR")) {
        if (*d == '\0') {
            std::fprintf(stderr,
                         "[pra] warning: PRA_CACHE_DIR is set but empty; "
                         "using the default cache location\n");
        } else {
            dir = d;
        }
    }
    if (dir.empty()) {
        if (const char *xdg = std::getenv("XDG_CACHE_HOME");
            xdg && *xdg != '\0') {
            dir = std::string(xdg) + "/pra";
        } else if (const char *home = std::getenv("HOME");
                   home && *home != '\0') {
            dir = std::string(home) + "/.cache/pra";
        } else {
            return ResultCache();   // Nowhere sensible to persist.
        }
    }
    return ResultCache(dir);
}

std::string
ResultCache::entryPath(const std::string &material) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.rrc",
                  static_cast<unsigned long long>(fnv1a(material)));
    return dir_ + "/" + name;
}

std::optional<RunResult>
ResultCache::load(const std::string &material) const
{
    if (!enabled())
        return std::nullopt;
    std::ifstream in(entryPath(material), std::ios::binary);
    if (!in)
        return std::nullopt;

    std::string header;
    std::getline(in, header);
    if (header != "pra-result-cache v1")
        return std::nullopt;

    // Each block is "<label> <bytes>\n" followed by exactly that many
    // raw bytes and a trailing newline.
    auto readBlock =
        [&in](const char *label) -> std::optional<std::string> {
        std::string line;
        if (!std::getline(in, line))
            return std::nullopt;
        std::istringstream ls(line);
        std::string got;
        std::size_t bytes = 0;
        if (!(ls >> got >> bytes) || got != label)
            return std::nullopt;
        std::string block(bytes, '\0');
        in.read(block.data(), static_cast<std::streamsize>(bytes));
        if (static_cast<std::size_t>(in.gcount()) != bytes ||
            in.get() != '\n')
            return std::nullopt;
        return block;
    };

    const std::optional<std::string> stored = readBlock("material");
    if (!stored || *stored != material)
        return std::nullopt;   // Unreadable or a genuine hash collision.
    const std::optional<std::string> payload = readBlock("result");
    if (!payload)
        return std::nullopt;
    return deserializeRunResult(*payload);
}

void
ResultCache::store(const std::string &material, const RunResult &res) const
{
    if (!enabled())
        return;
    const std::string path = entryPath(material);
    // Unique temp name per writer thread so concurrent stores never
    // interleave; rename() then publishes the entry atomically.
    std::ostringstream tmp_name;
    tmp_name << path << ".tmp"
             << std::hash<std::thread::id>{}(std::this_thread::get_id());
    const std::string tmp = tmp_name.str();

    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            warnStoreOnce("cannot write entry", path);
            return;
        }
        const std::string payload = serializeRunResult(res);
        out << "pra-result-cache v1\n"
            << "material " << material.size() << '\n'
            << material << '\n'
            << "result " << payload.size() << '\n'
            << payload << '\n';
        out.flush();
        if (!out) {
            warnStoreOnce("write failed", path);
            out.close();
            std::error_code ec;
            std::filesystem::remove(tmp, ec);
            return;
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        warnStoreOnce("rename failed", path + ": " + ec.message());
        std::filesystem::remove(tmp, ec);
    }
}

} // namespace pra::sim
