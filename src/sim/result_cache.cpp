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

// --- Writing the serialized rows -----------------------------------------

void
put(std::ostream &os, std::uint64_t v)
{
    os << ' ' << v;
}

void
put(std::ostream &os, double v)
{
    std::uint64_t u;
    static_assert(sizeof(u) == sizeof(v));
    std::memcpy(&u, &v, sizeof(u));
    os << " 0x" << std::hex << u << std::dec;
}

/** Fixed arrays and per-core vectors: the length, then the values. */
template <typename C>
    requires requires(const C &c) { c.begin(); }
void
put(std::ostream &os, const C &a)
{
    put(os, std::uint64_t{a.size()});
    for (const auto &v : a)
        put(os, v);
}

void
put(std::ostream &os, const Histogram &h)
{
    put(os, std::uint64_t{h.buckets()});
    for (std::size_t b = 0; b < h.buckets(); ++b)
        put(os, h.count(b));
}

void
put(std::ostream &os, const Summary &s)
{
    put(os, s.samples());
    put(os, s.sum());
    put(os, s.min());
    put(os, s.max());
}

void
put(std::ostream &os, const power::EnergyBreakdown &b)
{
    forEachField([&os](const char *, unsigned, double v) { put(os, v); },
                 b);
}

/**
 * Strict token-stream reader for deserialization: every row checks its
 * label, every container its length, and any failure poisons the whole
 * parse (deserializeRunResult then returns nullopt).
 */
class TokenReader
{
  public:
    explicit TokenReader(const std::string &text) : in_(text) {}

    bool ok() const { return ok_; }

    void
    expect(const char *label)
    {
        std::string tok;
        if (ok_ && (!(in_ >> tok) || tok != label))
            ok_ = false;
    }

    void
    read(std::uint64_t &v)
    {
        if (ok_ && !(in_ >> v))
            ok_ = false;
    }

    void
    read(double &v)
    {
        std::string tok;
        if (!ok_ || !(in_ >> tok) || tok.size() < 3 || tok[0] != '0' ||
            tok[1] != 'x') {
            ok_ = false;
            return;
        }
        std::uint64_t u = 0;
        std::istringstream hex(tok.substr(2));
        if (!(hex >> std::hex >> u) || !hex.eof()) {
            ok_ = false;
            return;
        }
        std::memcpy(&v, &u, sizeof(v));
    }

    template <typename T, std::size_t N>
    void
    read(std::array<T, N> &a)
    {
        if (length(N))
            for (T &v : a)
                read(v);
    }

    /** Per-core vectors: the first fixes the active-core count (1..64),
     *  and every later one must repeat it. */
    template <typename T>
    void
    read(std::vector<T> &a)
    {
        std::uint64_t n = 0;
        read(n);
        if (cores_ == 0 && n >= 1 && n <= 64)
            cores_ = n;
        if (!ok_ || n != cores_) {
            ok_ = false;
            return;
        }
        a.resize(n);
        for (T &v : a)
            read(v);
    }

    void
    read(Histogram &h)
    {
        if (!length(h.buckets()))
            return;
        for (std::size_t b = 0; b < h.buckets(); ++b) {
            std::uint64_t v = 0;
            read(v);
            h.record(b, v);
        }
    }

    void
    read(Summary &s)
    {
        std::uint64_t n = 0;
        double sum = 0.0, min = 0.0, max = 0.0;
        read(n);
        read(sum);
        read(min);
        read(max);
        s = Summary::fromRaw(n, sum, min, max);
    }

    void
    read(power::EnergyBreakdown &b)
    {
        forEachField([this](const char *, unsigned, double &v) { read(v); },
                     b);
    }

  private:
    /** Read a container length that must equal @p expected. */
    bool
    length(std::size_t expected)
    {
        std::uint64_t n = 0;
        read(n);
        if (n != expected)
            ok_ = false;
        return ok_;
    }

    std::istringstream in_;
    bool ok_ = true;
    std::uint64_t cores_ = 0;
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
    forEachField(
        [&os](const char *key, unsigned, const auto &m) {
            os << key;
            put(os, m);
            os << '\n';
        },
        res);
    os << "end\n";
    return os.str();
}

std::optional<RunResult>
deserializeRunResult(const std::string &text)
{
    TokenReader r(text);
    RunResult res;
    forEachField(
        [&r](const char *key, unsigned, auto &m) {
            r.expect(key);
            r.read(m);
        },
        res);
    r.expect("end");   // Fails the parse when the trailer is missing.
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
