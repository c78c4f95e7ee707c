#include "sim/config_io.h"

#include "dram/sched/scheduler_policy.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

namespace pra::sim {

namespace {

std::string
trim(const std::string &s)
{
    const auto begin = s.find_first_not_of(" \t");
    if (begin == std::string::npos)
        return "";
    const auto end = s.find_last_not_of(" \t");
    return s.substr(begin, end - begin + 1);
}

std::string
lower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return s;
}

// --- Rendering a row into the canonical text ----------------------------

template <typename T>
    requires std::is_integral_v<T>
void
render(std::ostream &os, T v)
{
    os << static_cast<std::uint64_t>(v);
}

template <typename E>
    requires std::is_enum_v<E>
void
render(std::ostream &os, E v)
{
    os << static_cast<int>(v);
}

// Doubles are rendered as the hex of their bit pattern: bit-exact,
// locale-independent, and collision-free under any field change.
void
render(std::ostream &os, double v)
{
    std::uint64_t u;
    static_assert(sizeof(u) == sizeof(v));
    std::memcpy(&u, &v, sizeof(u));
    os << "0x" << std::hex << u << std::dec;
}

template <typename D>
void
render(std::ostream &os, dram::PolicyKey<D> k)
{
    render(os, k.cfg.policy);
}

void
render(std::ostream &os, dram::SchedulerKind v)
{
    os << dram::schedulerKindName(v);
}

void
render(std::ostream &os, const SchemeModel *v)
{
    os << v->displayName();
}

void
render(std::ostream &os, std::string_view v)
{
    os << v;
}

template <typename T>
void
renderRow(std::ostream &os, const char *key, const T &v)
{
    os << key << " = ";
    render(os, v);
    os << '\n';
}

/** An alias renders through the byte row it aliases. */
template <typename T>
void
renderRow(std::ostream &, const char *, KiB<T>)
{
}

// --- Parsing a config-line value into a row -----------------------------

void
parse(const std::string &v, unsigned &m)
{
    m = static_cast<unsigned>(std::stoul(v));
}

void
parse(const std::string &v, std::uint64_t &m)
{
    m = std::stoull(v);
}

void
parse(const std::string &v, std::uint8_t &m)
{
    m = static_cast<std::uint8_t>(std::stoul(v));
}

void
parse(const std::string &v, double &m)
{
    m = std::stod(v);
}

void
parse(const std::string &v, bool &m)
{
    const std::string s = lower(v);
    if (s == "true" || s == "1" || s == "yes" || s == "on")
        m = true;
    else if (s == "false" || s == "0" || s == "no" || s == "off")
        m = false;
    else
        throw std::runtime_error("bad boolean '" + v + "'");
}

void
parse(const std::string &v, dram::SchedulerKind &m)
{
    const std::string s = lower(v);
    if (s == "frfcfs" || s == "fr-fcfs")
        m = dram::SchedulerKind::FrFcfs;
    else if (s == "fcfs")
        m = dram::SchedulerKind::Fcfs;
    else if (s == "frfcfs_wage" || s == "frfcfs-wage")
        m = dram::SchedulerKind::FrFcfsWriteAge;
    else
        throw std::runtime_error("unknown scheduler '" + v +
                                 "' (accepted: frfcfs, fcfs, frfcfs_wage)");
}

void
parse(const std::string &v, const SchemeModel *&m)
{
    // Registry lookup; throws listing every registered name.
    m = &schemeByName(v);
}

void
parse(const std::string &v, dram::PolicyKey<dram::DramConfig> k)
{
    const std::string s = lower(v);
    dram::DramConfig &c = k.cfg;
    if (s == "relaxed") {
        c.policy = dram::PagePolicy::RelaxedClose;
        c.mapping = dram::AddrMapping::RowInterleaved;
    } else if (s == "restricted") {
        c.useRestrictedClosePage();
    } else if (s == "open" || s == "openpage") {
        c.policy = dram::PagePolicy::OpenPage;
        c.mapping = dram::AddrMapping::RowInterleaved;
    } else {
        throw std::runtime_error("unknown policy '" + v + "'");
    }
}

void
parse(const std::string &v, KiB<std::size_t> k)
{
    k.bytes = std::stoull(v) * 1024;
}

} // namespace

bool
applyConfigLine(const std::string &raw, SystemConfig &cfg)
{
    const std::size_t hash = raw.find('#');
    const std::string line =
        trim(hash == std::string::npos ? raw : raw.substr(0, hash));
    if (line.empty())
        return false;

    const std::size_t eq = line.find('=');
    if (eq == std::string::npos)
        throw std::runtime_error("expected key=value: " + line);
    const std::string key = lower(trim(line.substr(0, eq)));
    const std::string value = trim(line.substr(eq + 1));
    if (value.empty())
        throw std::runtime_error("empty value for " + key);

    bool applied = false;
    std::string accepted;
    forEachField(
        [&](const char *k, unsigned flags, auto &&m) {
            if constexpr (requires { parse(value, m); }) {
                if (!(flags & kFieldSettable))
                    return;
                if (key == k) {
                    parse(value, m);
                    applied = true;
                }
                if (!accepted.empty())
                    accepted += ", ";
                accepted += k;
            }
        },
        cfg);
    if (!applied) {
        throw std::runtime_error("unknown config key '" + key +
                                 "' (accepted keys: " + accepted + ")");
    }
    return true;
}

void
loadConfig(std::istream &in, SystemConfig &cfg)
{
    std::string line;
    while (std::getline(in, line))
        applyConfigLine(line, cfg);
}

std::string
canonicalConfig(const SystemConfig &cfg)
{
    std::ostringstream os;
    forEachField(
        [&os](const char *key, unsigned flags, const auto &m) {
            if (!(flags & kFieldObservational))
                renderRow(os, key, m);
        },
        cfg);
    return os.str();
}

std::string
dumpConfig(const SystemConfig &cfg)
{
    std::ostringstream os;
    os << "scheme = " << cfg.dram.scheme->displayName() << '\n'
       << "scheduler = " << dram::schedulerKindName(cfg.dram.scheduler)
       << '\n'
       << "policy = "
       << (cfg.dram.policy == dram::PagePolicy::RelaxedClose
               ? "relaxed"
               : cfg.dram.policy == dram::PagePolicy::OpenPage
                     ? "openpage"
                     : "restricted")
       << '\n'
       << "dbi = " << (cfg.enableDbi ? "true" : "false") << '\n'
       << "channels = " << cfg.dram.channels << '\n'
       << "ranks = " << cfg.dram.ranksPerChannel << '\n'
       << "read_queue = " << cfg.dram.readQueueDepth << '\n'
       << "write_queue = " << cfg.dram.writeQueueDepth << '\n'
       << "row_hit_cap = " << cfg.dram.rowHitCap << '\n'
       << "prac = " << (cfg.dram.pracEnabled ? "true" : "false") << '\n'
       << "target_instructions = " << cfg.targetInstructions << '\n';
    return os.str();
}

} // namespace pra::sim
