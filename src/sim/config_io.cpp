#include "sim/config_io.h"

#include "dram/sched/scheduler_policy.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

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

bool
parseBool(const std::string &v)
{
    const std::string s = lower(v);
    if (s == "true" || s == "1" || s == "yes" || s == "on")
        return true;
    if (s == "false" || s == "0" || s == "no" || s == "off")
        return false;
    throw std::runtime_error("bad boolean '" + v + "'");
}

dram::SchedulerKind
parseScheduler(const std::string &v)
{
    const std::string s = lower(v);
    if (s == "frfcfs" || s == "fr-fcfs")
        return dram::SchedulerKind::FrFcfs;
    if (s == "fcfs")
        return dram::SchedulerKind::Fcfs;
    if (s == "frfcfs_wage" || s == "frfcfs-wage")
        return dram::SchedulerKind::FrFcfsWriteAge;
    throw std::runtime_error("unknown scheduler '" + v +
                             "' (accepted: frfcfs, fcfs, frfcfs_wage)");
}

unsigned
asUnsigned(const std::string &v)
{
    return static_cast<unsigned>(std::stoul(v));
}

/**
 * One config key: name + parse-and-apply action. Table-driven so the
 * unknown-key diagnostic can enumerate every accepted key.
 */
struct KeyHandler
{
    const char *key;
    void (*apply)(const std::string &value, SystemConfig &cfg);
};

constexpr KeyHandler kKeyHandlers[] = {
    {"scheme",
     [](const std::string &v, SystemConfig &c) {
         // Registry lookup; throws listing every registered name.
         c.dram.scheme = &schemeByName(v);
     }},
    {"policy",
     [](const std::string &v, SystemConfig &c) {
         const std::string s = lower(v);
         if (s == "relaxed") {
             c.dram.policy = dram::PagePolicy::RelaxedClose;
             c.dram.mapping = dram::AddrMapping::RowInterleaved;
         } else if (s == "restricted") {
             c.dram.useRestrictedClosePage();
         } else if (s == "open" || s == "openpage") {
             c.dram.policy = dram::PagePolicy::OpenPage;
             c.dram.mapping = dram::AddrMapping::RowInterleaved;
         } else {
             throw std::runtime_error("unknown policy '" + v + "'");
         }
     }},
    {"scheduler",
     [](const std::string &v, SystemConfig &c) {
         c.dram.scheduler = parseScheduler(v);
     }},
    {"write_age_promotion",
     [](const std::string &v, SystemConfig &c) {
         c.dram.writeAgePromotionCycles = std::stoull(v);
     }},
    {"dbi",
     [](const std::string &v, SystemConfig &c) {
         c.enableDbi = parseBool(v);
     }},
    {"channels",
     [](const std::string &v, SystemConfig &c) {
         c.dram.channels = asUnsigned(v);
     }},
    {"ranks",
     [](const std::string &v, SystemConfig &c) {
         c.dram.ranksPerChannel = asUnsigned(v);
     }},
    {"banks",
     [](const std::string &v, SystemConfig &c) {
         c.dram.banksPerRank = asUnsigned(v);
     }},
    {"rows",
     [](const std::string &v, SystemConfig &c) {
         c.dram.rowsPerBank = asUnsigned(v);
     }},
    {"lines_per_row",
     [](const std::string &v, SystemConfig &c) {
         c.dram.linesPerRow = asUnsigned(v);
     }},
    {"chips",
     [](const std::string &v, SystemConfig &c) {
         c.dram.chipsPerRank = asUnsigned(v);
     }},
    {"ecc_chips",
     [](const std::string &v, SystemConfig &c) {
         c.dram.eccChipsPerRank = asUnsigned(v);
     }},
    {"read_queue",
     [](const std::string &v, SystemConfig &c) {
         c.dram.readQueueDepth = asUnsigned(v);
     }},
    {"write_queue",
     [](const std::string &v, SystemConfig &c) {
         c.dram.writeQueueDepth = asUnsigned(v);
     }},
    {"write_high_watermark",
     [](const std::string &v, SystemConfig &c) {
         c.dram.writeHighWatermark = asUnsigned(v);
     }},
    {"write_low_watermark",
     [](const std::string &v, SystemConfig &c) {
         c.dram.writeLowWatermark = asUnsigned(v);
     }},
    {"row_hit_cap",
     [](const std::string &v, SystemConfig &c) {
         c.dram.rowHitCap = asUnsigned(v);
     }},
    {"power_down",
     [](const std::string &v, SystemConfig &c) {
         c.dram.powerDownEnabled = parseBool(v);
     }},
    {"power_down_threshold",
     [](const std::string &v, SystemConfig &c) {
         c.dram.powerDownThreshold = asUnsigned(v);
     }},
    {"merge_write_masks",
     [](const std::string &v, SystemConfig &c) {
         c.dram.mergeWriteMasks = parseBool(v);
     }},
    {"weighted_act_window",
     [](const std::string &v, SystemConfig &c) {
         c.dram.weightedActWindow = parseBool(v);
     }},
    {"min_act_granularity",
     [](const std::string &v, SystemConfig &c) {
         c.dram.minActGranularity = asUnsigned(v);
     }},
    {"audit_fault_widen_act",
     [](const std::string &v, SystemConfig &c) {
         c.dram.auditFaultWidenAct =
             static_cast<std::uint8_t>(asUnsigned(v));
     }},
    {"fault_ignore_tccd_l",
     [](const std::string &v, SystemConfig &c) {
         c.dram.faultIgnoreTccdL = parseBool(v);
     }},
    {"fault_ignore_twtr",
     [](const std::string &v, SystemConfig &c) {
         c.dram.faultIgnoreTwtr = parseBool(v);
     }},
    {"fault_suppress_wake_twtr",
     [](const std::string &v, SystemConfig &c) {
         c.dram.faultSuppressWakeTwtr = parseBool(v);
     }},
    {"fault_starve_aged_cycles",
     [](const std::string &v, SystemConfig &c) {
         c.dram.faultStarveAgedCycles = asUnsigned(v);
     }},
    {"prac",
     [](const std::string &v, SystemConfig &c) {
         c.dram.pracEnabled = parseBool(v);
     }},
    {"disturbance_threshold",
     [](const std::string &v, SystemConfig &c) {
         c.dram.disturbanceThreshold = asUnsigned(v);
     }},
    {"prac_cam_entries",
     [](const std::string &v, SystemConfig &c) {
         c.dram.pracCamEntries = asUnsigned(v);
     }},
    {"prac_recovery_window",
     [](const std::string &v, SystemConfig &c) {
         c.dram.pracRecoveryWindow = asUnsigned(v);
     }},
    {"fault_prac_drop_count",
     [](const std::string &v, SystemConfig &c) {
         c.dram.faultPracDropCount = parseBool(v);
     }},
    {"fault_prac_late_rfm",
     [](const std::string &v, SystemConfig &c) {
         c.dram.faultPracLateRfm = parseBool(v);
     }},
    {"checker",
     [](const std::string &v, SystemConfig &c) {
         c.dram.enableChecker = parseBool(v);
     }},
    {"target_instructions",
     [](const std::string &v, SystemConfig &c) {
         c.targetInstructions = std::stoull(v);
     }},
    {"warmup_ops",
     [](const std::string &v, SystemConfig &c) {
         c.warmupOpsPerCore = std::stoull(v);
     }},
    {"max_cycles",
     [](const std::string &v, SystemConfig &c) {
         c.maxDramCycles = std::stoull(v);
     }},
    {"writeback_backlog",
     [](const std::string &v, SystemConfig &c) {
         c.writebackBacklogLimit = std::stoull(v);
     }},
    {"cycle_skip",
     [](const std::string &v, SystemConfig &c) {
         c.enableCycleSkip = parseBool(v);
     }},
    {"audit",
     [](const std::string &v, SystemConfig &c) {
         c.enableAudit = parseBool(v);
     }},
    {"audit_scan_stride",
     [](const std::string &v, SystemConfig &c) {
         c.auditScanStride = asUnsigned(v);
     }},
    {"issue_width",
     [](const std::string &v, SystemConfig &c) {
         c.core.issueWidth = asUnsigned(v);
     }},
    {"rob",
     [](const std::string &v, SystemConfig &c) {
         c.core.robSize = asUnsigned(v);
     }},
    {"tck_ns",
     [](const std::string &v, SystemConfig &c) {
         c.dram.power.tCkNs = std::stod(v);
     }},
    {"l2_kb",
     [](const std::string &v, SystemConfig &c) {
         c.caches.l2.sizeBytes = std::stoull(v) * 1024;
     }},
    {"l1_kb",
     [](const std::string &v, SystemConfig &c) {
         c.caches.l1.sizeBytes = std::stoull(v) * 1024;
     }},
    {"trcd",
     [](const std::string &v, SystemConfig &c) {
         c.dram.timing.tRcd = asUnsigned(v);
     }},
    {"trp",
     [](const std::string &v, SystemConfig &c) {
         c.dram.timing.tRp = asUnsigned(v);
     }},
    {"tras",
     [](const std::string &v, SystemConfig &c) {
         c.dram.timing.tRas = asUnsigned(v);
     }},
    {"trrd",
     [](const std::string &v, SystemConfig &c) {
         c.dram.timing.tRrd = asUnsigned(v);
     }},
    {"tfaw",
     [](const std::string &v, SystemConfig &c) {
         c.dram.timing.tFaw = asUnsigned(v);
     }},
    {"pra_mask_cycles",
     [](const std::string &v, SystemConfig &c) {
         c.dram.timing.praMaskCycles = asUnsigned(v);
     }},
    {"trfm",
     [](const std::string &v, SystemConfig &c) {
         c.dram.timing.tRfm = asUnsigned(v);
     }},
};

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

    for (const KeyHandler &h : kKeyHandlers) {
        if (key == h.key) {
            h.apply(value, cfg);
            return true;
        }
    }
    std::string accepted;
    for (const KeyHandler &h : kKeyHandlers) {
        if (!accepted.empty())
            accepted += ", ";
        accepted += h.key;
    }
    throw std::runtime_error("unknown config key '" + key +
                             "' (accepted keys: " + accepted + ")");
}

void
loadConfig(std::istream &in, SystemConfig &cfg)
{
    std::string line;
    while (std::getline(in, line))
        applyConfigLine(line, cfg);
}

void
loadConfigFile(const std::string &path, SystemConfig &cfg)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open config file " + path);
    loadConfig(in, cfg);
}

std::string
canonicalConfig(const SystemConfig &cfg)
{
    std::ostringstream os;
    // Doubles are rendered as the hex of their bit pattern: bit-exact,
    // locale-independent, and collision-free under any field change.
    auto bits = [&os](const char *key, double v) {
        std::uint64_t u;
        static_assert(sizeof(u) == sizeof(v));
        std::memcpy(&u, &v, sizeof(u));
        os << key << " = 0x" << std::hex << u << std::dec << '\n';
    };

    const dram::DramConfig &d = cfg.dram;
    os << "scheme = " << d.scheme->displayName() << '\n'
       << "scheduler = " << dram::schedulerKindName(d.scheduler) << '\n'
       << "write_age_promotion = " << d.writeAgePromotionCycles << '\n'
       << "policy = " << static_cast<int>(d.policy) << '\n'
       << "mapping = " << static_cast<int>(d.mapping) << '\n'
       << "channels = " << d.channels << '\n'
       << "ranks = " << d.ranksPerChannel << '\n'
       << "banks = " << d.banksPerRank << '\n'
       << "rows = " << d.rowsPerBank << '\n'
       << "lines_per_row = " << d.linesPerRow << '\n'
       << "chips = " << d.chipsPerRank << '\n'
       << "ecc_chips = " << d.eccChipsPerRank << '\n'
       << "read_queue = " << d.readQueueDepth << '\n'
       << "write_queue = " << d.writeQueueDepth << '\n'
       << "write_high_watermark = " << d.writeHighWatermark << '\n'
       << "write_low_watermark = " << d.writeLowWatermark << '\n'
       << "row_hit_cap = " << d.rowHitCap << '\n'
       << "power_down = " << d.powerDownEnabled << '\n'
       << "power_down_threshold = " << d.powerDownThreshold << '\n'
       << "checker = " << d.enableChecker << '\n'
       << "merge_write_masks = " << d.mergeWriteMasks << '\n'
       << "weighted_act_window = " << d.weightedActWindow << '\n'
       << "min_act_granularity = " << d.minActGranularity << '\n'
       // Behavioural fault hook (src/verify tests): widens ACT masks, so
       // it must key the result cache. The enableAudit flag itself is
       // observational and deliberately excluded.
       << "audit_fault_widen_act = "
       << static_cast<unsigned>(d.auditFaultWidenAct) << '\n'
       // The timing fault hooks change which commands issue when, so
       // they are behavioural and must key the result cache too.
       << "fault_ignore_tccd_l = " << d.faultIgnoreTccdL << '\n'
       << "fault_ignore_twtr = " << d.faultIgnoreTwtr << '\n'
       // The liveness fault hooks change which commands issue when (a
       // suppressed wake bound stalls the event engine; a starved
       // request never drains), so they are behavioural too.
       << "fault_suppress_wake_twtr = " << d.faultSuppressWakeTwtr
       << '\n'
       << "fault_starve_aged_cycles = " << d.faultStarveAgedCycles
       << '\n'
       // PRAC / RFM mitigation (maintenance op prac_rfm): counting,
       // Alert Back-Off and recovery scheduling all change which
       // commands issue when, so the whole block keys the cache.
       << "prac = " << d.pracEnabled << '\n'
       << "disturbance_threshold = " << d.disturbanceThreshold << '\n'
       << "prac_cam_entries = " << d.pracCamEntries << '\n'
       << "prac_recovery_window = " << d.pracRecoveryWindow << '\n'
       << "fault_prac_drop_count = " << d.faultPracDropCount << '\n'
       << "fault_prac_late_rfm = " << d.faultPracLateRfm << '\n'
       // The maintenance op the PRAC block registers: naming it keys
       // the cache on the op's presence, not just its parameters.
       << "prac_op = " << (d.pracEnabled ? "prac_rfm" : "none") << '\n';

    const dram::Timing &t = d.timing;
    os << "trcd = " << t.tRcd << '\n'
       << "trp = " << t.tRp << '\n'
       << "tcas = " << t.tCas << '\n'
       << "tras = " << t.tRas << '\n'
       << "twr = " << t.tWr << '\n'
       << "tccd = " << t.tCcd << '\n'
       << "trrd = " << t.tRrd << '\n'
       << "tfaw = " << t.tFaw << '\n'
       << "trc = " << t.tRc << '\n'
       << "wl = " << t.wl << '\n'
       << "trtp = " << t.tRtp << '\n'
       << "twtr = " << t.tWtr << '\n'
       << "trfc = " << t.tRfc << '\n'
       << "trefi = " << t.tRefi << '\n'
       << "txp = " << t.tXp << '\n'
       << "trtrs = " << t.tRtrs << '\n'
       << "burst_cycles = " << t.burstCycles << '\n'
       << "bank_groups = " << t.bankGroups << '\n'
       << "tccd_l = " << t.tCcdL << '\n'
       << "pra_mask_cycles = " << t.praMaskCycles << '\n'
       << "trfm = " << t.tRfm << '\n';

    const power::PowerParams &p = d.power;
    bits("p_pre_standby", p.preStandby);
    bits("p_pre_power_down", p.prePowerDown);
    bits("p_refresh", p.refresh);
    bits("p_act_standby", p.actStandby);
    bits("p_read", p.read);
    bits("p_write", p.write);
    bits("p_read_io", p.readIo);
    bits("p_write_odt", p.writeOdt);
    bits("p_read_term", p.readTerm);
    bits("p_write_term", p.writeTerm);
    os << "read_io_pins = " << p.readIoPins << '\n'
       << "write_io_pins = " << p.writeIoPins << '\n';
    for (unsigned g = 0; g < p.actPower.size(); ++g) {
        const std::string key = "p_act_" + std::to_string(g + 1);
        bits(key.c_str(), p.actPower[g]);
    }
    bits("tck_ns", p.tCkNs);
    os << "power_trc = " << p.tRc << '\n'
       << "power_burst_cycles = " << p.burstCycles << '\n'
       << "power_trfc = " << p.tRfc << '\n'
       << "power_trfm = " << p.tRfm << '\n'
       << "power_trefi = " << p.tRefi << '\n';

    os << "issue_width = " << cfg.core.issueWidth << '\n'
       << "rob = " << cfg.core.robSize << '\n'
       << "ldq = " << cfg.core.ldqSize << '\n'
       << "stq = " << cfg.core.stqSize << '\n';

    os << "cores = " << cfg.caches.numCores << '\n'
       << "l1_bytes = " << cfg.caches.l1.sizeBytes << '\n'
       << "l1_ways = " << cfg.caches.l1.ways << '\n'
       << "l1_line = " << cfg.caches.l1.lineBytes << '\n'
       << "l2_bytes = " << cfg.caches.l2.sizeBytes << '\n'
       << "l2_ways = " << cfg.caches.l2.ways << '\n'
       << "l2_line = " << cfg.caches.l2.lineBytes << '\n'
       << "dbi = " << cfg.enableDbi << '\n';

    os << "warmup_ops = " << cfg.warmupOpsPerCore << '\n'
       << "target_instructions = " << cfg.targetInstructions << '\n'
       << "max_cycles = " << cfg.maxDramCycles << '\n'
       << "writeback_backlog = " << cfg.writebackBacklogLimit << '\n'
       << "cycle_skip = " << cfg.enableCycleSkip << '\n';
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
