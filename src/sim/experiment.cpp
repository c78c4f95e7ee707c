#include "sim/experiment.h"

#include <sstream>

#include "sim/result_cache.h"

namespace pra::sim {

SystemConfig
makeConfig(const ConfigPoint &point)
{
    SystemConfig cfg;
    cfg.dram.scheme = point.scheme;
    if (point.policy == dram::PagePolicy::RestrictedClose)
        cfg.dram.useRestrictedClosePage();
    cfg.enableDbi = point.dbi;
    return cfg;
}

std::vector<std::unique_ptr<cpu::Generator>>
mixGenerators(const workloads::Mix &mix)
{
    std::vector<std::unique_ptr<cpu::Generator>> gens;
    // Empty trailing slots make a partial mix (e.g. a single-core run);
    // the seed stays tied to the slot so core i is reproducible
    // regardless of how many slots are filled.
    for (unsigned i = 0; i < mix.apps.size(); ++i)
        if (!mix.apps[i].empty())
            gens.push_back(workloads::makeGenerator(mix.apps[i], i + 1));
    return gens;
}

RunResult
runWorkload(const workloads::Mix &mix, const SystemConfig &cfg)
{
    System system(cfg, mixGenerators(mix));
    return system.run();
}

std::string
warmupKey(const SystemConfig &cfg, const workloads::Mix &mix)
{
    // Warmup touches only the hierarchy and the generators, through the
    // per-core address relocation and (with DBI) the row-key function.
    // Everything listed here is exactly what those depend on; scheme,
    // timing, queueing, power, and run-length knobs are deliberately
    // absent so configurations differing only in those share a snapshot.
    std::ostringstream os;
    os << workloadSpec(mix) << "warmup_ops = " << cfg.warmupOpsPerCore
       << '\n'
       << "cores = " << cfg.caches.numCores << '\n'
       << "l1_bytes = " << cfg.caches.l1.sizeBytes << '\n'
       << "l1_ways = " << cfg.caches.l1.ways << '\n'
       << "l1_line = " << cfg.caches.l1.lineBytes << '\n'
       << "l2_bytes = " << cfg.caches.l2.sizeBytes << '\n'
       << "l2_ways = " << cfg.caches.l2.ways << '\n'
       << "l2_line = " << cfg.caches.l2.lineBytes << '\n'
       << "dbi = " << cfg.enableDbi << '\n'
       << "mapping = " << static_cast<int>(cfg.dram.mapping) << '\n'
       << "channels = " << cfg.dram.channels << '\n'
       << "ranks = " << cfg.dram.ranksPerChannel << '\n'
       << "banks = " << cfg.dram.banksPerRank << '\n'
       << "rows = " << cfg.dram.rowsPerBank << '\n'
       << "lines_per_row = " << cfg.dram.linesPerRow << '\n';
    return os.str();
}

std::shared_ptr<const WarmSnapshot>
WarmupCache::get(const SystemConfig &cfg, const workloads::Mix &mix)
{
    return snapshots_.get(warmupKey(cfg, mix), [&] {
        System system(cfg, mixGenerators(mix));
        auto snapshot =
            std::make_shared<const WarmSnapshot>(system.exportWarmSnapshot());
        computed_.fetch_add(1);
        return snapshot;
    });
}

RunResult
runWorkload(const workloads::Mix &mix, const SystemConfig &cfg,
            WarmupCache &warm)
{
    if (cfg.warmupOpsPerCore == 0)
        return runWorkload(mix, cfg);   // Nothing to snapshot.
    System system(cfg, *warm.get(cfg, mix));
    return system.run();
}

double
AloneIpcCache::get(const std::string &app, const ConfigPoint &point)
{
    return ipcs_.get(point.key() + "#" + app, [&] {
        const SystemConfig cfg = makeConfig(point);
        // Slot 0 fixes the generator seed to 1, matching the pre-cache
        // behaviour of building makeGenerator(app, 1).
        const workloads::Mix solo{app, {app, "", "", ""}};

        std::string material;
        std::optional<RunResult> cached;
        if (results_ && results_->enabled()) {
            material = resultCacheMaterial(cfg, solo);
            cached = results_->load(material);
        }
        if (cached) {
            persistentHits_.fetch_add(1);
            return cached->ipc.at(0);
        }
        const RunResult res = warm_ ? runWorkload(solo, cfg, *warm_)
                                    : runWorkload(solo, cfg);
        if (results_ && results_->enabled())
            results_->store(material, res);
        return res.ipc.at(0);
    });
}

double
weightedSpeedup(const workloads::Mix &mix, const RunResult &shared,
                const ConfigPoint &point, AloneIpcCache &alone)
{
    double ws = 0.0;
    unsigned core = 0;  // Active cores pack down past empty mix slots.
    for (unsigned c = 0; c < mix.apps.size(); ++c) {
        if (mix.apps[c].empty())
            continue;
        const double alone_ipc = alone.get(mix.apps[c], point);
        if (alone_ipc > 0.0)
            ws += shared.ipc.at(core) / alone_ipc;
        ++core;
    }
    return ws;
}

} // namespace pra::sim
