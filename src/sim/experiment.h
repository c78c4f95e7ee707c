/**
 * @file
 * Experiment harness shared by the benchmark binaries: builds systems
 * for a (scheme, page-policy, DBI) point, runs the 14 paper workloads,
 * and computes the weighted-speedup metric (paper Eq. 3) against cached
 * "alone" runs.
 */
#ifndef PRA_SIM_EXPERIMENT_H
#define PRA_SIM_EXPERIMENT_H

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "sim/system.h"
#include "workloads/factory.h"

namespace pra::sim {

class ResultCache;

/** One evaluated configuration point. */
struct ConfigPoint
{
    const SchemeModel *scheme = &baselineScheme();
    dram::PagePolicy policy = dram::PagePolicy::RelaxedClose;
    bool dbi = false;

    std::string
    key() const
    {
        return std::string(scheme->displayName()) +
               (policy == dram::PagePolicy::RelaxedClose ? "/relaxed"
                                                         : "/restricted") +
               (dbi ? "/dbi" : "");
    }
};

/** Build the paper's baseline SystemConfig for a configuration point. */
SystemConfig makeConfig(const ConfigPoint &point);

/** Run a 4-core workload (rate quadruple or Table 4 mix). */
RunResult runWorkload(const workloads::Mix &mix, const SystemConfig &cfg);

/** The generators a workload mix instantiates (slot index fixes seed). */
std::vector<std::unique_ptr<cpu::Generator>>
mixGenerators(const workloads::Mix &mix);

/**
 * Canonical text identifying the functional-warmup state a (cfg, mix)
 * pair produces: the workload spec plus every warmup-relevant config
 * field (warmup length, core count, cache geometry, DBI enable, and the
 * DRAM organization/mapping that fixes address relocation and the DBI
 * row key). Two pairs with equal keys produce bit-identical
 * WarmSnapshots — notably the key excludes the scheme, timing, queue,
 * and power knobs, so an entire scheme sweep shares one warmup.
 */
std::string warmupKey(const SystemConfig &cfg, const workloads::Mix &mix);

/**
 * Thread-safe compute-once memo keyed by string: the first caller of a
 * key runs the computation and every other caller, on any thread,
 * blocks on its shared_future, so no value is ever computed twice. An
 * exception propagates to every waiter instead of deadlocking them.
 */
template <typename V>
class OnceMap
{
  public:
    template <typename Compute>
    V
    get(const std::string &key, Compute &&compute)
    {
        std::promise<V> prom;
        std::shared_future<V> fut;
        bool mine = false;
        {
            std::lock_guard<std::mutex> lock(mu_);
            auto [it, inserted] = map_.try_emplace(key);
            if (inserted) {
                mine = true;
                it->second = prom.get_future().share();
            }
            fut = it->second;
        }
        if (mine) {
            try {
                prom.set_value(compute());
            } catch (...) {
                prom.set_exception(std::current_exception());
            }
        }
        return fut.get();
    }

  private:
    std::mutex mu_;
    std::map<std::string, std::shared_future<V>> map_;
};

/**
 * Memoizes WarmSnapshots per warmupKey (OnceMap): exactly one thread
 * performs each distinct warmup, and every sweep cell then forks its
 * System from the shared snapshot instead of re-warming.
 */
class WarmupCache
{
  public:
    /** The warm snapshot for (cfg, mix); computed at most once. */
    std::shared_ptr<const WarmSnapshot> get(const SystemConfig &cfg,
                                            const workloads::Mix &mix);

    /** Distinct warmups actually simulated (not served from cache). */
    std::uint64_t computed() const { return computed_.load(); }

  private:
    OnceMap<std::shared_ptr<const WarmSnapshot>> snapshots_;
    std::atomic<std::uint64_t> computed_{0};
};

/**
 * Run @p mix under @p cfg, forking from @p warm's shared snapshot.
 * Bit-identical to the cold overload (the snapshot is the complete
 * post-warmup mutable state); falls back to a cold run when the config
 * disables warmup.
 */
RunResult runWorkload(const workloads::Mix &mix, const SystemConfig &cfg,
                      WarmupCache &warm);

/**
 * Caches IPC_alone per (config key, app).
 *
 * Thread-safe with compute-once semantics (OnceMap): when several sweep
 * threads need the same alone IPC, exactly one runs the simulation, so
 * no alone-run is ever duplicated.
 *
 * Optionally shares a WarmupCache (so alone runs reuse warmups across
 * configuration points that agree on warmup-relevant fields) and a
 * persistent ResultCache (so alone runs replay across processes).
 */
class AloneIpcCache
{
  public:
    /** IPC of @p app running alone under @p point (cached). */
    double get(const std::string &app, const ConfigPoint &point);

    /** Fork alone runs from @p warm's snapshots (nullptr = cold). */
    void shareWarmups(WarmupCache *warm) { warm_ = warm; }

    /** Replay/persist alone results through @p cache (nullptr = off). */
    void usePersistentCache(const ResultCache *cache) { results_ = cache; }

    /** Alone results served from the persistent cache. */
    std::uint64_t persistentHits() const { return persistentHits_.load(); }

  private:
    OnceMap<double> ipcs_;
    WarmupCache *warm_ = nullptr;
    const ResultCache *results_ = nullptr;
    std::atomic<std::uint64_t> persistentHits_{0};
};

/**
 * Weighted speedup (Eq. 3): sum over cores of IPC_shared / IPC_alone,
 * with alone IPCs measured under the same configuration point.
 */
double weightedSpeedup(const workloads::Mix &mix, const RunResult &shared,
                       const ConfigPoint &point, AloneIpcCache &alone);

} // namespace pra::sim

#endif // PRA_SIM_EXPERIMENT_H
