/**
 * @file
 * Exact work record of the host-speed benchmark's cells: runs each
 * perfbench cell (perfbench/cells.cpp, compiled unchanged) cold at
 * seed 1 through sim::System and prints, as JSON, the work the run did:
 * simulated DRAM cycles, every event-engine counter, and the L1 (per
 * core) and L2 hits and misses. A host-speed change must leave every
 * count as it was; BENCH_work.json holds the committed record.
 *
 * usage: pra_work > BENCH_work.json
 *
 * Exits 2 when PRA_AUDIT_REPLAY is set (forced rounds change the engine
 * counters).
 */
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "cells.h"

namespace {

/** One `"key": value` line of a cell object. */
void
printCount(const char *key, std::uint64_t value, bool last = false)
{
    std::printf("      \"%s\": %llu%s\n", key,
                static_cast<unsigned long long>(value), last ? "" : ",");
}

/** One `"key": [per-core values]` line of a cell object. */
template <typename PerCore>
void
printPerCore(const char *key, unsigned cores, PerCore value)
{
    std::printf("      \"%s\": [", key);
    for (unsigned core = 0; core < cores; ++core) {
        std::printf("%s%llu", core == 0 ? "" : ", ",
                    static_cast<unsigned long long>(value(core)));
    }
    std::printf("],\n");
}

} // namespace

int
main()
{
    if (std::getenv("PRA_AUDIT_REPLAY") != nullptr) {
        std::fprintf(stderr,
                     "pra_work: PRA_AUDIT_REPLAY changes the engine "
                     "counters; unset it\n");
        return 2;
    }
    const auto &cells = perfbench::cells();
    std::printf("{\n  \"seed\": 1,\n  \"cells\": {\n");
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const perfbench::Cell &cell = cells[c];
        pra::sim::System sys(perfbench::cellConfig(cell),
                             perfbench::cellGenerators(cell, 1));
        const pra::sim::RunResult res = sys.run();
        const pra::dram::EngineStats &e = res.engine;
        const pra::cache::Hierarchy &caches = sys.caches();

        std::printf("    \"%s\": {\n", cell.name.c_str());
        printCount("dram_cycles", res.dramCycles);
        printCount("rounds", e.rounds);
        printCount("skipped_ticks", e.skippedTicks);
        printCount("events_popped", e.eventsPopped);
        printCount("heap_peak", e.heapPeak);
        printCount("maint_bank_visits", e.maintBankVisits);
        printCount("queue_visits", e.queueVisits);
        printPerCore("l1_hits", caches.numCores(),
                     [&](unsigned core) { return caches.l1(core).hits(); });
        printPerCore("l1_misses", caches.numCores(), [&](unsigned core) {
            return caches.l1(core).misses();
        });
        printCount("l2_hits", caches.l2().hits());
        printCount("l2_misses", caches.l2().misses(), true);
        std::printf("    }%s\n", c + 1 < cells.size() ? "," : "");
    }
    std::printf("  }\n}\n");
    return 0;
}
