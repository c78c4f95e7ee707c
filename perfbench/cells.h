/**
 * @file
 * The benchmark's workloads: four cold 4-core cells of the `pra` scheme
 * under relaxed close-page, each a fixed mix at a fixed geometry and
 * instruction count. The workload seed only reseeds the generators.
 */
#ifndef PERFBENCH_CELLS_H
#define PERFBENCH_CELLS_H

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/system.h"
#include "workloads/factory.h"

namespace perfbench {

/** One benchmark workload. */
struct Cell
{
    std::string name;
    pra::workloads::Mix mix;
    bool dbi = false;
    unsigned channels = 2;   //!< Always 2 ranks per channel.
    /** Measured-region length per core. */
    std::uint64_t targetInstructions = 0;
};

/** Every workload, in BENCHMARK.json order. */
const std::vector<Cell> &cells();

/** The cell called @p name, or nullptr. */
const Cell *findCell(std::string_view name);

/**
 * The system configuration of @p cell. @p target_instructions overrides
 * the cell's run length when non-zero (tests use short runs).
 */
pra::sim::SystemConfig cellConfig(const Cell &cell,
                                  std::uint64_t target_instructions = 0);

/**
 * Generator seed of mix slot @p slot under workload seed @p seed. Seed 1
 * gives slot i the seed i+1, exactly as sim::mixGenerators does, so the
 * default seed reproduces the simulated numbers of EXPERIMENTS.md.
 * Distinct (seed, slot) pairs never share a generator seed.
 */
std::uint64_t slotSeed(std::uint64_t seed, unsigned slot);

/** The generators of @p cell under workload seed @p seed. */
std::vector<std::unique_ptr<pra::cpu::Generator>>
cellGenerators(const Cell &cell, std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_CELLS_H
