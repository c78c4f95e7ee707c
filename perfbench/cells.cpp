#include "cells.h"

#include "core/scheme.h"
#include "sim/experiment.h"

namespace perfbench {

namespace pw = pra::workloads;

const std::vector<Cell> &
cells()
{
    static const std::vector<Cell> all = {
        {"gups_32ch", {"GUPS", {"GUPS", "GUPS", "GUPS", "GUPS"}}, false, 32,
         400'000},
        {"gups_2ch", {"GUPS", {"GUPS", "GUPS", "GUPS", "GUPS"}}, false, 2,
         400'000},
        {"mix1_dbi_2ch", pw::mixes().at(0), true, 2, 400'000},
        {"linkedlist_32ch",
         {"LinkedList",
          {"LinkedList", "LinkedList", "LinkedList", "LinkedList"}},
         false, 32, 400'000},
    };
    return all;
}

const Cell *
findCell(std::string_view name)
{
    for (const Cell &cell : cells())
        if (cell.name == name)
            return &cell;
    return nullptr;
}

pra::sim::SystemConfig
cellConfig(const Cell &cell, std::uint64_t target_instructions)
{
    pra::sim::SystemConfig cfg = pra::sim::makeConfig(
        {&pra::schemeByName("pra"), pra::dram::PagePolicy::RelaxedClose,
         cell.dbi});
    cfg.dram.channels = cell.channels;
    cfg.dram.ranksPerChannel = 2;
    cfg.targetInstructions = target_instructions != 0
                                 ? target_instructions
                                 : cell.targetInstructions;
    return cfg;
}

std::uint64_t
slotSeed(std::uint64_t seed, unsigned slot)
{
    // Unsigned wrap-around keeps seed 0 well defined.
    const std::uint64_t slots = std::tuple_size_v<decltype(pw::Mix::apps)>;
    return (seed - 1) * slots + slot + 1;
}

std::vector<std::unique_ptr<pra::cpu::Generator>>
cellGenerators(const Cell &cell, std::uint64_t seed)
{
    std::vector<std::unique_ptr<pra::cpu::Generator>> gens;
    for (unsigned i = 0; i < cell.mix.apps.size(); ++i)
        gens.push_back(pw::makeGenerator(cell.mix.apps[i], slotSeed(seed, i)));
    return gens;
}

} // namespace perfbench
