/**
 * @file
 * The simulator's steady state allocates nothing: once its request
 * queues have been full, MemoryController::enqueue() and tick() make no
 * heap allocation, nor do DramSystem::tick() and drainCompletions();
 * once the L2 has filled, Hierarchy::access() with the DBI on makes
 * none either. This binary replaces the global operator new with a
 * counting one, so it is built apart from pra_tests.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "cache/hierarchy.h"
#include "common/rng.h"
#include "dram/address_mapping.h"
#include "dram/controller.h"
#include "dram/dram_system.h"

namespace {

std::atomic<bool> gCounting{false};
std::atomic<std::uint64_t> gAllocations{0};

} // namespace

// The replacements stay out of line: inlined into a caller, GCC sees
// std::free() take a pointer from operator new and raises
// -Wmismatched-new-delete (an -Werror failure at -O2 under ASan).
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    if (gCounting.load(std::memory_order_relaxed))
        gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace pra::dram {
namespace {

struct Cell
{
    const char *scheme;
    PagePolicy policy;
    SchedulerKind scheduler;
};

/**
 * Drive one controller with a dense seeded stream (row hits, conflicts,
 * combining and forwarding) until both queues have been full, then
 * count the allocations of a further @p measured cycles.
 */
std::uint64_t
steadyStateAllocations(const Cell &cell, Cycle measured)
{
    DramConfig cfg;
    cfg.channels = 1;
    cfg.scheme = &schemeByName(cell.scheme);
    cfg.policy = cell.policy;
    cfg.scheduler = cell.scheduler;
    AddressMapper mapper(cfg);
    MemoryController mc(cfg, 0);
    Rng rng(7);

    bool read_full = false;
    bool write_full = false;
    Cycle now = 0;
    auto cycle = [&] {
        for (int i = 0; i < 2; ++i) {
            const bool is_write = rng.chance(0.4);
            if (!mc.canAccept(is_write)) {
                (is_write ? write_full : read_full) = true;
                continue;
            }
            DecodedAddr loc;
            loc.rank = static_cast<unsigned>(rng.below(cfg.ranksPerChannel));
            loc.bank = static_cast<unsigned>(rng.below(cfg.banksPerRank));
            loc.row = static_cast<std::uint32_t>(rng.below(16));
            loc.col = static_cast<unsigned>(rng.below(8));
            Request req;
            req.addr = mapper.encode(loc);
            req.loc = loc;
            req.isWrite = is_write;
            req.mask = WordMask::single(static_cast<unsigned>(rng.below(8)));
            mc.enqueue(req, now);
        }
        mc.tick(now++);
        mc.completions().clear();
    };
    // Warm: both queues full once, and long enough for every other
    // buffer (in-flight reads, the wake-up set, the tFAW window) to have
    // reached its peak.
    while (now < 20000 || !read_full || !write_full)
        cycle();
    gAllocations = 0;
    gCounting = true;
    const Cycle end = now + measured;
    while (now < end)
        cycle();
    gCounting = false;
    return gAllocations;
}

TEST(AllocFree, SteadyStateEnqueueAndTickAllocateNothing)
{
    const Cell cells[] = {
        {"pra", PagePolicy::RelaxedClose, SchedulerKind::FrFcfs},
        {"pra_spec_read", PagePolicy::RelaxedClose, SchedulerKind::FrFcfs},
        {"baseline", PagePolicy::RestrictedClose, SchedulerKind::FrFcfs},
        {"pra", PagePolicy::RelaxedClose, SchedulerKind::Fcfs},
    };
    for (const Cell &cell : cells) {
        EXPECT_EQ(steadyStateAllocations(cell, 50000), 0u)
            << cell.scheme << " " << static_cast<int>(cell.policy) << " "
            << schedulerKindName(cell.scheduler);
    }
}

TEST(AllocFree, SteadyStateDramSystemTickAndDrainAllocateNothing)
{
    DramConfig cfg;
    cfg.scheme = &schemeByName("pra");
    DramSystem sys(cfg);
    Rng rng(3);
    std::uint64_t tag = 0;
    std::uint64_t completions = 0;
    auto cycle = [&] {
        if (rng.chance(0.3)) {
            DecodedAddr loc;
            loc.channel = static_cast<unsigned>(rng.below(cfg.channels));
            loc.rank = static_cast<unsigned>(rng.below(cfg.ranksPerChannel));
            loc.bank = static_cast<unsigned>(rng.below(cfg.banksPerRank));
            loc.row = static_cast<std::uint32_t>(rng.below(16));
            loc.col = static_cast<unsigned>(rng.below(8));
            const Addr addr = sys.mapper().encode(loc);
            const bool is_write = rng.chance(0.4);
            if (sys.canAccept(addr, is_write)) {
                sys.enqueue(addr, is_write,
                            WordMask::single(
                                static_cast<unsigned>(rng.below(8))),
                            0, ++tag);
            }
        }
        sys.tick();
        completions += sys.drainCompletions().size();
    };
    // Warm long enough for every buffer (queues, in-flight reads, the
    // completion lists) to have reached its peak.
    while (sys.now() < 50000)
        cycle();
    gAllocations = 0;
    gCounting = true;
    const std::uint64_t before = completions;
    while (sys.now() < 100000)
        cycle();
    gCounting = false;
    EXPECT_GT(completions, before + 1000);
    EXPECT_EQ(gAllocations, 0u);
}

TEST(AllocFree, HierarchyAccessWithDbiAllocatesNothingOnceL2Filled)
{
    cache::HierarchyConfig hc;
    hc.numCores = 4;
    hc.l1 = cache::CacheParams{4 * 1024, 4, kLineBytes};
    hc.l2 = cache::CacheParams{64 * 1024, 8, kLineBytes};
    hc.enableDbi = true;
    hc.dbiRowKey = [](Addr addr) { return addr / (8 * 1024); };
    cache::Hierarchy h(hc);
    Rng rng(9);
    std::uint64_t writebacks = 0;
    auto access = [&] {
        const unsigned core = static_cast<unsigned>(rng.below(4));
        const Addr addr = rng.below(4u << 20);
        const bool is_write = rng.chance(0.4);
        const ByteMask bytes =
            is_write ? ByteMask::word(static_cast<unsigned>(rng.below(8)))
                     : ByteMask::none();
        writebacks += h.access(core, addr, is_write, bytes).writebacks.size();
    };
    // Filled, and long enough for the row table and the writeback buffer
    // to have reached their peak.
    const std::uint64_t lines = hc.l2.sizeBytes / kLineBytes;
    while (h.l2().evictions() < 50 * lines)
        access();
    gAllocations = 0;
    gCounting = true;
    const std::uint64_t before = h.dbi()->proactiveWritebacks();
    for (int i = 0; i < 100000; ++i)
        access();
    gCounting = false;
    EXPECT_GT(h.dbi()->proactiveWritebacks(), before);
    EXPECT_GT(writebacks, 0u);
    EXPECT_EQ(gAllocations, 0u);
}

} // namespace
} // namespace pra::dram
