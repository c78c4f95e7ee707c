/**
 * @file
 * Tests for the simplified OoO core: ROB-head blocking on loads, LDQ/STQ
 * structural limits, pointer-chase serialization, store latency
 * insensitivity, and instruction accounting.
 */
#include <gtest/gtest.h>

#include <deque>

#include "cpu/core.h"

namespace pra::cpu {
namespace {

/** Scripted generator: replays a fixed op list, then idles. */
class ScriptGen : public Generator
{
  public:
    explicit ScriptGen(std::vector<MemOp> ops) : ops_(std::move(ops)) {}

    MemOp
    next() override
    {
        if (pos_ < ops_.size())
            return ops_[pos_++];
        MemOp idle;
        idle.gap = 1000000;   // Effectively no more memory ops.
        return idle;
    }

    const char *name() const override { return "script"; }

    std::unique_ptr<Generator>
    clone() const override
    {
        return std::make_unique<ScriptGen>(*this);
    }

  private:
    std::vector<MemOp> ops_;
    std::size_t pos_ = 0;
};

/** Memory port stub: every access misses; completions on demand. */
class StubPort : public CoreMemoryPort
{
  public:
    bool
    canIssue(unsigned, Addr) override
    {
        return allowIssue;
    }

    bool
    access(unsigned, const MemOp &op, std::uint64_t tag) override
    {
        accesses.push_back(op);
        if (missEverything) {
            pending.push_back(tag);
            return true;
        }
        return false;
    }

    bool allowIssue = true;
    bool missEverything = true;
    std::vector<MemOp> accesses;
    std::deque<std::uint64_t> pending;
};

MemOp
load(unsigned gap, Addr addr = 0x1000, bool serializing = false)
{
    MemOp op;
    op.gap = gap;
    op.addr = addr;
    op.serializing = serializing;
    return op;
}

MemOp
store(unsigned gap, Addr addr = 0x2000)
{
    MemOp op;
    op.gap = gap;
    op.isWrite = true;
    op.addr = addr;
    op.bytes = ByteMask::word(0);
    return op;
}

TEST(Core, RunsAtIssueWidthWithoutMemory)
{
    ScriptGen gen({});
    StubPort port;
    CoreParams params;
    Core core(0, params, gen, port);
    core.tick();
    // 4-wide x 4 CPU cycles per DRAM cycle = 16 instructions.
    EXPECT_EQ(core.retiredInstructions(), 16u);
    for (int i = 0; i < 9; ++i)
        core.tick();
    EXPECT_EQ(core.retiredInstructions(), 160u);
}

TEST(Core, CacheHitsDoNotStall)
{
    std::vector<MemOp> ops;
    for (int i = 0; i < 20; ++i)
        ops.push_back(load(3));
    ScriptGen gen(ops);
    StubPort port;
    port.missEverything = false;   // All hits.
    Core core(0, CoreParams{}, gen, port);
    core.tick();
    EXPECT_EQ(core.retiredInstructions(), 16u);
    EXPECT_EQ(core.outstandingLoads(), 0u);
}

TEST(Core, RobBlocksAtHeadDistance)
{
    // One miss, then an endless instruction stream: the core may run
    // ahead exactly ROB-size instructions past the load.
    ScriptGen gen({load(0)});
    StubPort port;
    CoreParams params;
    Core core(0, params, gen, port);
    for (int i = 0; i < 100; ++i)
        core.tick();
    // Load was instruction 1; the front may reach 1 + 192.
    EXPECT_EQ(core.retiredInstructions(), 1u + params.robSize);
    // Completion unblocks it.
    ASSERT_EQ(port.pending.size(), 1u);
    core.complete(port.pending.front());
    core.tick();
    EXPECT_GT(core.retiredInstructions(), 1u + params.robSize);
}

TEST(Core, RobLimitFollowsOldestOutstandingLoad)
{
    // Three misses with gaps (instructions 1, 7 and 13), then an endless
    // instruction stream. Once the oldest completes, the second-oldest
    // heads the ROB: the core runs ahead exactly ROB-size past it, not
    // past whichever load completion order left in front.
    ScriptGen gen({load(0), load(5), load(5)});
    StubPort port;
    CoreParams params;
    Core core(0, params, gen, port);
    for (int i = 0; i < 100; ++i)
        core.tick();
    ASSERT_EQ(port.pending.size(), 3u);
    EXPECT_EQ(core.retiredInstructions(), 1u + params.robSize);
    core.complete(port.pending.front());
    for (int i = 0; i < 100; ++i)
        core.tick();
    EXPECT_EQ(core.outstandingLoads(), 2u);
    EXPECT_EQ(core.retiredInstructions(), 7u + params.robSize);
}

TEST(Core, LdqBoundsOutstandingLoads)
{
    std::vector<MemOp> ops;
    for (int i = 0; i < 64; ++i)
        ops.push_back(load(0, 0x1000 + i * 64));
    ScriptGen gen(ops);
    StubPort port;
    CoreParams params;
    Core core(0, params, gen, port);
    for (int i = 0; i < 50; ++i)
        core.tick();
    EXPECT_EQ(core.outstandingLoads(), params.ldqSize);
    EXPECT_EQ(port.accesses.size(), params.ldqSize);
    // Draining one admits one more.
    core.complete(port.pending.front());
    port.pending.pop_front();
    core.tick();
    EXPECT_EQ(port.accesses.size(), params.ldqSize + 1);
}

TEST(Core, StqBoundsOutstandingStoreFetches)
{
    std::vector<MemOp> ops;
    for (int i = 0; i < 64; ++i)
        ops.push_back(store(0, 0x2000 + i * 64));
    ScriptGen gen(ops);
    StubPort port;
    CoreParams params;
    Core core(0, params, gen, port);
    for (int i = 0; i < 50; ++i)
        core.tick();
    EXPECT_EQ(port.accesses.size(), params.stqSize);
}

TEST(Core, StoresDoNotBlockRetirement)
{
    // A store miss followed by a long instruction stream: unlike a load,
    // the core sails past it (write-latency insensitivity).
    ScriptGen gen({store(0)});
    StubPort port;
    Core core(0, CoreParams{}, gen, port);
    for (int i = 0; i < 100; ++i)
        core.tick();
    EXPECT_GT(core.retiredInstructions(), 1000u);
    EXPECT_EQ(core.outstandingLoads(), 0u);
}

TEST(Core, SerializingLoadWaitsForOutstanding)
{
    ScriptGen gen({load(0, 0x1000), load(0, 0x2000, true)});
    StubPort port;
    Core core(0, CoreParams{}, gen, port);
    for (int i = 0; i < 20; ++i)
        core.tick();
    // The dependent load must not issue while the first is in flight.
    EXPECT_EQ(port.accesses.size(), 1u);
    core.complete(port.pending.front());
    port.pending.pop_front();
    core.tick();
    EXPECT_EQ(port.accesses.size(), 2u);
}

TEST(Core, BackpressureRetriesOp)
{
    ScriptGen gen({load(0)});
    StubPort port;
    port.allowIssue = false;
    Core core(0, CoreParams{}, gen, port);
    core.tick();
    EXPECT_TRUE(port.accesses.empty());
    // The op is held, not dropped.
    port.allowIssue = true;
    core.tick();
    EXPECT_EQ(port.accesses.size(), 1u);
}

TEST(Core, GapInstructionsCounted)
{
    ScriptGen gen({load(9)});
    StubPort port;
    port.missEverything = false;
    Core core(0, CoreParams{}, gen, port);
    core.tick();
    // 9 gap instructions + the load itself, then the idle filler.
    EXPECT_GE(core.retiredInstructions(), 10u);
    EXPECT_EQ(core.issuedLoads(), 1u);
}

TEST(Core, CompleteUnknownTagTreatedAsStoreFetch)
{
    ScriptGen gen({store(0)});
    StubPort port;
    Core core(0, CoreParams{}, gen, port);
    core.tick();
    ASSERT_EQ(port.pending.size(), 1u);
    core.complete(port.pending.front());   // Store fetch completes.
    // No crash, no outstanding loads.
    EXPECT_EQ(core.outstandingLoads(), 0u);
}

} // namespace
} // namespace pra::cpu
