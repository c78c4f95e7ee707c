/**
 * @file
 * Scenario tests for the memory controller: FR-FCFS service, exact
 * latencies, row-hit caps, write drain, PRA mask merging, false-hit
 * handling, forwarding, restricted close-page auto-precharge, and
 * refresh.
 */
#include <gtest/gtest.h>

#include "dram/address_mapping.h"
#include "dram/controller.h"

namespace pra::dram {
namespace {

/** Single-channel controller harness with crafted addresses. */
class Harness
{
  public:
    explicit Harness(const SchemeModel *scheme = &schemeByName("baseline"),
                     PagePolicy policy = PagePolicy::RelaxedClose)
    {
        cfg.channels = 1;
        cfg.scheme = scheme;
        cfg.policy = policy;
        cfg.powerDownEnabled = false;   // Keep timing deterministic.
        mapper = std::make_unique<AddressMapper>(cfg);
        mc = std::make_unique<MemoryController>(cfg, 0);
    }

    Request
    make(std::uint32_t row, unsigned bank, unsigned col, bool is_write,
         WordMask mask = WordMask::full(), unsigned rank = 0)
    {
        DecodedAddr loc;
        loc.channel = 0;
        loc.rank = rank;
        loc.bank = bank;
        loc.row = row;
        loc.col = col;
        Request req;
        req.addr = mapper->encode(loc);
        req.isWrite = is_write;
        req.mask = mask;
        req.loc = loc;
        req.tag = nextTag++;
        return req;
    }

    void
    run(Cycle cycles)
    {
        const Cycle end = now + cycles;
        while (now < end)
            mc->tick(now++);
    }

    /** Run until the controller is idle (bounded). */
    void
    settle(Cycle limit = 5000)
    {
        const Cycle end = now + limit;
        while (now < end &&
               (mc->readQueueSize() || mc->writeQueueSize())) {
            mc->tick(now++);
        }
        run(64);   // Let in-flight data land.
    }

    DramConfig cfg;
    std::unique_ptr<AddressMapper> mapper;
    std::unique_ptr<MemoryController> mc;
    Cycle now = 0;
    std::uint64_t nextTag = 1;
};

TEST(Controller, ReadMissLatencyIsActPlusCasPlusBurst)
{
    Harness h;
    h.mc->enqueue(h.make(5, 0, 0, false), 0);
    h.settle();
    ASSERT_EQ(h.mc->completions().size(), 1u);
    const Completion &c = h.mc->completions()[0];
    const Timing &t = h.cfg.timing;
    EXPECT_EQ(c.latency, t.tRcd + t.rl() + t.burstCycles);
}

TEST(Controller, RowHitServedWithoutNewActivation)
{
    Harness h;
    h.mc->enqueue(h.make(5, 0, 0, false), 0);
    h.mc->enqueue(h.make(5, 0, 1, false), 0);
    h.settle();
    EXPECT_EQ(h.mc->completions().size(), 2u);
    EXPECT_EQ(h.mc->stats().actsForReads, 1u);
    EXPECT_EQ(h.mc->stats().readRowHits, 1u);
    EXPECT_EQ(h.mc->stats().readRowMisses, 1u);
}

TEST(Controller, RowConflictPrechargesAndReactivates)
{
    Harness h;
    h.mc->enqueue(h.make(5, 0, 0, false), 0);
    h.mc->enqueue(h.make(9, 0, 0, false), 0);
    h.settle();
    EXPECT_EQ(h.mc->completions().size(), 2u);
    EXPECT_EQ(h.mc->stats().actsForReads, 2u);
    EXPECT_GE(h.mc->stats().precharges, 1u);
    EXPECT_EQ(h.mc->stats().readRowHits, 0u);
}

TEST(Controller, RowHitCapForcesReactivation)
{
    Harness h;
    for (unsigned col = 0; col < 6; ++col)
        h.mc->enqueue(h.make(5, 0, col, false), 0);
    h.settle();
    EXPECT_EQ(h.mc->completions().size(), 6u);
    // Cap of 4 column accesses per activation: 6 requests need 2 ACTs.
    EXPECT_EQ(h.mc->stats().actsForReads, 2u);
    EXPECT_EQ(h.mc->stats().readRowHits, 4u);
    EXPECT_EQ(h.mc->stats().readRowMisses, 2u);
}

TEST(Controller, ReadsPrioritizedOverWrites)
{
    Harness h;
    // A write arrives first, then a read to a different bank.
    h.mc->enqueue(h.make(3, 1, 0, true), 0);
    h.mc->enqueue(h.make(4, 2, 0, false), 0);
    h.settle();
    // The read completes at its isolated-latency floor: the write never
    // got in its way.
    ASSERT_EQ(h.mc->completions().size(), 1u);
    const Timing &t = h.cfg.timing;
    EXPECT_EQ(h.mc->completions()[0].latency,
              t.tRcd + t.rl() + t.burstCycles);
    EXPECT_EQ(h.mc->energyCounts().writeLines, 1u);
}

TEST(Controller, WritesServicedWhenReadQueueEmpty)
{
    Harness h;
    h.mc->enqueue(h.make(3, 0, 0, true), 0);
    h.settle();
    EXPECT_EQ(h.mc->energyCounts().writeLines, 1u);
    EXPECT_EQ(h.mc->stats().actsForWrites, 1u);
    EXPECT_EQ(h.mc->writeQueueSize(), 0u);
}

TEST(Controller, WriteCombiningCoalescesSameLine)
{
    Harness h(&schemeByName("pra"));
    h.mc->enqueue(h.make(3, 0, 0, true, WordMask::single(0)), 0);
    h.mc->enqueue(h.make(3, 0, 0, true, WordMask::single(5)), 0);
    EXPECT_EQ(h.mc->writeQueueSize(), 1u);
    h.settle();
    EXPECT_EQ(h.mc->stats().writeReqs, 2u);
    EXPECT_EQ(h.mc->energyCounts().writeLines, 1u);
    // The coalesced line drives both dirty words.
    EXPECT_EQ(h.mc->energyCounts().writeWordsDriven, 2u);
}

TEST(Controller, ReadForwardedFromWriteQueue)
{
    Harness h;
    h.mc->enqueue(h.make(3, 0, 7, true), 0);
    h.mc->enqueue(h.make(3, 0, 7, false), 0);
    h.settle();
    EXPECT_EQ(h.mc->stats().forwardedReads, 1u);
    ASSERT_EQ(h.mc->completions().size(), 1u);
    EXPECT_EQ(h.mc->completions()[0].latency, 1u);
    // Only the write touched DRAM.
    EXPECT_EQ(h.mc->energyCounts().readLines, 0u);
}

TEST(Controller, PraWriteActivationUsesMergedMask)
{
    Harness h(&schemeByName("pra"));
    // Two queued writes to the same row, different words: one partial
    // activation of granularity 2 serves both (Section 5.2.1).
    h.mc->enqueue(h.make(3, 0, 0, true, WordMask::single(0)), 0);
    h.mc->enqueue(h.make(3, 0, 1, true, WordMask::single(7)), 0);
    h.settle();
    EXPECT_EQ(h.mc->stats().actsForWrites, 1u);
    EXPECT_EQ(h.mc->stats().actGranularity.count(2), 1u);
    EXPECT_EQ(h.mc->energyCounts().acts[1], 1u);
    EXPECT_EQ(h.mc->energyCounts().writeWordsDriven, 2u);
    EXPECT_EQ(h.mc->stats().writeRowHits, 1u);   // Second write rode along.
}

TEST(Controller, PraWriteFalseHitPrechargesAndReactivates)
{
    Harness h(&schemeByName("pra"));
    h.mc->enqueue(h.make(3, 0, 0, true, WordMask::single(0)), 0);
    // Wait until the partial activation happened.
    while (h.now < 2000 && h.mc->stats().actsForWrites == 0)
        h.mc->tick(h.now++);
    ASSERT_EQ(h.mc->stats().actsForWrites, 1u);
    // A write needing a closed MAT group arrives while the partial row
    // is still open.
    h.mc->enqueue(h.make(3, 0, 1, true, WordMask::single(4)), h.now);
    h.settle();
    EXPECT_EQ(h.mc->stats().writeFalseHits, 1u);
    EXPECT_EQ(h.mc->stats().actsForWrites, 2u);
    EXPECT_EQ(h.mc->energyCounts().writeLines, 2u);
}

TEST(Controller, PraReadFalseHitOnPartialRow)
{
    Harness h(&schemeByName("pra"));
    h.mc->enqueue(h.make(3, 0, 0, true, WordMask::single(0)), 0);
    while (h.now < 2000 && h.mc->stats().actsForWrites == 0)
        h.mc->tick(h.now++);
    // A read to the partially opened row: conventional DRAM would hit.
    h.mc->enqueue(h.make(3, 0, 5, false), h.now);
    h.settle();
    EXPECT_EQ(h.mc->stats().readFalseHits, 1u);
    ASSERT_EQ(h.mc->completions().size(), 1u);
    // It was re-activated as a full row.
    EXPECT_EQ(h.mc->energyCounts().acts[7], 1u);
}

TEST(Controller, PraReadHitOnPartialRowWithinFootprintStillFalse)
{
    // Reads need the full row (n-bit prefetch over all MAT groups), so
    // even a read "inside" the open footprint is a false hit.
    Harness h(&schemeByName("pra"));
    h.mc->enqueue(h.make(3, 0, 0, true, WordMask::full()), 0);
    while (h.now < 2000 && h.mc->stats().actsForWrites == 0)
        h.mc->tick(h.now++);
    // Full-mask write opened the whole row: a read must actually HIT.
    h.mc->enqueue(h.make(3, 0, 2, false), h.now);
    h.settle();
    EXPECT_EQ(h.mc->stats().readFalseHits, 0u);
    EXPECT_EQ(h.mc->stats().readRowHits, 1u);
}

TEST(Controller, CombineThatShrinksAFootprintStillServesTheRowHit)
{
    // An empty dirty mask means the full row, so OR-ing a non-empty mask
    // into it narrows the write's footprint: a false hit turns into a
    // row hit that openRowMatches never counted. The column scan must
    // still find it instead of closing and re-opening the row.
    Harness h(&schemeByName("pra"));
    h.mc->enqueue(h.make(3, 0, 0, true, WordMask::single(0)), 0);
    while (h.now < 2000 && h.mc->stats().actsForWrites == 0)
        h.mc->tick(h.now++);
    ASSERT_EQ(h.mc->stats().actsForWrites, 1u);
    ASSERT_EQ(h.mc->writeQueueSize(), 1u);   // Still waiting for tRCD.
    h.mc->enqueue(h.make(3, 0, 1, true, WordMask::none()), h.now);
    EXPECT_EQ(h.mc->bankEngine().openRowMatches(0, 0), 1u);
    h.mc->enqueue(h.make(3, 0, 1, true, WordMask::single(0)), h.now);
    EXPECT_EQ(h.mc->writeQueueSize(), 2u);   // Combined.
    h.settle();
    EXPECT_EQ(h.mc->energyCounts().writeLines, 2u);
    EXPECT_EQ(h.mc->stats().actsForWrites, 1u);
    EXPECT_EQ(h.mc->stats().writeRowHits, 1u);
    EXPECT_EQ(h.mc->stats().writeFalseHits, 0u);
}

TEST(Controller, SpecReadFalseHitKeepsFullRowFallbackAcrossAConflict)
{
    // pra_spec_read: a read that false-hits a write's partial row waits
    // in the secondary queue while the write drain runs, and a write to
    // another row then closes its bank. Its own re-activation must open
    // the full row: the false hit was observed when the read was queued,
    // not by a scan that reached it later.
    const SchemeModel &spec = schemeByName("pra_spec_read");
    Harness h(&spec);
    h.cfg.writeHighWatermark = 2;   // Two queued writes start a drain.
    h.cfg.writeLowWatermark = 0;
    h.mc = std::make_unique<MemoryController>(h.cfg, 0);

    // A read column whose predicted mask is partial, and a dirty word
    // outside the words it needs.
    Request read;
    unsigned word = 0;
    for (unsigned col = 1; col < 64; ++col) {
        read = h.make(3, 0, col, false);
        const WordMask need = spec.readNeed(read.addr);
        if (need.isFull() || spec.readActMask(read.addr).isFull())
            continue;
        while (need.test(word))
            ++word;
        break;
    }
    ASSERT_FALSE(spec.readActMask(read.addr).isFull());
    ASSERT_LT(word, 8u);

    h.mc->enqueue(h.make(3, 0, 0, true, WordMask::single(word)), 0);
    h.mc->enqueue(h.make(9, 0, 0, true, WordMask::single(word)), 0);
    while (h.now < 2000 && h.mc->stats().actsForWrites == 0)
        h.mc->tick(h.now++);
    ASSERT_TRUE(h.mc->rank(0).bank(0).isOpen());
    h.mc->enqueue(read, h.now);
    h.settle();

    ASSERT_EQ(h.mc->completions().size(), 1u);
    EXPECT_EQ(h.mc->stats().actsForWrites, 2u);   // Row 3, then row 9.
    EXPECT_EQ(h.mc->stats().actsForReads, 1u);
    // The read's only activation opened all eight MAT groups.
    EXPECT_EQ(h.mc->stats().readActGranularity.count(8), 1u);
}

TEST(Controller, RestrictedClosePageAutoPrecharges)
{
    Harness h(&schemeByName("baseline"), PagePolicy::RestrictedClose);
    h.mc->enqueue(h.make(5, 0, 0, false), 0);
    h.mc->enqueue(h.make(5, 0, 1, false), 0);
    h.settle();
    // Same row, but every access re-activates.
    EXPECT_EQ(h.mc->stats().actsForReads, 2u);
    EXPECT_EQ(h.mc->stats().readRowHits, 0u);
    EXPECT_EQ(h.mc->stats().precharges, 2u);
}

TEST(Controller, FgaDoublesTransferTime)
{
    Harness base(&schemeByName("baseline"));
    base.mc->enqueue(base.make(5, 0, 0, false), 0);
    base.settle();
    Harness fga(&schemeByName("fga"));
    fga.mc->enqueue(fga.make(5, 0, 0, false), 0);
    fga.settle();
    ASSERT_EQ(base.mc->completions().size(), 1u);
    ASSERT_EQ(fga.mc->completions().size(), 1u);
    EXPECT_EQ(fga.mc->completions()[0].latency,
              base.mc->completions()[0].latency +
                  base.cfg.timing.burstCycles);
    // FGA's half-row activation is recorded at granularity 4.
    EXPECT_EQ(fga.mc->energyCounts().acts[3], 1u);
}

TEST(Controller, HalfDramRecordsHalfHeightActs)
{
    Harness h(&schemeByName("halfdram"));
    h.mc->enqueue(h.make(5, 0, 0, false), 0);
    h.mc->enqueue(h.make(6, 1, 0, true, WordMask::single(0)), 0);
    h.settle();
    EXPECT_EQ(h.mc->energyCounts().actsHalfHeight[7], 2u);
    EXPECT_EQ(h.mc->energyCounts().acts[7], 0u);
    // Half-DRAM still transfers the full line on writes.
    EXPECT_EQ(h.mc->energyCounts().writeWordsDriven, kWordsPerLine);
}

TEST(Controller, DataBusSerializesBursts)
{
    Harness h;
    // Two reads to different banks: second data transfer must wait for
    // the bus.
    h.mc->enqueue(h.make(5, 0, 0, false), 0);
    h.mc->enqueue(h.make(6, 1, 0, false), 0);
    h.settle();
    ASSERT_EQ(h.mc->completions().size(), 2u);
    const Cycle f0 = h.mc->completions()[0].finish;
    const Cycle f1 = h.mc->completions()[1].finish;
    EXPECT_GE(f1 > f0 ? f1 - f0 : f0 - f1, h.cfg.timing.burstCycles);
}

TEST(Controller, WriteToReadTurnaroundEnforced)
{
    Harness h;
    h.mc->enqueue(h.make(3, 0, 0, true), 0);
    // Let the write issue, then present a read to another bank.
    while (h.now < 2000 && h.mc->energyCounts().writeLines == 0)
        h.mc->tick(h.now++);
    const Cycle write_issued = h.now;
    h.mc->enqueue(h.make(4, 1, 0, false), h.now);
    h.settle();
    ASSERT_EQ(h.mc->completions().size(), 1u);
    const Timing &t = h.cfg.timing;
    // Read command could not start before the tWTR window passed.
    EXPECT_GE(h.mc->completions()[0].finish,
              write_issued + t.wl + t.burstCycles + t.tWtr);
}

TEST(Controller, RefreshIssuedEveryTrefi)
{
    Harness h;
    h.run(2 * h.cfg.timing.tRefi + 200);
    // Two ranks, two tREFI windows each (staggered start).
    EXPECT_GE(h.mc->stats().refreshes, 3u);
    EXPECT_EQ(h.mc->energyCounts().refreshOps, h.mc->stats().refreshes);
}

TEST(Controller, RefreshDrainsOpenBankFirst)
{
    Harness h;
    // Open a row just before the refresh deadline.
    h.now = h.cfg.timing.tRefi - 20;
    h.mc->enqueue(h.make(5, 0, 0, false), h.now);
    h.run(400);
    EXPECT_GE(h.mc->stats().refreshes, 1u);
    EXPECT_EQ(h.mc->completions().size(), 1u);
}

TEST(Controller, QueueCapacityEnforced)
{
    Harness h;
    for (unsigned i = 0; i < h.cfg.readQueueDepth; ++i) {
        ASSERT_TRUE(h.mc->canAccept(false));
        h.mc->enqueue(h.make(i, i % 8, 0, false), 0);
    }
    EXPECT_FALSE(h.mc->canAccept(false));
    EXPECT_TRUE(h.mc->canAccept(true));
}

TEST(Controller, BusyReflectsOutstandingWork)
{
    Harness h;
    EXPECT_FALSE(h.mc->busy());
    h.mc->enqueue(h.make(1, 0, 0, false), 0);
    EXPECT_TRUE(h.mc->busy());
    h.settle();
    h.mc->completions().clear();
    EXPECT_FALSE(h.mc->busy());
}

/** Property: under every scheme, N random requests all complete. */
class ControllerSchemeSweep : public ::testing::TestWithParam<const SchemeModel *>
{
};

TEST_P(ControllerSchemeSweep, AllRequestsServiced)
{
    Harness h(GetParam());
    unsigned reads = 0;
    std::uint64_t state = 12345;
    for (int i = 0; i < 200; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const bool is_write = (state >> 33) % 3 == 0;
        const auto row = static_cast<std::uint32_t>((state >> 20) % 64);
        const auto bank = static_cast<unsigned>((state >> 40) % 8);
        const auto col = static_cast<unsigned>((state >> 50) % 32);
        const auto word = static_cast<unsigned>((state >> 10) % 8);
        if (!h.mc->canAccept(is_write)) {
            h.run(200);
        }
        ASSERT_TRUE(h.mc->canAccept(is_write));
        h.mc->enqueue(h.make(row, bank, col, is_write,
                             WordMask::single(word)),
                      h.now);
        reads += is_write ? 0 : 1;
        h.run(3);
    }
    h.settle(200000);
    // Forwarded reads also produce completions, so completions alone
    // must account for every read.
    EXPECT_EQ(h.mc->completions().size(), reads);
    EXPECT_EQ(h.mc->readQueueSize(), 0u);
    EXPECT_EQ(h.mc->writeQueueSize(), 0u);
    // Activation bookkeeping is consistent.
    const auto &e = h.mc->energyCounts();
    std::uint64_t acts = 0;
    for (int g = 0; g < 8; ++g)
        acts += e.acts[g] + e.actsHalfHeight[g];
    EXPECT_EQ(acts,
              h.mc->stats().actsForReads + h.mc->stats().actsForWrites);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ControllerSchemeSweep,
                         ::testing::Values(&schemeByName("baseline"), &schemeByName("fga"),
                                           &schemeByName("halfdram"), &schemeByName("pra"),
                                           &schemeByName("halfdram+pra")));

} // namespace
} // namespace pra::dram
