/**
 * @file
 * Tests for the Dirty-Block Index: row-grouped dirty tracking and the
 * DRAM-aware proactive writeback it drives through the hierarchy, and a
 * differential test against a reference model of the original
 * map-of-vectors index.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "cache/hierarchy.h"
#include "common/hash.h"
#include "common/rng.h"

namespace pra::cache {
namespace {

/** Row key: 8 consecutive lines per "DRAM row". */
std::uint64_t
rowOf(Addr addr)
{
    return addr / (8 * kLineBytes);
}

HierarchyConfig
dbiConfig()
{
    HierarchyConfig cfg;
    cfg.numCores = 1;
    cfg.l1 = CacheParams{512, 2, kLineBytes};
    cfg.l2 = CacheParams{2048, 2, kLineBytes};
    cfg.enableDbi = true;
    cfg.dbiRowKey = rowOf;
    return cfg;
}


/** Line number -> address. */
constexpr Addr
line(Addr l)
{
    return l * kLineBytes;
}

/**
 * Core @p core stores to line @p l, then touches two other lines of the
 * same L1 set (L1 sets 4..15 of the L2 stay out of the tests' way), so
 * the dirty line leaves the L1 and its bytes land in the L2.
 */
void
dirtyInL2(Hierarchy &h, Addr l, unsigned core = 0)
{
    h.access(core, line(l), true, ByteMask::word(l % 8));
    const Addr set = l % 4;
    h.access(core, line(set + 4), false, ByteMask::none());
    h.access(core, line(set + 12), false, ByteMask::none());
}

/** Accesses by @p core, collecting every writeback they cause. */
std::vector<Writeback>
touch(Hierarchy &h, std::initializer_list<Addr> lines, unsigned core = 0)
{
    std::vector<Writeback> all;
    for (Addr l : lines) {
        const auto out = h.access(core, line(l), false, ByteMask::none());
        all.insert(all.end(), out.writebacks.begin(), out.writebacks.end());
    }
    return all;
}

TEST(Dbi, TracksDirtyLines)
{
    Hierarchy h(dbiConfig());
    dirtyInL2(h, 0);
    dirtyInL2(h, 1);
    EXPECT_EQ(h.dbi()->trackedLines(), 2u);
    dirtyInL2(h, 1);   // Already dirty in the L2: tracked once.
    EXPECT_EQ(h.dbi()->trackedLines(), 2u);
    dirtyInL2(h, 9);   // Row 1.
    EXPECT_EQ(h.dbi()->trackedLines(), 3u);
    EXPECT_TRUE(h.dbi()->isTracked(line(1)));
    EXPECT_FALSE(h.dbi()->isTracked(line(2)));

    // Evicting line 0 (L2 set 0) drops row 0; the clean eviction of
    // line 16 that follows leaves the index alone.
    EXPECT_EQ(touch(h, {16, 32}).size(), 2u);
    EXPECT_EQ(h.dbi()->trackedLines(), 1u);
    EXPECT_TRUE(touch(h, {48}).empty());
    EXPECT_EQ(h.dbi()->trackedLines(), 1u);
    EXPECT_EQ(h.dbi()->trackedAddresses(), std::vector<Addr>{line(9)});

    EXPECT_EQ(h.flush().size(), 1u);
    EXPECT_EQ(h.dbi()->trackedLines(), 0u);
    EXPECT_TRUE(h.dbi()->trackedAddresses().empty());
}

TEST(Dbi, SiblingsAreSameRowOnly)
{
    Hierarchy h(dbiConfig());
    dirtyInL2(h, 0);   // Row 0.
    dirtyInL2(h, 3);   // Row 0.
    dirtyInL2(h, 9);   // Row 1.
    const std::vector<Writeback> wbs = touch(h, {16, 32});
    ASSERT_EQ(wbs.size(), 2u);
    EXPECT_EQ(wbs[0].addr, line(0));
    EXPECT_EQ(wbs[1].addr, line(3));
    // Row 0 is consumed; row 1 is still tracked.
    EXPECT_EQ(h.dbi()->trackedLines(), 1u);
    EXPECT_TRUE(h.dbi()->isTracked(line(9)));
    EXPECT_EQ(h.dbi()->proactiveWritebacks(), 1u);
}

TEST(Dbi, EvictionOfUntrackedLineIsEmpty)
{
    HierarchyConfig cfg = dbiConfig();
    cfg.numCores = 2;
    Hierarchy h(cfg);
    dirtyInL2(h, 9);   // Row 1.
    // Line 0 is dirty in core 0's L1 only, so the L2 copy is clean and
    // untracked; core 1 then pushes it out of the L2.
    h.access(0, line(0), true, ByteMask::word(2));
    const std::vector<Writeback> wbs = touch(h, {16, 32}, 1);
    // Back-invalidation found the bytes in core 0's L1; row 0 had no
    // tracked lines, so nothing else leaves.
    ASSERT_EQ(wbs.size(), 1u);
    EXPECT_EQ(wbs[0].addr, line(0));
    EXPECT_EQ(wbs[0].praMask(), WordMask::single(2));
    EXPECT_FALSE(h.l1(0).contains(line(0)));
    EXPECT_EQ(h.dbi()->proactiveWritebacks(), 0u);
    EXPECT_EQ(h.dbi()->trackedLines(), 1u);
}

TEST(DbiHierarchy, EvictionFlushesWholeRowGroup)
{
    Hierarchy h(dbiConfig());
    // Dirty two lines of the same "row" (lines 0 and 1), push them to
    // the L2 by thrashing the L1 set each maps to.
    h.access(0, 0 * kLineBytes, true, ByteMask::word(0));
    h.access(0, 1 * kLineBytes, true, ByteMask::word(1));
    // Force both out of L1 (L1 has 4 sets of 2; lines 0,8,16 share set 0
    // and lines 1,9,17 share set 1).
    for (Addr l : {8, 16, 9, 17})
        h.access(0, l * kLineBytes, false, ByteMask::none());

    // Now evict line 0 from the 16-set, 2-way L2: lines 0, 32, 64 share
    // L2 set 0.
    std::vector<Writeback> all;
    for (Addr l : {32, 64}) {
        const auto out = h.access(0, l * kLineBytes, false,
                                  ByteMask::none());
        all.insert(all.end(), out.writebacks.begin(),
                   out.writebacks.end());
    }
    // DBI turned the eviction of line 0 into writebacks of BOTH dirty
    // lines of row 0, each with its own mask.
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0].addr, 0u);
    EXPECT_EQ(all[1].addr, 1 * kLineBytes);
    EXPECT_EQ(all[0].praMask(), WordMask::single(0));
    EXPECT_EQ(all[1].praMask(), WordMask::single(1));
    // The sibling stays resident but clean.
    EXPECT_TRUE(h.l2().contains(1 * kLineBytes));
    EXPECT_TRUE(h.l2().dirtyMask(1 * kLineBytes).empty());
    EXPECT_EQ(h.dbi()->proactiveWritebacks(), 1u);
}

TEST(DbiHierarchy, SiblingDirtyBytesPulledFromL1)
{
    Hierarchy h(dbiConfig());
    // Line 1 reaches the L2 dirty (word 1), then is re-dirtied in the L1
    // (word 7). The row flush triggered by line 0's eviction must union
    // both dirtiness levels into the sibling writeback.
    h.access(0, 0 * kLineBytes, true, ByteMask::word(0));
    h.access(0, 1 * kLineBytes, true, ByteMask::word(1));
    for (Addr l : {8, 16, 9, 17})   // Evict lines 0 and 1 from the L1.
        h.access(0, l * kLineBytes, false, ByteMask::none());
    h.access(0, 1 * kLineBytes, true, ByteMask::word(7));   // Back in L1.

    std::vector<Writeback> all;
    for (Addr l : {32, 64}) {
        const auto out = h.access(0, l * kLineBytes, false,
                                  ByteMask::none());
        all.insert(all.end(), out.writebacks.begin(),
                   out.writebacks.end());
    }
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[1].addr, 1 * kLineBytes);
    EXPECT_EQ(all[1].praMask().bits(), 0b10000010u);
    // Both copies of the sibling are clean afterwards.
    EXPECT_TRUE(h.l1(0).dirtyMask(1 * kLineBytes).empty());
    EXPECT_TRUE(h.l2().dirtyMask(1 * kLineBytes).empty());
}

TEST(DbiHierarchy, CleanEvictionTriggersNothing)
{
    Hierarchy h(dbiConfig());
    h.access(0, 0 * kLineBytes, false, ByteMask::none());
    std::vector<Writeback> all;
    for (Addr l : {32, 64}) {
        const auto out = h.access(0, l * kLineBytes, false,
                                  ByteMask::none());
        all.insert(all.end(), out.writebacks.begin(),
                   out.writebacks.end());
    }
    EXPECT_TRUE(all.empty());
}

TEST(DbiHierarchy, WritebackCountMatchesHistogram)
{
    Hierarchy h(dbiConfig());
    std::uint64_t state = 17;
    for (int i = 0; i < 3000; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const Addr a = ((state >> 25) % 256) * kLineBytes;
        const bool wr = (state >> 11) % 2 == 0;
        h.access(0, a, wr, ByteMask::word(state % 8));
    }
    h.flush();
    EXPECT_EQ(h.memWrites(), h.dirtyWordsHistogram().total());
}

/**
 * The hierarchy as first written, as a reference: every L1 probed on
 * each L2 eviction and sibling, and the DBI as a map from row key to the
 * row's dirty line addresses in the order they were first marked dirty.
 */
class ReferenceHierarchy
{
  public:
    explicit ReferenceHierarchy(const HierarchyConfig &cfg)
        : l2_(cfg.l2), rowKey_(cfg.dbiRowKey)
    {
        for (unsigned c = 0; c < cfg.numCores; ++c)
            l1s_.emplace_back(cfg.l1);
    }

    std::vector<Writeback>
    access(unsigned core, Addr addr, bool is_write, ByteMask bytes)
    {
        std::vector<Writeback> out;
        addr = lineBase(addr);
        const AccessResult r1 = l1s_[core].access(addr, is_write, bytes);
        if (r1.hit)
            return out;
        if (r1.evicted && r1.evicted->isDirty()) {
            l2_.mergeDirty(r1.evicted->addr, r1.evicted->dirty);
            auto &lines = rows_[rowKey_(r1.evicted->addr)];
            if (std::find(lines.begin(), lines.end(), r1.evicted->addr) ==
                lines.end())
                lines.push_back(r1.evicted->addr);
        }
        const AccessResult r2 = l2_.access(addr, false, ByteMask::none());
        if (r2.hit || !r2.evicted)
            return out;

        const Addr victim = r2.evicted->addr;
        ByteMask dirty = r2.evicted->dirty;
        for (Cache &l1 : l1s_) {
            if (auto gone = l1.invalidate(victim))
                dirty |= gone->dirty;
        }
        const auto row = rows_.find(rowKey_(victim));
        if (dirty.empty()) {
            if (row != rows_.end()) {
                auto &lines = row->second;
                lines.erase(std::remove(lines.begin(), lines.end(), victim),
                            lines.end());
                if (lines.empty())
                    rows_.erase(row);
            }
            return out;
        }
        std::vector<Addr> siblings;
        if (row != rows_.end()) {
            for (Addr a : row->second) {
                if (a != victim)
                    siblings.push_back(a);
            }
            proactive_ += siblings.size();
            rows_.erase(row);
        }
        out.push_back({victim, dirty});
        for (Addr sib : siblings) {
            ByteMask d = l2_.dirtyMask(sib);
            for (Cache &l1 : l1s_) {
                d |= l1.dirtyMask(sib);
                l1.cleanLine(sib);
            }
            if (!d.empty()) {
                l2_.cleanLine(sib);
                out.push_back({sib, d});
            }
        }
        return out;
    }

    std::vector<Writeback>
    flush()
    {
        std::vector<Writeback> out;
        for (Cache &l1 : l1s_) {
            for (const EvictedLine &l : l1.collectDirtyLines()) {
                l2_.mergeDirty(l.addr, l.dirty);
                l1.cleanLine(l.addr);
            }
        }
        for (const EvictedLine &l : l2_.collectDirtyLines()) {
            l2_.cleanLine(l.addr);
            out.push_back({l.addr, l.dirty});
        }
        rows_.clear();
        return out;
    }

    std::uint64_t proactive() const { return proactive_; }

    std::vector<Addr>
    trackedAddresses() const
    {
        std::vector<Addr> addrs;
        for (const auto &[key, lines] : rows_)
            addrs.insert(addrs.end(), lines.begin(), lines.end());
        return addrs;
    }

    /** DirtyBlockIndex::auditFingerprint's definition over the map. */
    std::uint64_t
    fingerprint() const
    {
        Fnv1a h;
        h.add(static_cast<std::uint64_t>(trackedAddresses().size()));
        h.add(proactive_);
        for (const auto &[key, lines] : rows_) {
            h.add(key);
            for (Addr a : lines)
                h.add(a);
        }
        return h.value();
    }

  private:
    std::vector<Cache> l1s_;
    Cache l2_;
    std::function<std::uint64_t(Addr)> rowKey_;
    std::map<std::uint64_t, std::vector<Addr>> rows_;
    std::uint64_t proactive_ = 0;
};

/**
 * @p cores cores over a 64-line L2 and 8-line rows: rows collide in
 * sets. Past eight cores, cores c and c + 8 share a sharer bit.
 */
HierarchyConfig
differentialConfig(unsigned cores = 4)
{
    HierarchyConfig cfg;
    cfg.numCores = cores;
    cfg.l1 = CacheParams{512, 2, kLineBytes};
    cfg.l2 = CacheParams{4096, 4, kLineBytes};
    cfg.enableDbi = true;
    cfg.dbiRowKey = rowOf;
    return cfg;
}

/** Runs @p ops seeded accesses through both models, comparing each. */
void
expectSameStream(Hierarchy &h, ReferenceHierarchy &ref, Rng &rng, int ops)
{
    for (int i = 0; i < ops; ++i) {
        const unsigned core =
            static_cast<unsigned>(rng.below(h.numCores()));
        const Addr addr = rng.below(512 * kLineBytes);
        const bool is_write = rng.chance(0.4);
        const ByteMask bytes =
            is_write ? ByteMask::word(static_cast<unsigned>(rng.below(8)))
                     : ByteMask::none();
        const HierarchyOutcome out = h.access(core, addr, is_write, bytes);
        const std::vector<Writeback> want =
            ref.access(core, addr, is_write, bytes);
        ASSERT_EQ(out.writebacks.size(), want.size()) << "access " << i;
        for (std::size_t w = 0; w < want.size(); ++w) {
            ASSERT_EQ(out.writebacks[w].addr, want[w].addr) << "access " << i;
            ASSERT_EQ(out.writebacks[w].dirty.bits(), want[w].dirty.bits())
                << "access " << i;
        }
        ASSERT_EQ(h.dbi()->proactiveWritebacks(), ref.proactive());
    }
    EXPECT_EQ(h.dbi()->trackedAddresses(), ref.trackedAddresses());
    EXPECT_EQ(h.dbi()->auditFingerprint(), ref.fingerprint());
}

void
expectSameFlush(Hierarchy &h, ReferenceHierarchy &ref)
{
    const std::vector<Writeback> got = h.flush();
    const std::vector<Writeback> want = ref.flush();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t w = 0; w < want.size(); ++w) {
        EXPECT_EQ(got[w].addr, want[w].addr);
        EXPECT_EQ(got[w].dirty.bits(), want[w].dirty.bits());
    }
    EXPECT_EQ(h.dbi()->trackedLines(), 0u);
}

TEST(DbiDifferential, RowListsMatchReferenceModel)
{
    for (auto [seed, cores] : {std::pair{1u, 4u}, {2u, 4u}, {3u, 4u},
                               {4u, 4u}, {5u, 10u}}) {
        SCOPED_TRACE(seed);
        Hierarchy h(differentialConfig(cores));
        ReferenceHierarchy ref(differentialConfig(cores));
        Rng rng(seed);
        expectSameStream(h, ref, rng, 20000);
        EXPECT_GT(ref.proactive(), 0u);
        expectSameFlush(h, ref);
    }
}

TEST(DbiDifferential, CopyConstructedForkMatchesReferenceModel)
{
    Hierarchy h(differentialConfig());
    ReferenceHierarchy ref(differentialConfig());
    Rng rng(5);
    expectSameStream(h, ref, rng, 10000);

    // The fork owns its own row lists: driving the source further must
    // not disturb it, and both continue exactly as the reference does.
    Hierarchy fork(h);
    ReferenceHierarchy ref_fork(ref);
    Rng fork_rng = rng;
    EXPECT_EQ(fork.auditFingerprint(), h.auditFingerprint());
    expectSameStream(h, ref, rng, 10000);
    expectSameStream(fork, ref_fork, fork_rng, 10000);
    EXPECT_EQ(fork.auditFingerprint(), h.auditFingerprint());
    expectSameFlush(fork, ref_fork);
}

/**
 * A DBI over a bare 32-line L2 whose row 0 lists lines 0, 1 and 2, with
 * line @p from's way linked back to line 0's: a cycle no correct update
 * makes (from = 2 closes it at the tail, from = 1 before it). Line 3
 * (row 0) is resident but not listed.
 */
struct CyclicRow
{
    Cache l2{CacheParams{32 * kLineBytes, 2, kLineBytes}};
    DirtyBlockIndex dbi{rowOf, l2};
    std::uint32_t ways[4] = {};

    explicit CyclicRow(unsigned from)
    {
        for (unsigned l = 0; l < 4; ++l)
            ways[l] = l2.access(line(l), true, ByteMask::word(0)).way;
        for (unsigned l = 0; l < 3; ++l)
            dbi.append(ways[l]);
        l2.setLink(ways[from], ways[0]);
    }
};

TEST(Dbi, LinkCycleFailsFastInEveryWalk)
{
    std::vector<std::uint32_t> siblings;
    for (unsigned from : {1u, 2u}) {
        SCOPED_TRACE(from);
        {
            CyclicRow c(from);
            EXPECT_THROW(c.dbi.takeRow(line(0), c.ways[0], siblings),
                         std::logic_error);
        }
        {
            CyclicRow c(from);
            EXPECT_THROW(c.dbi.listsWay(line(3), c.ways[3]),
                         std::logic_error);
        }
        {
            CyclicRow c(from);
            EXPECT_THROW(c.dbi.isTracked(line(3)), std::logic_error);
        }
        {
            CyclicRow c(from);
            EXPECT_THROW(c.dbi.trackedAddresses(), std::logic_error);
        }
        {
            CyclicRow c(from);
            EXPECT_THROW(c.dbi.auditFingerprint(), std::logic_error);
        }
        {
            CyclicRow c(from);
            EXPECT_THROW(c.dbi.clear(), std::logic_error);
        }
    }
    // With the tail's link empty again the row walks cleanly.
    CyclicRow c(2);
    c.l2.setLink(c.ways[2], Cache::kNoWay);
    EXPECT_FALSE(c.dbi.isTracked(line(3)));
    EXPECT_EQ(c.dbi.trackedAddresses(),
              (std::vector<Addr>{line(0), line(1), line(2)}));
    c.dbi.takeRow(line(0), c.ways[0], siblings);
    EXPECT_EQ(siblings,
              (std::vector<std::uint32_t>{c.ways[1], c.ways[2]}));
    EXPECT_EQ(c.dbi.trackedLines(), 0u);
}

} // namespace
} // namespace pra::cache
