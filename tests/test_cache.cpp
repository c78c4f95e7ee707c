/**
 * @file
 * Tests for the FGD set-associative cache: hits/misses, LRU victim
 * selection, byte-granularity dirty accumulation, eviction address
 * reconstruction, and invalidation.
 */
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "cache/cache.h"

namespace pra::cache {
namespace {

CacheParams
tiny()
{
    // 4 sets x 2 ways x 64 B = 512 B.
    return CacheParams{512, 2, kLineBytes};
}

TEST(Cache, GeometryFromParams)
{
    EXPECT_EQ(tiny().numSets(), 4u);
    EXPECT_EQ(CacheParams{}.numSets(), 32u * 1024 / 64 / 4);
}

TEST(Cache, MissThenHit)
{
    Cache c(tiny());
    EXPECT_FALSE(c.access(0x1000, false, ByteMask::none()).hit);
    EXPECT_TRUE(c.access(0x1000, false, ByteMask::none()).hit);
    EXPECT_TRUE(c.access(0x1020, false, ByteMask::none()).hit)
        << "same line, different offset";
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, StoreAccumulatesDirtyBytes)
{
    Cache c(tiny());
    c.access(0x1000, true, ByteMask::word(0));
    c.access(0x1000, true, ByteMask::word(5));
    const ByteMask dirty = c.dirtyMask(0x1000);
    EXPECT_EQ(dirty.toWordMask().bits(), 0b00100001u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache c(tiny());
    // Three lines mapping to set 0 (set index stride = 4 lines).
    const Addr a = 0 * 256, b = 1 * 256, d = 2 * 256;
    c.access(a, false, ByteMask::none());
    c.access(b, false, ByteMask::none());
    c.access(a, false, ByteMask::none());   // Refresh a's recency.
    const AccessResult r = c.access(d, false, ByteMask::none());
    ASSERT_TRUE(r.evicted.has_value());
    EXPECT_EQ(r.evicted->addr, b);
    EXPECT_TRUE(c.contains(a));
    EXPECT_FALSE(c.contains(b));
}

TEST(Cache, EvictionCarriesDirtyMask)
{
    Cache c(tiny());
    c.access(0, true, ByteMask::word(3));
    c.access(256, false, ByteMask::none());
    const AccessResult r = c.access(512, false, ByteMask::none());
    ASSERT_TRUE(r.evicted.has_value());
    EXPECT_EQ(r.evicted->addr, 0u);
    EXPECT_TRUE(r.evicted->isDirty());
    EXPECT_EQ(r.evicted->dirty.toWordMask(), WordMask::single(3));
    EXPECT_EQ(c.dirtyEvictions(), 1u);
}

TEST(Cache, CleanEvictionHasEmptyMask)
{
    Cache c(tiny());
    c.access(0, false, ByteMask::none());
    c.access(256, false, ByteMask::none());
    const AccessResult r = c.access(512, false, ByteMask::none());
    ASSERT_TRUE(r.evicted.has_value());
    EXPECT_FALSE(r.evicted->isDirty());
}

TEST(Cache, InvalidateReturnsStateAndRemoves)
{
    Cache c(tiny());
    c.access(0x40, true, ByteMask::word(1));
    const auto line = c.invalidate(0x40);
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(line->addr, 0x40u);
    EXPECT_EQ(line->dirty.toWordMask(), WordMask::single(1));
    EXPECT_FALSE(c.contains(0x40));
    EXPECT_FALSE(c.invalidate(0x40).has_value());
}

TEST(Cache, MergeDirtyOnResidentLine)
{
    Cache c(tiny());
    c.access(0x80, false, ByteMask::none());
    c.mergeDirty(0x80, ByteMask::word(7));
    EXPECT_EQ(c.dirtyMask(0x80).toWordMask(), WordMask::single(7));
    // Merging into an absent line is a no-op.
    c.mergeDirty(0xfff00, ByteMask::word(0));
    EXPECT_TRUE(c.dirtyMask(0xfff00).empty());
}

TEST(Cache, MergeDirtyReportsCleanToDirtyTransition)
{
    Cache c(tiny());
    const std::uint32_t way = c.access(0x80, false, ByteMask::none()).way;
    EXPECT_EQ(c.wayOf(0x80), way);
    EXPECT_EQ(c.wayAddr(way), 0x80u);
    EXPECT_EQ(c.mergeDirty(0x80, ByteMask::word(1)), way);
    // Already dirty, an empty merge, or an absent line: no transition.
    EXPECT_EQ(c.mergeDirty(0x80, ByteMask::word(2)), Cache::kNoWay);
    c.access(0xc0, false, ByteMask::none());
    EXPECT_EQ(c.mergeDirty(0xc0, ByteMask::none()), Cache::kNoWay);
    EXPECT_EQ(c.mergeDirty(0xfff00, ByteMask::word(0)), Cache::kNoWay);
    EXPECT_EQ(c.wayOf(0xfff00), Cache::kNoWay);
}

TEST(Cache, CleanLineClearsDirty)
{
    Cache c(tiny());
    c.access(0x80, true, ByteMask::word(2));
    EXPECT_EQ(c.cleanLine(0x80).toWordMask(), WordMask::single(2));
    EXPECT_TRUE(c.dirtyMask(0x80).empty());
    EXPECT_TRUE(c.contains(0x80));
}

TEST(Cache, FillKeepsTheVictimsOwnerFields)
{
    Cache c(tiny());
    // Set 0 of the 4-set, 2-way cache: lines 0x000, 0x100, 0x200.
    const std::uint32_t way = c.access(0x000, false, ByteMask::none()).way;
    c.setLink(way, 5);
    c.setSharers(way, 0b100);
    c.access(0x100, false, ByteMask::none());
    const AccessResult r = c.access(0x200, false, ByteMask::none());
    ASSERT_TRUE(r.evicted.has_value());
    EXPECT_EQ(r.evicted->addr, 0x000u);
    EXPECT_EQ(r.way, way);
    EXPECT_EQ(c.link(way), 5u);
    EXPECT_EQ(c.sharers(way), 0b100u);
}

TEST(Cache, CollectDirtyLinesFindsAll)
{
    Cache c(tiny());
    c.access(0x000, true, ByteMask::word(0));
    c.access(0x140, false, ByteMask::none());
    c.access(0x280, true, ByteMask::word(4));
    const auto dirty = c.collectDirtyLines();
    EXPECT_EQ(dirty.size(), 2u);
}

TEST(Cache, VictimAddressReconstruction)
{
    // Fill way beyond capacity and verify every evicted address is one
    // we inserted (address reconstruction from tag+set is exact).
    Cache c(tiny());
    std::set<Addr> inserted;
    std::uint64_t state = 99;
    for (int i = 0; i < 500; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const Addr a = ((state >> 24) % 4096) * kLineBytes;
        inserted.insert(a);
        const AccessResult r = c.access(a, false, ByteMask::none());
        if (r.evicted) {
            ASSERT_TRUE(inserted.count(r.evicted->addr))
                << std::hex << r.evicted->addr;
        }
    }
}

/** Property sweep over cache shapes. */
class CacheShapes
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CacheShapes, OccupancyNeverExceedsCapacity)
{
    const auto [size_kb, ways] = GetParam();
    Cache c(CacheParams{static_cast<std::size_t>(size_kb) * 1024,
                        static_cast<unsigned>(ways), kLineBytes});
    const unsigned capacity_lines = size_kb * 1024 / kLineBytes;
    std::uint64_t state = 7;
    unsigned resident = 0;
    for (int i = 0; i < 3000; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const Addr a = ((state >> 30) % 8192) * kLineBytes;
        const AccessResult r = c.access(a, (state >> 5) & 1,
                                        ByteMask::word(state % 8));
        if (!r.hit && !r.evicted)
            ++resident;
        ASSERT_LE(resident, capacity_lines);
    }
    EXPECT_EQ(c.hits() + c.misses(), 3000u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheShapes,
    ::testing::Combine(::testing::Values(1, 4, 32),
                       ::testing::Values(1, 2, 4, 8)));

} // namespace
} // namespace pra::cache
