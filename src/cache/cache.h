/**
 * @file
 * Tag-only set-associative write-back cache with fine-grained dirty bits
 * (FGD, paper Section 4.1.4).
 *
 * Each line tracks dirtiness at byte granularity (a ByteMask). Stores OR
 * their written bytes into the line's mask; the word-level PRA mask is
 * derived with ByteMask::toWordMask() when the line finally leaves the
 * hierarchy. The cache stores no data — the simulator only needs address
 * and dirtiness behaviour.
 */
#ifndef PRA_CACHE_CACHE_H
#define PRA_CACHE_CACHE_H

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitmask.h"
#include "common/types.h"

namespace pra::cache {

/** Geometry and identification of one cache. */
struct CacheParams
{
    std::size_t sizeBytes = 32 * 1024;
    unsigned ways = 4;
    unsigned lineBytes = kLineBytes;

    std::size_t numSets() const { return sizeBytes / lineBytes / ways; }
};

/** A line evicted from a cache, with its accumulated dirty bytes. */
struct EvictedLine
{
    Addr addr = 0;
    ByteMask dirty;   //!< Empty for clean evictions.

    bool isDirty() const { return !dirty.empty(); }
};

/** Result of one cache access. */
struct AccessResult
{
    bool hit = false;
    /** Way slot that holds the line after the access. */
    std::uint32_t way = 0;
    /** Victim displaced by the fill (misses only, when a line existed). */
    std::optional<EvictedLine> evicted;
};

/**
 * LRU set-associative write-back write-allocate cache (tags only).
 *
 * Besides tag, dirty bytes and LRU stamp, every way slot carries two
 * owner fields that the cache itself never interprets: a way link and
 * an 8-bit sharer mask (cache::Hierarchy threads the DBI's row lists
 * through the L2's links and records L1 sharers in its masks). A fill
 * leaves them as the victim had them, so the owner can still read the
 * victim's values after access() returns; the owner rewrites them.
 */
class Cache
{
  public:
    /** "No way": an empty link, or a line that is not resident. */
    static constexpr std::uint32_t kNoWay = ~std::uint32_t{0};

    explicit Cache(const CacheParams &params);

    const CacheParams &params() const { return params_; }

    /**
     * Access line @p addr. On a miss the line is allocated (fill) and the
     * LRU victim, if any, is returned. @p store_bytes is ORed into the
     * line's dirty mask for writes.
     */
    AccessResult access(Addr addr, bool is_write, ByteMask store_bytes);

    /** True when the line is present. */
    bool contains(Addr addr) const;

    /** Dirty mask of a resident line (empty if absent or clean). */
    ByteMask dirtyMask(Addr addr) const;

    /**
     * Mark a resident line clean (DBI proactive writeback); returns the
     * dirty bytes it held (empty if absent or clean).
     */
    ByteMask cleanLine(Addr addr);

    /**
     * Remove the line, returning its state (back-invalidation from an
     * inclusive outer level).
     */
    std::optional<EvictedLine> invalidate(Addr addr);

    /**
     * OR extra dirty bytes into a resident line (L1 -> L2 writeback).
     * Returns the line's way when the merge turned a clean line dirty,
     * kNoWay otherwise.
     */
    std::uint32_t mergeDirty(Addr addr, ByteMask dirty);

    /** Way slot holding @p addr, or kNoWay when it is not resident. */
    std::uint32_t wayOf(Addr addr) const;

    // Per-way access for the owner of the link and sharer fields. @p way
    // must hold a valid line (wayAddr, wayDirty, cleanWay).
    Addr wayAddr(std::uint32_t way) const
    {
        const std::size_t set = way / params_.ways;
        return (ways_[way].tag * sets_ + set) * params_.lineBytes;
    }
    ByteMask wayDirty(std::uint32_t way) const { return ways_[way].dirty; }
    void cleanWay(std::uint32_t way) { ways_[way].dirty = ByteMask::none(); }
    std::uint32_t link(std::uint32_t way) const { return ways_[way].link; }
    void setLink(std::uint32_t way, std::uint32_t next)
    {
        ways_[way].link = next;
    }
    std::uint8_t sharers(std::uint32_t way) const
    {
        return ways_[way].sharers;
    }
    void setSharers(std::uint32_t way, std::uint8_t mask)
    {
        ways_[way].sharers = mask;
    }

    /** Calls @p fn(addr) for every resident line, in way-slot order. */
    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (std::uint32_t w = 0; w < ways_.size(); ++w) {
            if (ways_[w].valid)
                fn(wayAddr(w));
        }
    }

    /** All resident dirty lines (diagnostics / flush). */
    std::vector<EvictedLine> collectDirtyLines() const;

    /** Total way slots (sets x associativity), for chunked audits. */
    std::size_t totalWays() const { return ways_.size(); }

    /**
     * Dirty lines among way slots [first, first + count) with wrap-
     * around, so an auditor can scan the cache incrementally with a
     * rotating cursor instead of O(cache) per sample.
     */
    std::vector<EvictedLine> dirtyLinesInRange(std::size_t first,
                                               std::size_t count) const;

    /**
     * FNV-1a over the complete mutable state (tags, dirty masks, LRU
     * stamps, statistics). Two caches with equal fingerprints behave
     * identically under any subsequent access sequence.
     */
    std::uint64_t auditFingerprint() const;

    // Statistics.
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }
    std::uint64_t dirtyEvictions() const { return dirtyEvictions_; }

  private:
    struct Way
    {
        bool valid = false;
        std::uint8_t sharers = 0;        //!< Owner field, see the class.
        std::uint32_t link = kNoWay;     //!< Owner field, see the class.
        std::uint64_t tag = 0;
        ByteMask dirty;
        std::uint64_t lastUse = 0;
    };
    // The owner fields live in what was padding after `valid`.
    static_assert(sizeof(Way) == 32);

    std::size_t setIndex(Addr addr) const;
    std::uint64_t tagOf(Addr addr) const;
    Way *find(Addr addr);
    const Way *find(Addr addr) const;

    CacheParams params_;
    std::size_t sets_;
    std::vector<Way> ways_;   //!< sets_ x params_.ways, row-major.
    std::uint64_t useClock_ = 0;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t dirtyEvictions_ = 0;
};

} // namespace pra::cache

#endif // PRA_CACHE_CACHE_H
