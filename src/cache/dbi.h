/**
 * @file
 * Dirty-Block Index (DBI) — DRAM-aware writeback (paper Section 5.2.3,
 * after Seshadri et al., ISCA 2014).
 *
 * The DBI decouples dirty bits from the tag store and organizes them by
 * DRAM row. When a dirty line is evicted from the LLC, every other dirty
 * line belonging to the same DRAM row is proactively written back too, so
 * a single write row activation is amortized over many writebacks.
 *
 * Each DRAM row with dirty lines is one singly linked list threaded
 * through the L2's way slots (Cache::link), in the order its lines turned
 * dirty in the L2. An open-addressing table maps the row key to the
 * list's head and tail way. The index relies on the hierarchy keeping
 * "tracked <=> dirty in the L2": a line joins its row on its L2
 * clean->dirty transition, a dirty eviction drops its whole row, and a
 * clean eviction never touches the index. No list can be longer than
 * the L2 has lines, so every walk stops there: a link that closes a
 * cycle throws std::logic_error instead of hanging the run.
 */
#ifndef PRA_CACHE_DBI_H
#define PRA_CACHE_DBI_H

#include <cstdint>
#include <functional>
#include <vector>

#include "cache/cache.h"
#include "common/types.h"

namespace pra::cache {

/** Tracks which L2 lines are dirty, grouped by DRAM row. */
class DirtyBlockIndex
{
  public:
    /**
     * @p row_key maps a line address to its DRAM row identity; @p l2 is
     * the cache whose way links hold the row lists.
     */
    DirtyBlockIndex(std::function<std::uint64_t(Addr)> row_key, Cache &l2);

    /** Copy of @p other threaded through @p l2, a copy of its cache. */
    DirtyBlockIndex(const DirtyBlockIndex &other, Cache &l2);
    DirtyBlockIndex(const DirtyBlockIndex &) = delete;
    DirtyBlockIndex &operator=(const DirtyBlockIndex &) = delete;

    /** The L2 line in @p way turned dirty: append it to its row's list. */
    void append(std::uint32_t way);

    /**
     * A dirty line at @p addr leaves the L2 from @p victim_way: forget
     * its row. @p siblings receives every *other* way of the row, in the
     * order they turned dirty (the caller must clean and write them
     * back).
     */
    void takeRow(Addr addr, std::uint32_t victim_way,
                 std::vector<std::uint32_t> &siblings);

    /** Forget every row (the L2 was flushed clean). */
    void clear();

    std::uint64_t trackedLines() const { return tracked_; }
    std::uint64_t proactiveWritebacks() const { return proactive_; }

    /** True when @p addr is currently tracked as dirty. */
    bool isTracked(Addr addr) const;

    /** True when @p way is on the list of @p addr's row. */
    bool listsWay(Addr addr, std::uint32_t way) const;

    /**
     * Every tracked line address, ordered by (row key, intra-row
     * insertion order) for deterministic audit iteration.
     */
    std::vector<Addr> trackedAddresses() const;

    /** FNV-1a over the row lists (by row key) and counters. */
    std::uint64_t auditFingerprint() const;

  private:
    /** One table slot; head == Cache::kNoWay marks it empty. */
    struct Row
    {
        std::uint64_t key = 0;
        std::uint32_t head = Cache::kNoWay;
        std::uint32_t tail = Cache::kNoWay;
    };

    std::size_t home(std::uint64_t key) const;
    /** The slot holding @p key, or the empty slot where it would go. */
    std::size_t probe(std::uint64_t key) const;
    void erase(std::size_t slot);
    void grow();
    /** Occupied slots sorted by row key. */
    std::vector<const Row *> sortedRows() const;
    /** Calls @p fn(way) along the list from @p head until it returns
     *  false; throws once the walk passes the L2's line count. */
    template <typename Fn>
    void walk(std::uint32_t head, const char *what, Fn &&fn) const;
    /** Clears every link of @p row's list, calling @p fn(way) on each
     *  way in order; throws unless the walk ends on the tail. */
    template <typename Fn>
    void unlinkRow(const Row &row, const char *what, Fn &&fn);

    std::function<std::uint64_t(Addr)> rowKey_;
    Cache *l2_;
    std::size_t maxWalk_;     //!< The L2's line count: no list is longer.
    std::vector<Row> rows_;   //!< Power-of-two linear-probing table.
    std::size_t used_ = 0;
    unsigned shift_ = 0;      //!< 64 - log2(rows_.size()).
    std::uint64_t tracked_ = 0;
    std::uint64_t proactive_ = 0;
};

} // namespace pra::cache

#endif // PRA_CACHE_DBI_H
