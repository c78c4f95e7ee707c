/**
 * @file
 * Two-level inclusive cache hierarchy with FGD plumbing (paper Fig. 8):
 * private L1 data caches over a shared L2. Stores set byte-granularity
 * dirty bits in the L1; on L1 eviction the bits are ORed into the L2
 * copy; on L2 eviction the accumulated dirty bits leave as a writeback
 * whose word mask becomes the DRAM PRA mask. Optionally a Dirty-Block
 * Index turns each dirty L2 eviction into a row-batched writeback group.
 */
#ifndef PRA_CACHE_HIERARCHY_H
#define PRA_CACHE_HIERARCHY_H

#include <memory>
#include <span>
#include <vector>

#include "cache/cache.h"
#include "cache/dbi.h"
#include "common/fields.h"
#include "common/stats.h"

namespace pra::cache {

/** Hierarchy geometry (paper Table 3 baseline). */
struct HierarchyConfig
{
    unsigned numCores = 4;
    CacheParams l1{32 * 1024, 4, kLineBytes};
    CacheParams l2{4 * 1024 * 1024, 8, kLineBytes};
    bool enableDbi = false;
    /** Row-key function for the DBI (DRAM row identity of a line). */
    std::function<std::uint64_t(Addr)> dbiRowKey;
};

/**
 * HierarchyConfig's field table (common/fields.h), CacheParams included:
 * the config keys. enableDbi and dbiRowKey have no rows — System wires
 * them from SystemConfig::enableDbi and the DRAM address mapping.
 */
template <typename Visit, typename... Self>
    requires FieldsOf<HierarchyConfig, Self...>
void
forEachField(Visit &&v, Self &...s)
{
    [[maybe_unused]] auto &[numCores, l1, l2, enableDbi, dbiRowKey] =
        fieldsHead(s...);
    [[maybe_unused]] auto &[sizeBytes, ways, lineBytes] = l1;
    v("cores", 0, s.numCores...);
    v("l1_kb", kFieldSettable, KiB{s.l1.sizeBytes}...);
    v("l1_bytes", 0, s.l1.sizeBytes...);
    v("l1_ways", 0, s.l1.ways...);
    v("l1_line", 0, s.l1.lineBytes...);
    v("l2_kb", kFieldSettable, KiB{s.l2.sizeBytes}...);
    v("l2_bytes", 0, s.l2.sizeBytes...);
    v("l2_ways", 0, s.l2.ways...);
    v("l2_line", 0, s.l2.lineBytes...);
}

/** A line leaving the hierarchy toward DRAM. */
struct Writeback
{
    Addr addr = 0;
    ByteMask dirty;

    /** PRA mask delivered to the memory controller with the writeback. */
    WordMask praMask() const { return dirty.toWordMask(); }
};

/** What one core access did to the hierarchy. */
struct HierarchyOutcome
{
    bool l1Hit = false;
    bool l2Hit = false;
    bool needsMemRead = false;   //!< LLC miss: line must be fetched.
    /** Lines leaving toward DRAM; valid until the next access(). */
    std::span<const Writeback> writebacks;
};

/**
 * Private-L1 / shared-L2 hierarchy.
 *
 * Each L2 line carries an L1-sharer mask (Cache::sharers): core c's bit
 * (bit c mod 8) is set on every L2 access by core c and the mask is reset
 * on fill, so it covers every L1 that may hold the line. Back-invalidation
 * and the DBI's sibling cleaning probe only those L1s.
 */
class Hierarchy
{
  public:
    explicit Hierarchy(const HierarchyConfig &cfg);

    /**
     * Deep copy: every tag array (with its DBI links and sharer masks),
     * dirty mask, LRU clock, DBI row table, and statistic counter is
     * duplicated, and the copied DBI threads through the copied L2, so
     * the copy behaves bit-identically to the original under any
     * subsequent access sequence. This is what lets a warm snapshot
     * (sim::WarmSnapshot) be forked into many simulations after a single
     * functional warmup.
     */
    Hierarchy(const Hierarchy &other);
    Hierarchy(Hierarchy &&) = default;

    /**
     * Core @p core accesses @p addr; for stores @p store_bytes are the
     * bytes written (FGD granularity).
     */
    HierarchyOutcome access(unsigned core, Addr addr, bool is_write,
                            ByteMask store_bytes);

    /** Write back every dirty line (end-of-run flush). */
    std::vector<Writeback> flush();

    unsigned numCores() const
    {
        return static_cast<unsigned>(l1s_.size());
    }
    const Cache &l1(unsigned core) const { return *l1s_[core]; }
    const Cache &l2() const { return *l2_; }
    const DirtyBlockIndex *dbi() const { return dbi_.get(); }

    /**
     * FNV-1a over the complete mutable hierarchy state (every cache,
     * the DBI table, histograms, counters). The deep-copy constructor's
     * contract — a warm-snapshot fork behaves bit-identically to its
     * source — is checkable as fingerprint equality; the invariant
     * auditor does so under PRA_AUDIT_REPLAY=1.
     */
    std::uint64_t auditFingerprint() const;

    /** Dirty-word count distribution of LLC writebacks (Figure 3). */
    const Histogram &dirtyWordsHistogram() const { return dirtyWords_; }

    std::uint64_t memReads() const { return memReads_; }
    std::uint64_t memWrites() const { return memWrites_; }

    /** Core @p core's bit in an L2 line's sharer mask. */
    static std::uint8_t
    sharerBit(unsigned core)
    {
        return static_cast<std::uint8_t>(1u << (core % 8));
    }

  private:
    /** @p way held @p victim before the fill that displaced it. */
    void evictFromL2(const EvictedLine &victim, std::uint32_t way);
    void emitWriteback(Addr addr, ByteMask dirty,
                       std::vector<Writeback> &out);

    HierarchyConfig cfg_;
    std::vector<std::unique_ptr<Cache>> l1s_;
    std::unique_ptr<Cache> l2_;   //!< Heap-held: dbi_ points at it.
    std::unique_ptr<DirtyBlockIndex> dbi_;
    std::vector<Writeback> writebacks_;   //!< access()'s outcome buffer.
    std::vector<std::uint32_t> siblings_; //!< DBI row scratch.

    Histogram dirtyWords_{kWordsPerLine + 1};
    std::uint64_t memReads_ = 0;
    std::uint64_t memWrites_ = 0;
};

} // namespace pra::cache

#endif // PRA_CACHE_HIERARCHY_H
