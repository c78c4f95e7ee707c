#include "cache/hierarchy.h"

#include <cassert>

#include "common/hash.h"

namespace pra::cache {

Hierarchy::Hierarchy(const HierarchyConfig &cfg)
    : cfg_(cfg), l2_(std::make_unique<Cache>(cfg.l2))
{
    for (unsigned c = 0; c < cfg_.numCores; ++c)
        l1s_.push_back(std::make_unique<Cache>(cfg_.l1));
    if (cfg_.enableDbi) {
        assert(cfg_.dbiRowKey && "DBI requires a row-key function");
        dbi_ = std::make_unique<DirtyBlockIndex>(cfg_.dbiRowKey, *l2_);
    }
}

Hierarchy::Hierarchy(const Hierarchy &other)
    : cfg_(other.cfg_), l2_(std::make_unique<Cache>(*other.l2_)),
      dirtyWords_(other.dirtyWords_), memReads_(other.memReads_),
      memWrites_(other.memWrites_)
{
    l1s_.reserve(other.l1s_.size());
    for (const auto &l1 : other.l1s_)
        l1s_.push_back(std::make_unique<Cache>(*l1));
    if (other.dbi_)
        dbi_ = std::make_unique<DirtyBlockIndex>(*other.dbi_, *l2_);
}

void
Hierarchy::emitWriteback(Addr addr, ByteMask dirty,
                         std::vector<Writeback> &out)
{
    ++memWrites_;
    dirtyWords_.record(dirty.toWordMask().count());
    out.push_back({addr, dirty});
}

void
Hierarchy::evictFromL2(const EvictedLine &victim, std::uint32_t way)
{
    // Inclusive hierarchy: back-invalidate L1 copies and fold their
    // dirty bytes into the departing line.
    ByteMask dirty = victim.dirty;
    const std::uint8_t sharers = l2_->sharers(way);
    for (unsigned c = 0; c < l1s_.size(); ++c) {
        if (sharers & sharerBit(c)) {
            if (auto line = l1s_[c]->invalidate(victim.addr))
                dirty |= line->dirty;
        }
    }

    if (dirty.empty()) {
        // Clean in the L2, so untracked: the DBI is not consulted.
        assert(!dbi_ || !dbi_->listsWay(victim.addr, way));
        return;
    }

    if (!dbi_) {
        emitWriteback(victim.addr, dirty, writebacks_);
        return;
    }
    // DRAM-aware writeback: flush every dirty line of this DRAM row.
    dbi_->takeRow(victim.addr, way, siblings_);
    emitWriteback(victim.addr, dirty, writebacks_);
    for (std::uint32_t sib : siblings_) {
        const Addr sib_addr = l2_->wayAddr(sib);
        ByteMask sib_dirty = l2_->wayDirty(sib);
        assert(!sib_dirty.empty() && "a tracked line is dirty in the L2");
        // Include dirty bytes still sitting in the L1s.
        const std::uint8_t sib_sharers = l2_->sharers(sib);
        for (unsigned c = 0; c < l1s_.size(); ++c) {
            if (sib_sharers & sharerBit(c))
                sib_dirty |= l1s_[c]->cleanLine(sib_addr);
        }
        l2_->cleanWay(sib);
        emitWriteback(sib_addr, sib_dirty, writebacks_);
    }
}

HierarchyOutcome
Hierarchy::access(unsigned core, Addr addr, bool is_write,
                  ByteMask store_bytes)
{
    assert(core < l1s_.size());
    addr = lineBase(addr);
    HierarchyOutcome outcome;

    Cache &l1 = *l1s_[core];
    const AccessResult l1_result = l1.access(addr, is_write, store_bytes);
    if (l1_result.hit) {
        outcome.l1Hit = true;
        return outcome;
    }

    // L1 victim writes back into the (inclusive) L2; a line turning
    // dirty there joins its DBI row.
    if (l1_result.evicted && l1_result.evicted->isDirty()) {
        const std::uint32_t turned = l2_->mergeDirty(
            l1_result.evicted->addr, l1_result.evicted->dirty);
        if (dbi_ && turned != Cache::kNoWay)
            dbi_->append(turned);
    }

    // The L2 sees the access as a read (the store's bytes stay dirty in
    // the L1 until that line is evicted).
    const AccessResult l2_result =
        l2_->access(addr, false, ByteMask::none());
    if (l2_result.hit) {
        l2_->setSharers(l2_result.way,
                        l2_->sharers(l2_result.way) | sharerBit(core));
        outcome.l2Hit = true;
        return outcome;
    }

    outcome.needsMemRead = true;
    ++memReads_;
    writebacks_.clear();
    if (l2_result.evicted)
        evictFromL2(*l2_result.evicted, l2_result.way);
    l2_->setSharers(l2_result.way, sharerBit(core));
    outcome.writebacks = writebacks_;
    return outcome;
}

std::uint64_t
Hierarchy::auditFingerprint() const
{
    Fnv1a h;
    h.add(static_cast<std::uint64_t>(l1s_.size()));
    for (const auto &l1 : l1s_)
        h.add(l1->auditFingerprint());
    h.add(l2_->auditFingerprint());
    for (std::size_t b = 0; b < dirtyWords_.buckets(); ++b)
        h.add(dirtyWords_.count(b));
    h.add(memReads_);
    h.add(memWrites_);
    h.add(dbi_ ? dbi_->auditFingerprint() : std::uint64_t{0});
    return h.value();
}

std::vector<Writeback>
Hierarchy::flush()
{
    std::vector<Writeback> out;
    // Pull L1 dirtiness down into the L2 first.
    for (auto &l1 : l1s_) {
        for (const EvictedLine &line : l1->collectDirtyLines()) {
            l2_->mergeDirty(line.addr, line.dirty);
            l1->cleanLine(line.addr);
        }
    }
    for (const EvictedLine &line : l2_->collectDirtyLines()) {
        l2_->cleanLine(line.addr);
        emitWriteback(line.addr, line.dirty, out);
    }
    if (dbi_)
        dbi_->clear();
    return out;
}

} // namespace pra::cache
