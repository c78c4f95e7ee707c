#include "cache/cache.h"

#include <algorithm>
#include <cassert>

#include "common/hash.h"

namespace pra::cache {

Cache::Cache(const CacheParams &params)
    : params_(params), sets_(params.numSets())
{
    assert(sets_ > 0 && (sets_ & (sets_ - 1)) == 0 &&
           "set count must be a power of two");
    ways_.resize(sets_ * params_.ways);
}

std::size_t
Cache::setIndex(Addr addr) const
{
    return static_cast<std::size_t>((addr / params_.lineBytes) &
                                    (sets_ - 1));
}

std::uint64_t
Cache::tagOf(Addr addr) const
{
    return addr / params_.lineBytes / sets_;
}

Cache::Way *
Cache::find(Addr addr)
{
    const std::size_t base = setIndex(addr) * params_.ways;
    const std::uint64_t tag = tagOf(addr);
    for (unsigned w = 0; w < params_.ways; ++w) {
        Way &way = ways_[base + w];
        if (way.valid && way.tag == tag)
            return &way;
    }
    return nullptr;
}

const Cache::Way *
Cache::find(Addr addr) const
{
    return const_cast<Cache *>(this)->find(addr);
}

AccessResult
Cache::access(Addr addr, bool is_write, ByteMask store_bytes)
{
    addr = lineBase(addr);
    ++useClock_;

    if (Way *way = find(addr)) {
        ++hits_;
        way->lastUse = useClock_;
        if (is_write)
            way->dirty |= store_bytes;
        return {true, static_cast<std::uint32_t>(way - ways_.data()),
                std::nullopt};
    }

    ++misses_;
    const std::size_t base = setIndex(addr) * params_.ways;
    Way *victim = &ways_[base];
    for (unsigned w = 0; w < params_.ways; ++w) {
        Way &way = ways_[base + w];
        if (!way.valid) {
            victim = &way;
            break;
        }
        if (way.lastUse < victim->lastUse)
            victim = &way;
    }

    AccessResult result;
    result.way = static_cast<std::uint32_t>(victim - ways_.data());
    if (victim->valid) {
        ++evictions_;
        if (!victim->dirty.empty())
            ++dirtyEvictions_;
        result.evicted = EvictedLine{wayAddr(result.way), victim->dirty};
    }

    victim->valid = true;
    victim->tag = tagOf(addr);
    victim->dirty = is_write ? store_bytes : ByteMask::none();
    victim->lastUse = useClock_;
    return result;
}

bool
Cache::contains(Addr addr) const
{
    return find(lineBase(addr)) != nullptr;
}

ByteMask
Cache::dirtyMask(Addr addr) const
{
    const Way *way = find(lineBase(addr));
    return way ? way->dirty : ByteMask::none();
}

ByteMask
Cache::cleanLine(Addr addr)
{
    Way *way = find(lineBase(addr));
    if (way == nullptr)
        return ByteMask::none();
    const ByteMask dirty = way->dirty;
    way->dirty = ByteMask::none();
    return dirty;
}

std::optional<EvictedLine>
Cache::invalidate(Addr addr)
{
    addr = lineBase(addr);
    if (Way *way = find(addr)) {
        EvictedLine line{addr, way->dirty};
        way->valid = false;
        way->dirty = ByteMask::none();
        return line;
    }
    return std::nullopt;
}

std::uint32_t
Cache::mergeDirty(Addr addr, ByteMask dirty)
{
    Way *way = find(lineBase(addr));
    if (way == nullptr)
        return kNoWay;
    const bool was_clean = way->dirty.empty();
    way->dirty |= dirty;
    return was_clean && !way->dirty.empty()
               ? static_cast<std::uint32_t>(way - ways_.data())
               : kNoWay;
}

std::uint32_t
Cache::wayOf(Addr addr) const
{
    const Way *way = find(lineBase(addr));
    return way != nullptr ? static_cast<std::uint32_t>(way - ways_.data())
                          : kNoWay;
}

std::vector<EvictedLine>
Cache::dirtyLinesInRange(std::size_t first, std::size_t count) const
{
    std::vector<EvictedLine> lines;
    if (ways_.empty())
        return lines;
    count = std::min(count, ways_.size());
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t idx = (first + i) % ways_.size();
        const Way &way = ways_[idx];
        if (way.valid && !way.dirty.empty())
            lines.push_back({wayAddr(static_cast<std::uint32_t>(idx)),
                             way.dirty});
    }
    return lines;
}

std::uint64_t
Cache::auditFingerprint() const
{
    Fnv1a h;
    h.add(sets_);
    h.add(params_.ways);
    h.add(useClock_);
    h.add(hits_);
    h.add(misses_);
    h.add(evictions_);
    h.add(dirtyEvictions_);
    for (const Way &way : ways_) {
        h.add(static_cast<std::uint8_t>(way.valid));
        h.add(way.tag);
        h.add(way.dirty.bits());
        h.add(way.lastUse);
        h.add(way.link);
        h.add(way.sharers);
    }
    return h.value();
}

std::vector<EvictedLine>
Cache::collectDirtyLines() const
{
    std::vector<EvictedLine> lines;
    for (std::uint32_t w = 0; w < ways_.size(); ++w) {
        if (ways_[w].valid && !ways_[w].dirty.empty())
            lines.push_back({wayAddr(w), ways_[w].dirty});
    }
    return lines;
}

} // namespace pra::cache
