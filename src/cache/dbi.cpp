#include "cache/dbi.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

#include "common/hash.h"

namespace pra::cache {

DirtyBlockIndex::DirtyBlockIndex(std::function<std::uint64_t(Addr)> row_key,
                                 Cache &l2)
    : rowKey_(std::move(row_key)), l2_(&l2), maxWalk_(l2.totalWays())
{
    // A quarter of the L2's lines as rows covers the paper geometry's
    // dirty rows without growing; grow() doubles past 3/4 load.
    const std::size_t lines = l2.totalWays();
    rows_.resize(std::bit_ceil(std::max<std::size_t>(16, lines / 4)));
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(rows_.size()));
}

DirtyBlockIndex::DirtyBlockIndex(const DirtyBlockIndex &other, Cache &l2)
    : rowKey_(other.rowKey_), l2_(&l2), maxWalk_(other.maxWalk_),
      rows_(other.rows_),
      used_(other.used_), shift_(other.shift_), tracked_(other.tracked_),
      proactive_(other.proactive_)
{
}

namespace {

[[noreturn]] void
linkCycle(const char *what)
{
    throw std::logic_error(std::string("DirtyBlockIndex::") + what +
                           ": a row list is longer than the L2 has lines "
                           "(a way link closes a cycle)");
}

} // namespace

template <typename Fn>
void
DirtyBlockIndex::walk(std::uint32_t head, const char *what, Fn &&fn) const
{
    std::size_t steps = 0;
    for (std::uint32_t w = head; w != Cache::kNoWay;) {
        if (steps++ == maxWalk_)
            linkCycle(what);
        const std::uint32_t next = l2_->link(w);   // fn may clear it.
        if (!fn(w))
            return;
        w = next;
    }
}

template <typename Fn>
void
DirtyBlockIndex::unlinkRow(const Row &row, const char *what, Fn &&fn)
{
    // Cleared links end a cycle early, on a way seen twice: a sound list
    // ends on its tail, whose link is empty.
    if (l2_->link(row.tail) != Cache::kNoWay)
        linkCycle(what);
    std::uint32_t last = row.head;
    walk(row.head, what, [&](std::uint32_t way) {
        l2_->setLink(way, Cache::kNoWay);
        fn(way);
        last = way;
        return true;
    });
    if (last != row.tail)
        linkCycle(what);
}

std::size_t
DirtyBlockIndex::home(std::uint64_t key) const
{
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
}

std::size_t
DirtyBlockIndex::probe(std::uint64_t key) const
{
    const std::size_t mask = rows_.size() - 1;
    std::size_t slot = home(key);
    while (rows_[slot].head != Cache::kNoWay && rows_[slot].key != key)
        slot = (slot + 1) & mask;
    return slot;
}

void
DirtyBlockIndex::erase(std::size_t slot)
{
    // Backward-shift deletion: pull later members of the probe run into
    // the hole whenever their home slot does not lie after it.
    const std::size_t mask = rows_.size() - 1;
    std::size_t hole = slot;
    for (std::size_t i = (slot + 1) & mask; rows_[i].head != Cache::kNoWay;
         i = (i + 1) & mask) {
        if (((i - home(rows_[i].key)) & mask) >= ((i - hole) & mask)) {
            rows_[hole] = rows_[i];
            hole = i;
        }
    }
    rows_[hole] = Row{};
    --used_;
}

void
DirtyBlockIndex::grow()
{
    std::vector<Row> old(rows_.size() * 2);
    old.swap(rows_);
    --shift_;
    for (const Row &row : old) {
        if (row.head != Cache::kNoWay)
            rows_[probe(row.key)] = row;
    }
}

void
DirtyBlockIndex::append(std::uint32_t way)
{
    const Addr addr = l2_->wayAddr(way);
    assert(l2_->link(way) == Cache::kNoWay && !listsWay(addr, way));
    const std::uint64_t key = rowKey_(addr);
    std::size_t slot = probe(key);
    if (rows_[slot].head == Cache::kNoWay) {
        if ((used_ + 1) * 4 > rows_.size() * 3) {
            grow();
            slot = probe(key);
        }
        rows_[slot] = {key, way, way};
        ++used_;
    } else {
        l2_->setLink(rows_[slot].tail, way);
        rows_[slot].tail = way;
    }
    ++tracked_;
}

void
DirtyBlockIndex::takeRow(Addr addr, std::uint32_t victim_way,
                         std::vector<std::uint32_t> &siblings)
{
    siblings.clear();
    const std::size_t slot = probe(rowKey_(lineBase(addr)));
    if (rows_[slot].head == Cache::kNoWay)
        return;
    // The victim's way already holds the filling line, but its link is
    // still the victim's, so the walk passes through it unchanged.
    unlinkRow(rows_[slot], "takeRow", [&](std::uint32_t way) {
        if (way != victim_way)
            siblings.push_back(way);
        --tracked_;
    });
    proactive_ += siblings.size();
    erase(slot);
}

void
DirtyBlockIndex::clear()
{
    for (Row &row : rows_) {
        if (row.head != Cache::kNoWay)
            unlinkRow(row, "clear", [](std::uint32_t) {});
        row = Row{};
    }
    used_ = 0;
    tracked_ = 0;
}

bool
DirtyBlockIndex::listsWay(Addr addr, std::uint32_t way) const
{
    bool found = false;
    walk(rows_[probe(rowKey_(lineBase(addr)))].head, "listsWay",
         [&](std::uint32_t w) {
             found = w == way;
             return !found;
         });
    return found;
}

bool
DirtyBlockIndex::isTracked(Addr addr) const
{
    const std::uint32_t way = l2_->wayOf(addr);
    return way != Cache::kNoWay && listsWay(addr, way);
}

std::vector<const DirtyBlockIndex::Row *>
DirtyBlockIndex::sortedRows() const
{
    std::vector<const Row *> rows;
    rows.reserve(used_);
    for (const Row &row : rows_) {
        if (row.head != Cache::kNoWay)
            rows.push_back(&row);
    }
    std::sort(rows.begin(), rows.end(), [](const Row *a, const Row *b) {
        return a->key < b->key;
    });
    return rows;
}

std::vector<Addr>
DirtyBlockIndex::trackedAddresses() const
{
    std::vector<Addr> addrs;
    addrs.reserve(tracked_);
    for (const Row *row : sortedRows()) {
        walk(row->head, "trackedAddresses", [&](std::uint32_t w) {
            addrs.push_back(l2_->wayAddr(w));
            return true;
        });
    }
    return addrs;
}

std::uint64_t
DirtyBlockIndex::auditFingerprint() const
{
    Fnv1a h;
    h.add(tracked_);
    h.add(proactive_);
    for (const Row *row : sortedRows()) {
        h.add(row->key);
        walk(row->head, "auditFingerprint", [&](std::uint32_t w) {
            h.add(l2_->wayAddr(w));
            return true;
        });
    }
    return h.value();
}

} // namespace pra::cache
