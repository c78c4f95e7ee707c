#include "workloads/kernels.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

namespace pra::workloads {

// ------------------------------------------------------------------ shuffle

std::vector<std::uint32_t>
shuffledIdentity(std::size_t n, Shuffle kind, Rng &rng)
{
    // A partner depends only on the RNG, never on the table, so drawing
    // it early changes nothing but when its slot is fetched. A table
    // has up to 2^21 entries (8 MB): without the prefetch nearly every
    // step misses the host cache and TLB on its partner's slot.
    const std::size_t bound_extra = kind == Shuffle::FisherYates ? 1 : 0;

    std::vector<std::uint32_t> table;
    table.reserve(n);
    for (std::size_t k = 0; k < n; ++k)
        table.push_back(static_cast<std::uint32_t>(k));

    // Step s swaps entry n-1-s with the partner drawn kShuffleWindow
    // steps earlier, which waits in ring[s % kShuffleWindow].
    const std::size_t steps = n > 0 ? n - 1 : 0;
    std::array<std::size_t, kShuffleWindow> ring{};
    auto draw = [&](std::size_t s) {
        const std::size_t j = rng.below(n - 1 - s + bound_extra);
        __builtin_prefetch(&table[j], 1);
        ring[s % kShuffleWindow] = j;
    };
    const std::size_t lead = std::min(kShuffleWindow, steps);
    for (std::size_t s = 0; s < lead; ++s)
        draw(s);
    for (std::size_t s = 0; s < steps; ++s) {
        const std::size_t j = ring[s % kShuffleWindow];
        if (s + lead < steps)
            draw(s + lead);
        std::swap(table[n - 1 - s], table[j]);
    }
    return table;
}

// --------------------------------------------------------------------- GUPS

Gups::Gups(Addr table_bytes, unsigned gap, std::uint64_t seed)
    : tableBytes_(table_bytes), gap_(gap), rng_(seed)
{
}

cpu::MemOp
Gups::next()
{
    cpu::MemOp op;
    if (pendingStore_) {
        // t[i] ^= v: one-word store to the line just loaded.
        pendingStore_ = false;
        op.gap = 1;
        op.isWrite = true;
        op.addr = current_;
        op.bytes = ByteMask::word(wordInLine(current_));
        return op;
    }
    const Addr words = tableBytes_ / kBytesPerWord;
    current_ = rng_.below(words) * kBytesPerWord;
    op.gap = gap_;
    op.isWrite = false;
    op.addr = current_;
    pendingStore_ = true;
    return op;
}

// --------------------------------------------------------------- LinkedList

LinkedList::LinkedList(std::size_t nodes, unsigned gap,
                       double store_fraction, std::uint64_t seed)
    : gap_(gap), storeFraction_(store_fraction), rng_(seed)
{
    // The first next() reads the table, so it needs a node.
    if (nodes == 0)
        throw std::invalid_argument("LinkedList: zero nodes");
    // Sattolo's algorithm: a single random cycle through all nodes.
    nextIndex_ = std::make_shared<const std::vector<std::uint32_t>>(
        shuffledIdentity(nodes, Shuffle::Sattolo, rng_));
}

cpu::MemOp
LinkedList::next()
{
    cpu::MemOp op;
    const Addr node_addr = static_cast<Addr>(current_) * kLineBytes;
    if (pendingStore_) {
        // Payload update: a 32-bit counter in the node — the word is
        // dirty for PRA, but only its low bytes change (SDS-visible).
        pendingStore_ = false;
        op.gap = 2;
        op.isWrite = true;
        op.addr = node_addr + kBytesPerWord;
        op.bytes = ByteMask::range(kBytesPerWord, 4);
        return op;
    }
    // p = p->next: dependent load of the node's first word.
    op.gap = gap_;
    op.isWrite = false;
    op.addr = node_addr;
    op.serializing = true;
    pendingStore_ = rng_.chance(storeFraction_);
    current_ = (*nextIndex_)[current_];
    // The next hop reads this slot; fetch it while the other cores and
    // the cache hierarchy run.
    __builtin_prefetch(&(*nextIndex_)[current_]);
    return op;
}

// --------------------------------------------------------------------- em3d

Em3d::Em3d(std::size_t nodes, unsigned gap, std::uint64_t seed)
    : nodes_(nodes), gap_(gap), rng_(seed)
{
    // The first next() reads the table and steps modulo its size.
    if (nodes == 0)
        throw std::invalid_argument("em3d: zero nodes");
    // Nodes are visited in shuffled order, as the Olden allocator
    // interleaves E and H nodes across the heap.
    visitOrder_ = std::make_shared<const std::vector<std::uint32_t>>(
        shuffledIdentity(nodes_, Shuffle::FisherYates, rng_));
}

cpu::MemOp
Em3d::next()
{
    // The opposite-partition neighbor values live in a compact region
    // that largely fits in the LLC, so DRAM traffic is dominated by the
    // node sweep: fetch-on-store plus the eventual dirty writeback.
    constexpr Addr kNeighborRegion = 512ull << 10;

    cpu::MemOp op;
    const std::uint32_t node = (*visitOrder_)[pos_];
    const Addr node_addr =
        (1ull << 30) + static_cast<Addr>(node) * kLineBytes;

    if (phase_ == 0) {
        // value += coeff * from_node->value
        op.gap = gap_;
        op.isWrite = false;
        op.addr = rng_.below(kNeighborRegion / kLineBytes) * kLineBytes;
        phase_ = 1;
        return op;
    }

    op.gap = 3;
    op.isWrite = true;
    op.addr = node_addr;
    op.bytes = ByteMask::word(0);
    phase_ = 0;
    pos_ = (pos_ + 1) % nodes_;
    return op;
}

} // namespace pra::workloads
