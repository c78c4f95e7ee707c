/**
 * @file
 * RequestQueue against a std::deque model: seeded random pushes and
 * erases (at the head, the middle and the tail of the queue and of a
 * bank's list) must keep the global age order, every bank's age order,
 * front(), size() and increasing age keys, and erased slots must be
 * reused rather than growing the slab.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "common/rng.h"
#include "dram/request_queue.h"

namespace pra::dram {
namespace {

constexpr unsigned kRanks = 2;
constexpr unsigned kBanks = 4;

/** The model: (slot, tag, rank, bank) in age order. */
struct Entry
{
    RequestQueue::Slot slot;
    std::uint64_t tag;
    unsigned rank;
    unsigned bank;
};

Request
makeRequest(std::uint64_t tag, unsigned rank, unsigned bank)
{
    Request req;
    req.tag = tag;
    req.addr = tag * 64;
    req.loc.rank = rank;
    req.loc.bank = bank;
    return req;
}

/** Compare every observable of @p q with the model @p m. */
void
expectMatches(RequestQueue &q, const std::deque<Entry> &m)
{
    ASSERT_EQ(q.size(), m.size());
    ASSERT_EQ(q.empty(), m.empty());
    if (!m.empty()) {
        EXPECT_EQ(q.front().tag, m.front().tag);
        EXPECT_EQ(q.head(), m.front().slot);
    }
    // Global list: model order, strictly increasing age keys.
    std::size_t i = 0;
    for (RequestQueue::Slot s = q.head(); s != RequestQueue::kEnd;
         s = q.next(s), ++i) {
        ASSERT_LT(i, m.size());
        EXPECT_EQ(s, m[i].slot);
        EXPECT_EQ(q.at(s).tag, m[i].tag);
        if (i > 0) {
            EXPECT_LT(q.seq(m[i - 1].slot), q.seq(s));
        }
    }
    EXPECT_EQ(i, m.size());
    // Every bank list: the model filtered to that bank, in order.
    for (unsigned r = 0; r < kRanks; ++r) {
        for (unsigned b = 0; b < kBanks; ++b) {
            std::vector<std::uint64_t> want;
            for (const Entry &e : m) {
                if (e.rank == r && e.bank == b)
                    want.push_back(e.tag);
            }
            std::vector<std::uint64_t> got;
            for (RequestQueue::Slot s = q.bankHead(r, b);
                 s != RequestQueue::kEnd; s = q.bankNext(s)) {
                got.push_back(q.at(s).tag);
            }
            EXPECT_EQ(got, want) << "bank " << r << "." << b;
            got.clear();
            for (const Request &req : q.bank(r, b))
                got.push_back(req.tag);
            EXPECT_EQ(got, want) << "bank range " << r << "." << b;
        }
    }
}

TEST(RequestQueue, EmptyQueueHasEmptyLists)
{
    RequestQueue q(kRanks, kBanks);
    expectMatches(q, {});
    EXPECT_EQ(q.bankHead(1, 3), RequestQueue::kEnd);
}

TEST(RequestQueue, EraseAtHeadMiddleAndTailOfBothLists)
{
    RequestQueue q(kRanks, kBanks);
    std::deque<Entry> m;
    // Five requests of bank 0.1 interleaved with bank 1.2.
    for (std::uint64_t t = 0; t < 10; ++t) {
        const unsigned rank = t % 2 ? 1 : 0;
        const unsigned bank = t % 2 ? 2 : 1;
        m.push_back({q.push(makeRequest(t, rank, bank)), t, rank, bank});
    }
    expectMatches(q, m);
    auto eraseTag = [&](std::uint64_t tag) {
        auto it = std::find_if(m.begin(), m.end(),
                               [&](const Entry &e) { return e.tag == tag; });
        ASSERT_NE(it, m.end());
        q.erase(it->slot);
        m.erase(it);
        expectMatches(q, m);
    };
    eraseTag(4);   // Middle of the queue, middle of bank 0.1.
    eraseTag(0);   // Head of the queue and of bank 0.1.
    eraseTag(9);   // Tail of the queue and of bank 1.2.
    eraseTag(8);   // Tail of bank 0.1, not of the queue.
    eraseTag(1);   // Head of the queue and of bank 1.2.
    for (std::uint64_t t : {2, 3, 5, 6, 7})
        eraseTag(t);
    EXPECT_TRUE(q.empty());
}

TEST(RequestQueue, ErasedSlotsAreReused)
{
    RequestQueue q(kRanks, kBanks);
    std::vector<RequestQueue::Slot> slots;
    for (std::uint64_t t = 0; t < 8; ++t)
        slots.push_back(q.push(makeRequest(t, 0, t % kBanks)));
    q.erase(slots[3]);
    q.erase(slots[6]);
    // The freed slots come back before the slab grows.
    const RequestQueue::Slot a = q.push(makeRequest(100, 1, 0));
    const RequestQueue::Slot b = q.push(makeRequest(101, 1, 1));
    EXPECT_TRUE((a == slots[3] && b == slots[6]) ||
                (a == slots[6] && b == slots[3]));
    EXPECT_EQ(q.push(makeRequest(102, 1, 2)), RequestQueue::Slot{8});
    // A reused slot takes a fresh, youngest age key.
    EXPECT_GT(q.seq(a), q.seq(slots[7]));
}

TEST(RequestQueue, RandomOperationsMatchDequeModel)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        RequestQueue q(kRanks, kBanks);
        std::deque<Entry> m;
        const std::size_t depth = 1 + rng.below(24);
        std::size_t peak = 0;
        RequestQueue::Slot max_slot = 0;
        for (std::uint64_t t = 0; t < 600; ++t) {
            const bool push =
                m.empty() || (m.size() < depth && rng.chance(0.55));
            if (push) {
                const auto rank = static_cast<unsigned>(rng.below(kRanks));
                const auto bank = static_cast<unsigned>(rng.below(kBanks));
                const RequestQueue::Slot s =
                    q.push(makeRequest(t, rank, bank));
                m.push_back({s, t, rank, bank});
                max_slot = std::max(max_slot, s);
                peak = std::max(peak, m.size());
            } else {
                // Head, tail or a random middle entry, equally often.
                std::size_t i = 0;
                switch (rng.below(3)) {
                  case 0: i = 0; break;
                  case 1: i = m.size() - 1; break;
                  default: i = rng.below(m.size()); break;
                }
                q.erase(m[i].slot);
                m.erase(m.begin() + static_cast<std::ptrdiff_t>(i));
            }
            expectMatches(q, m);
            if (HasFatalFailure())
                return;
        }
        // Slots are recycled: the slab never outgrows the peak depth.
        EXPECT_LT(max_slot, peak);
    }
}

} // namespace
} // namespace pra::dram
