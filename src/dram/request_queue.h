/**
 * @file
 * One of the controller's request queues (DESIGN.md §9): a slab of
 * stable slots threaded by two intrusive age lists, one over every
 * queued request and one per (rank, bank).
 *
 * A request keeps its slot from push() to erase(), so the scheduler can
 * hold a slot across a scan and the per-bank lists never renumber. Each
 * push takes an age key, seq(), that grows with every push; the global
 * list and every bank list are in seq order, oldest first. Erased slots
 * go on a free list and are reused, so once the queue has reached its
 * peak depth push() and erase() allocate nothing. The slab only grows,
 * and only as deep as the queue ever got.
 *
 * Invariant the callers rely on: a request's bank is a function of its
 * address (the address mapper decodes both), so every queued request
 * with a given address sits in one bank list.
 */
#ifndef PRA_DRAM_REQUEST_QUEUE_H
#define PRA_DRAM_REQUEST_QUEUE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dram/request.h"

namespace pra::dram {

/** Age-ordered request queue with per-bank age lists over stable slots. */
class RequestQueue
{
  public:
    using Slot = std::uint32_t;
    /** End of a list (and "no slot"). */
    static constexpr Slot kEnd = ~Slot{0};

  private:
    struct Node
    {
        Request req;
        std::uint64_t seq = 0;
        Slot prev = kEnd;      //!< Global list; next also chains free slots.
        Slot next = kEnd;
        Slot bankPrev = kEnd;  //!< This request's bank list.
        Slot bankNext = kEnd;
    };

    struct List
    {
        Slot head = kEnd;
        Slot tail = kEnd;
    };

  public:
    /** One bank's requests as a forward range of Request &, oldest first. */
    class BankRange
    {
      public:
        class iterator
        {
          public:
            iterator(RequestQueue *q, Slot s) : q_(q), s_(s) {}
            Request &operator*() const { return q_->nodes_[s_].req; }
            iterator &
            operator++()
            {
                s_ = q_->nodes_[s_].bankNext;
                return *this;
            }
            bool operator==(const iterator &o) const { return s_ == o.s_; }

          private:
            RequestQueue *q_;
            Slot s_;
        };

        BankRange(RequestQueue *q, Slot first) : q_(q), first_(first) {}
        iterator begin() const { return {q_, first_}; }
        iterator end() const { return {q_, kEnd}; }

      private:
        RequestQueue *q_;
        Slot first_;
    };

    RequestQueue(unsigned ranks, unsigned banks_per_rank)
        : banksPerRank_(banks_per_rank), banks_(ranks * banks_per_rank)
    {
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Oldest queued request. Precondition: !empty(). */
    const Request &front() const { return nodes_[all_.head].req; }

    Request &at(Slot s) { return nodes_[s].req; }

    /** Age key of the request in @p s: smaller is older. */
    std::uint64_t seq(Slot s) const { return nodes_[s].seq; }

    /** Oldest slot of the queue, then younger ones via next(). */
    Slot head() const { return all_.head; }
    Slot next(Slot s) const { return nodes_[s].next; }

    /** Oldest slot of bank (@p r, @p b), then younger via bankNext(). */
    Slot bankHead(unsigned r, unsigned b) const
    {
        return banks_[r * banksPerRank_ + b].head;
    }
    Slot bankNext(Slot s) const { return nodes_[s].bankNext; }

    BankRange bank(unsigned r, unsigned b) { return {this, bankHead(r, b)}; }

    /**
     * Queue @p req as the youngest request overall and in its bank
     * (req.loc.rank, req.loc.bank); returns its slot.
     */
    Slot
    push(const Request &req)
    {
        Slot s = free_;
        if (s != kEnd) {
            free_ = nodes_[s].next;
        } else {
            s = static_cast<Slot>(nodes_.size());
            nodes_.emplace_back();
        }
        Node &n = nodes_[s];
        n.req = req;
        n.seq = nextSeq_++;
        List &bank = banks_[req.loc.rank * banksPerRank_ + req.loc.bank];
        n.prev = all_.tail;
        n.next = kEnd;
        n.bankPrev = bank.tail;
        n.bankNext = kEnd;
        link(all_, s, n.prev, &Node::next);
        link(bank, s, n.bankPrev, &Node::bankNext);
        ++size_;
        return s;
    }

    /** Remove the request in @p s; a later push() reuses the slot. */
    void
    erase(Slot s)
    {
        Node &n = nodes_[s];
        List &bank =
            banks_[n.req.loc.rank * banksPerRank_ + n.req.loc.bank];
        unlink(all_, n.prev, n.next, &Node::prev, &Node::next);
        unlink(bank, n.bankPrev, n.bankNext, &Node::bankPrev,
               &Node::bankNext);
        n.next = free_;
        free_ = s;
        --size_;
    }

  private:
    /** Append @p s (whose back link is already @p prev) to @p list. */
    void
    link(List &list, Slot s, Slot prev, Slot Node::*next)
    {
        if (prev == kEnd)
            list.head = s;
        else
            nodes_[prev].*next = s;
        list.tail = s;
    }

    void
    unlink(List &list, Slot prev, Slot next, Slot Node::*prev_link,
           Slot Node::*next_link)
    {
        if (prev == kEnd)
            list.head = next;
        else
            nodes_[prev].*next_link = next;
        if (next == kEnd)
            list.tail = prev;
        else
            nodes_[next].*prev_link = prev;
    }

    unsigned banksPerRank_;
    std::vector<Node> nodes_;   //!< The slab; grows to the peak depth.
    std::vector<List> banks_;   //!< One age list per (rank, bank).
    List all_;                  //!< Every queued request, by age.
    Slot free_ = kEnd;          //!< Free slots, chained through next.
    std::size_t size_ = 0;
    std::uint64_t nextSeq_ = 0;
};

} // namespace pra::dram

#endif // PRA_DRAM_REQUEST_QUEUE_H
