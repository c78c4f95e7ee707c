/**
 * @file
 * The controller's request scans (DESIGN.md §9): admission into the
 * queues, the activation plan, and the column and prepare walks that
 * pick the next command of a scheduling round.
 *
 * MemoryController calls these for the rounds it runs, and the model
 * checker (src/analysis) calls the same code on its explored states, so
 * the wakeup-soundness property (DESIGN.md §10.1) checks the scans that
 * ship. A scan only selects: it returns what it would issue and leaves
 * the issue, the stats and the reporting to the caller. Along the way
 * it folds each time-gated rejection into one wake cycle (the retry
 * bound the event engine publishes, DESIGN.md §11.2) and counts the
 * queued requests it examines.
 */
#ifndef PRA_DRAM_REQUEST_SCAN_H
#define PRA_DRAM_REQUEST_SCAN_H

#include <cstdint>

#include "dram/bank_engine.h"
#include "dram/bus_arbiter.h"
#include "dram/config.h"
#include "dram/prac.h"
#include "dram/request.h"
#include "dram/request_queue.h"
#include "dram/sched/scheduler_policy.h"

namespace pra::dram {

/**
 * Admit @p req (its loc decoded) to @p read_q or @p write_q. A write to
 * a line already queued combines into that write. Otherwise the request
 * is queued with its needed words cached and @p banks counts it — unless
 * it reads a line with a queued write: then it is forwarded from that
 * write, never reaches DRAM, and the call returns true.
 */
bool admitRequest(const SchemeModel &scheme, BankEngine &banks,
                  RequestQueue &read_q, RequestQueue &write_q, Request &req);

/** The queue occupancy snapshot handed to the scheduler policy. */
SchedulerInputs schedulerInputs(const RequestQueue &read_q,
                                const RequestQueue &write_q);

/**
 * The shape of one activation, derived from its demand: the merged
 * dirty-word mask for a write, the scheme's (speculative) read mask —
 * or the full row once a false hit burned the prediction — for a read.
 */
struct ActPlan
{
    WordMask openMask;   //!< MAT groups the ACT opens.
    unsigned granularity = kMatGroups; //!< 1..8, partial: >= the minimum.
    bool partial = false; //!< Needs the extra PRA mask cycle.
    double weight = 1.0;  //!< tRRD/tFAW charge (1 unless weighted).
};

/** The request scans over one channel's layers (see file header). */
class RequestScan
{
  public:
    /** What a scan would issue. */
    struct Pick
    {
        enum class Kind
        {
            None,
            Column,
            Activate,
            Precharge,
        };
        Kind kind = Kind::None;
        /** The request served, classified with probe before the issue
         *  (kEnd: a PRE that closes an exhausted row-hit budget). */
        RequestQueue::Slot slot = RequestQueue::kEnd;
        RowProbe probe = RowProbe::Hit;
        unsigned rank = 0;   //!< Precharge target.
        unsigned bank = 0;
        ActPlan plan{};      //!< Activate.

        explicit operator bool() const { return kind != Kind::None; }
    };

    /** Scans with @p sched's windows; @p write_q is the queue the
     *  merged write mask walks. */
    RequestScan(const DramConfig &cfg, const BankEngine &banks,
                const BusArbiter &bus, const PracState &prac,
                const SchedulerPolicy &sched, RequestQueue &write_q);

    /**
     * The column access @p queue offers at @p now: the oldest row hit
     * in the policy's window that passes every gate. A short window
     * (FCFS) walks the oldest requests in age order; the whole queue
     * (FR-FCFS) walks only the open banks that can hold a hit.
     */
    Pick column(RequestQueue &queue, bool is_write, Cycle now);

    /**
     * The ACT or PRE @p queue's prepare window offers at @p now: the
     * first request, in age order, whose bank can be made ready for it.
     */
    Pick prepare(RequestQueue &queue, bool is_write, Cycle now);

    /** The activation @p req would get (the one derivation of it). */
    ActPlan activation(Request &req, bool is_write);

    /**
     * OR of the PRA masks of every queued write to @p req's row
     * (Section 5.2.1), cached per request against the write queue's
     * epoch; the full row when none has a dirty word.
     */
    WordMask mergedWriteMask(Request &req);

    /**
     * Fold the exact release cycle of a gate that blocked into wake().
     * Bounds at or before @p now are stale — a gate register can sit in
     * the past while a *different* predicate (e.g. the weighted tFAW sum
     * behind an expired tRRD) blocks — and are dropped.
     */
    void
    noteWake(Cycle c, Cycle now)
    {
        if (c > now && c < wake_)
            wake_ = c;
    }

    /** Earliest noted retry cycle since clearWake(); ~0 when none. */
    Cycle wake() const { return wake_; }
    void clearWake() { wake_ = ~Cycle{0}; }

    /** Queued requests the scans and the merged-mask walk examined. */
    std::uint64_t visits() const { return visits_; }

  private:
    /**
     * The column gates on one request: not fault-starved, a row hit
     * under the cached probe, and (restricted close-page) the request
     * whose ACT opened the row.
     */
    bool columnCandidate(Request &req, Cycle now);
    /**
     * The column gates shared by every request of bank (@p r, @p b): an
     * open row without a pending auto-precharge, bank column timing, the
     * bank-group gate, the data bus and the row-hit cap. Returns @p now
     * if they pass, else the exact release of the blocking time gate, or ~0.
     */
    Cycle columnBankReadyAt(unsigned r, unsigned b, bool is_write,
                            Cycle now) const;

    const DramConfig *cfg_;
    const SchemeModel *scheme_;
    const BankEngine *banks_;
    const BusArbiter *bus_;
    const PracState *prac_;
    const SchedulerPolicy *sched_;
    RequestQueue *writeQ_;
    Cycle readLatency_;
    Cycle writeLatency_;
    Cycle wake_ = ~Cycle{0};
    std::uint64_t visits_ = 0;
};

} // namespace pra::dram

#endif // PRA_DRAM_REQUEST_SCAN_H
