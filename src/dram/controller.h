/**
 * @file
 * Per-channel DDR3/DDR4 memory controller, composed of four layers
 * (DESIGN.md §9):
 *
 *  - a SchedulerPolicy (dram/sched/) owning request *selection*: class
 *    priority (reads vs. writes, drain hysteresis) and how far the
 *    column/prepare scans may reorder past the queue head. FR-FCFS is
 *    the default; FCFS and FR-FCFS+write-age-promotion are ablations;
 *  - a BankEngine owning per-bank FSM state (open row, open PRA mask,
 *    hit streak, state epochs) plus pending-work counters, queried by
 *    the scheduling paths and maintenance alike;
 *  - a BusArbiter owning the shared-resource gates: command-bus slots,
 *    data-bus reservation with tRTRS rank turnaround, the tWTR
 *    write-to-read gate, and DDR4 tCCD_S/tCCD_L bank-group spacing;
 *  - a MaintenanceEngine owning refresh scheduling and the relaxed/
 *    restricted close policies, with a registerOp() seam for future
 *    maintenance operations (PRAC-style alerts, TRR, scrubbing).
 *
 * The controller itself keeps the queues (RequestQueue: per-bank age
 * lists; write combining, read forwarding, merged PRA masks) and the
 * command *mechanisms* — issuing
 * ACT/column/PRE/REF with stats, energy events, checker and auditor
 * reporting. The default FR-FCFS configuration is bit-identical to the
 * pre-decomposition monolith (pinned by test_golden_equivalence.cpp).
 *
 * Baseline behaviour: FR-FCFS scheduling with reads prioritized over
 * writes, separate 64-entry read/write queues with 48/16 write-drain
 * watermarks, row-interleaved mapping with the relaxed close-page
 * policy (rows close when no queued request can use them; at most four
 * consecutive row hits per activation), or line-interleaved mapping
 * with the restricted close-page policy (auto-precharge on every
 * column access). Refresh, data-bus and command-bus contention,
 * write-to-read turnaround and rank-to-rank switch penalties are
 * modeled.
 *
 * PRA behaviour (when the configured scheme enables partial writes):
 *  - a write activation ORs the PRA masks of every queued write to the
 *    same row and opens only those MAT groups;
 *  - partial activations spend one extra cycle delivering the mask over
 *    the address bus (and occupy the command/address bus for it);
 *  - requests that target a partially opened row whose needed groups are
 *    closed take a *false row buffer hit*: the row is precharged and
 *    re-activated before the access;
 *  - activations are charged against tRRD/tFAW by power weight, relaxing
 *    both constraints for partial activations.
 */
#ifndef PRA_DRAM_CONTROLLER_H
#define PRA_DRAM_CONTROLLER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "dram/bank_engine.h"
#include "dram/bus_arbiter.h"
#include "dram/checker.h"
#include "dram/config.h"
#include "dram/maintenance_engine.h"
#include "dram/prac.h"
#include "dram/request.h"
#include "dram/request_queue.h"
#include "dram/sched/scheduler_policy.h"
#include "dram/timing_tables.h"
#include "power/power_model.h"

namespace pra::verify {
class Auditor;
}

namespace pra::dram {

/** Controller statistics backing Table 1 and Figures 10/11. */
struct ControllerStats
{
    std::uint64_t readReqs = 0;
    std::uint64_t writeReqs = 0;

    // PRA-aware accounting: false hits count as misses.
    std::uint64_t readRowHits = 0;
    std::uint64_t writeRowHits = 0;
    std::uint64_t readRowMisses = 0;
    std::uint64_t writeRowMisses = 0;
    std::uint64_t readFalseHits = 0;   //!< Subset of readRowMisses.
    std::uint64_t writeFalseHits = 0;  //!< Subset of writeRowMisses.

    std::uint64_t actsForReads = 0;
    std::uint64_t actsForWrites = 0;
    std::uint64_t precharges = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t rfms = 0;            //!< PRAC mitigations issued.
    std::uint64_t forwardedReads = 0;  //!< Served from the write queue.

    /** Activation counts by granularity (bucket g = 1..8). */
    Histogram actGranularity{9};

    /**
     * Read-only slice of actGranularity: activations issued to serve
     * reads, by granularity. Degenerate (all 8/8) for every scheme
     * without partial reads; the read-granularity sweep in bench_fig11
     * compares speculative-read schemes through it.
     */
    Histogram readActGranularity{9};

    Summary readLatency;

    double
    readHitRate() const
    {
        const auto t = readRowHits + readRowMisses;
        return t ? static_cast<double>(readRowHits) / t : 0.0;
    }
    double
    writeHitRate() const
    {
        const auto t = writeRowHits + writeRowMisses;
        return t ? static_cast<double>(writeRowHits) / t : 0.0;
    }
    double
    totalHitRate() const
    {
        const auto h = readRowHits + writeRowHits;
        const auto t = h + readRowMisses + writeRowMisses;
        return t ? static_cast<double>(h) / t : 0.0;
    }
};

/** ControllerStats' field table (common/fields.h): the result keys. */
template <typename Visit, typename... Self>
    requires FieldsOf<ControllerStats, Self...>
void
forEachField(Visit &&v, Self &...s)
{
    [[maybe_unused]] auto &[readReqs, writeReqs, readRowHits, writeRowHits,
                            readRowMisses, writeRowMisses, readFalseHits,
                            writeFalseHits, actsForReads, actsForWrites,
                            precharges, refreshes, rfms, forwardedReads,
                            actGranularity, readActGranularity,
                            readLatency] = fieldsHead(s...);
    v("read_reqs", 0, s.readReqs...);
    v("write_reqs", 0, s.writeReqs...);
    v("read_row_hits", 0, s.readRowHits...);
    v("write_row_hits", 0, s.writeRowHits...);
    v("read_row_misses", 0, s.readRowMisses...);
    v("write_row_misses", 0, s.writeRowMisses...);
    v("read_false_hits", 0, s.readFalseHits...);
    v("write_false_hits", 0, s.writeFalseHits...);
    v("acts_for_reads", 0, s.actsForReads...);
    v("acts_for_writes", 0, s.actsForWrites...);
    v("precharges", 0, s.precharges...);
    v("refreshes", 0, s.refreshes...);
    v("rfms", 0, s.rfms...);
    v("forwarded_reads", 0, s.forwardedReads...);
    v("act_granularity", 0, s.actGranularity...);
    v("read_act_granularity", 0, s.readActGranularity...);
    v("read_latency", 0, s.readLatency...);
}

/**
 * Observational counters of the event-driven engine (DESIGN.md §11).
 * Not part of simulated behaviour: excluded from golden fingerprints
 * and from the result cache.
 */
struct EngineStats
{
    std::uint64_t rounds = 0;       //!< Scheduling rounds executed.
    std::uint64_t skippedTicks = 0; //!< Ticks that ran no round.
    // Heap-era names (the benchmark's metrics use them); there is no heap.
    /** Rounds started by a due published wake, not an arrival or a
     *  follow-up. */
    std::uint64_t eventsPopped = 0;
    std::uint64_t heapPeak = 0;     //!< Most candidates one publish produced.
    /** Banks the maintenance engine examined (its scans and wake bound). */
    std::uint64_t maintBankVisits = 0;
    /**
     * Queued requests examined by the column and prepare scans, the
     * open-row recount after an ACT and the merged write-mask walk.
     */
    std::uint64_t queueVisits = 0;
};

/** One channel: queues + command mechanisms over the four layers. */
class MemoryController : private MaintenanceHooks
{
  public:
    MemoryController(const DramConfig &cfg, unsigned channel_id);

    /** Backpressure check; true when the queue has room. */
    bool canAccept(bool is_write) const;

    /** Enqueue @p req (its loc must already be decoded). */
    void enqueue(Request req, Cycle now);

    /**
     * Advance one DRAM cycle (DESIGN.md §11). Every call first delivers
     * the in-flight reads that finish by @p now. A call before the
     * published next-wake cycle does nothing else but defer background
     * power; rounds run exactly at published wake cycles (and whenever
     * enqueue() lowers the wake target). Under DramConfig::forceRounds
     * every call runs a full round.
     */
    void tick(Cycle now);

    /**
     * Cycle-skip support: the next cycle (> @p now) at which tick()
     * could do anything beyond background power accounting — issue a
     * command, auto-precharge, or deliver a completion — assuming no
     * new request is enqueued in between: the earlier of the published
     * wake cycle and the next in-flight finish, returned without a scan.
     * Before the first tick nothing is published yet, and the bound is
     * @p now + 1.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Cycle-skip support: skip cycles [@p from, @p to), where @p from is
     * the cycle after the last tick. Only valid when nextEventCycle(from)
     * >= to and nothing is enqueued in the window — i.e. every skipped
     * tick would have been action-free. O(1): the window joins the
     * deferred background window, as published-quiet ticks do.
     */
    void fastForward(Cycle from, Cycle to);

    /** Finished reads since the last drain (caller clears). */
    std::vector<Completion> &completions() { return finished_; }

    /** Any queued or in-flight work. */
    bool busy() const;

    const ControllerStats &stats() const { return stats_; }

    /**
     * Background-energy counters. Event-mode skipped ticks defer their
     * background accounting (settled analytically at the next round);
     * reading the counters settles any still-pending window first so
     * callers always see every ticked cycle accounted.
     */
    const power::EnergyCounts &
    energyCounts() const
    {
        const_cast<MemoryController *>(this)->settleBackground();
        return energy_;
    }

    /** Event-engine counters, with the maintenance engine's work count. */
    EngineStats
    engineStats() const
    {
        EngineStats s = engineStats_;
        s.maintBankVisits = maint_.bankVisits();
        return s;
    }

    unsigned numRanks() const { return banks_.numRanks(); }
    const Rank &rank(unsigned r) const { return banks_.rank(r); }

    /** Per-bank state engine (banks, pending-work counters). */
    const BankEngine &bankEngine() const { return banks_; }

    /** The scheduling policy driving request selection. */
    const SchedulerPolicy &schedulerPolicy() const { return *sched_; }

    /** PRAC counters/alert state (inert unless DramConfig::pracEnabled). */
    const PracState &prac() const { return prac_; }

    /** Maintenance engine; registerOp() is the extension seam. */
    MaintenanceEngine &maintenance() { return maint_; }

    std::size_t readQueueSize() const { return readQ_.size(); }
    std::size_t writeQueueSize() const { return writeQ_.size(); }

    /** Protocol checker, when DramConfig::enableChecker is set. */
    const TimingChecker *checker() const { return checker_.get(); }

    /**
     * Attach the cross-layer invariant auditor (not owned). The
     * controller reports write-queue admissions and every command it
     * issues; the auditor re-derives mask/granularity expectations from
     * its own shadow state.
     */
    void attachAuditor(verify::Auditor *auditor) { audit_ = auditor; }

  private:
    WordMask needOf(const Request &req) const;
    void classify(Request &req, RowProbe probe);

    /** The queued write to @p req's address, or null (for combining and
     *  forwarding). */
    Request *queuedWrite(const Request &req);

    /** Queue occupancy snapshot handed to the scheduler policy. */
    SchedulerInputs schedulerInputs() const;

    bool tryColumnAccess(RequestQueue &queue, bool is_write, Cycle now);
    bool tryPrepare(RequestQueue &queue, bool is_write, Cycle now);

    /**
     * The column scan's gates on one request: not fault-starved, a row
     * hit under the cached probe, and (restricted close-page) the
     * request whose ACT opened the row.
     */
    bool columnCandidate(Request &req, Cycle now);
    /**
     * The column scan's gates shared by every request of @p req's bank:
     * no pending auto-precharge, bank column timing, the bank-group
     * column gate, the data bus and the row-hit cap. Notes the release
     * cycle of a blocking timing gate.
     */
    bool columnBankReady(const Request &req, bool is_write, Cycle now);

    void issueActivate(Request &req, bool is_write, Cycle now);
    void issueColumn(RequestQueue &queue, RequestQueue::Slot slot,
                     bool is_write, Cycle now);

    // MaintenanceHooks (decisions live in the MaintenanceEngine).
    void issuePrecharge(unsigned rank_id, unsigned bank_id,
                        Cycle now) override;
    void issueAutoPrecharge(unsigned rank_id, unsigned bank_id,
                            Cycle now) override;
    void issueRefresh(unsigned rank_id, Cycle now) override;
    void issueRfm(unsigned rank_id, Cycle now) override;

    /**
     * OR of PRA masks of every queued write to @p req's row, cached per
     * request and invalidated by writeQueueEpoch_.
     */
    WordMask mergedWriteMask(Request &req);

    void accountBackground(Cycle now);

    /**
     * Account the background power of the deferred window [bgFrom_,
     * bgPending_) in one analytic jump (Rank::fastForwardBackground).
     * Skipped ticks and fastForward() only record bgPending_; the
     * window is action- and arrival-free by construction, so the jump
     * is exact.
     */
    void settleBackground();

    /** Move the in-flight reads finished by @p now to finished_ (no
     *  round: a delivery changes no bank, bus, queue or policy state). */
    void deliverFinished(Cycle now);

    // --- Event engine (DESIGN.md §11) --------------------------------------

    /** One full scheduling round over the queue snapshot @p inputs. */
    void runRound(Cycle now, const SchedulerInputs &inputs);

    /**
     * Set nextWake_ to the minimum of the wake candidates (kNever when
     * there are none). Called after every quiet round; the invariant
     * nextWake_ > now holds on return. The candidates are exact, not
     * conservative: the quiet round's failing scans record the release
     * cycle of each gate that blocked a scanned request (scanWake_), and
     * the layers publish their own next decisions — the maintenance
     * engine's nextWakeAt() (refresh deadlines, blocked closes,
     * auto-precharge retirements) and the scheduler's time-driven
     * selection flip. Everything else that could enable work is itself
     * an event (an enqueue lowers nextWake_; a command can only issue
     * inside a round). In-flight finishes are not candidates: they have
     * their own bound, nextFinish_. @p inputs is the quiet round's queue
     * snapshot, still current because the round issued nothing.
     */
    void publishWakeups(Cycle now, const SchedulerInputs &inputs);

    /**
     * Record an exact retry cycle for a gate that blocked this round.
     * Bounds at or before @p now are stale — a gate register can sit in
     * the past while a *different* predicate (e.g. the weighted tFAW
     * sum behind an expired tRRD) does the blocking — and must not
     * shadow the real future bounds under the single-min collapse.
     */
    void
    noteWake(Cycle c, Cycle now)
    {
        if (c > now && c < scanWake_)
            scanWake_ = c;
    }

    /** Sentinel wake cycle: nothing scheduled. */
    static constexpr Cycle kNever = ~Cycle{0};

    const DramConfig *cfg_;
    const SchemeModel *scheme_;
    unsigned channelId_;

    BankEngine banks_;
    BusArbiter bus_;
    std::unique_ptr<SchedulerPolicy> sched_;
    MaintenanceEngine maint_;
    /** PRAC counters/alert state; inert unless DramConfig::pracEnabled
     *  (the ctor then registers the "prac_rfm" maintenance op). */
    PracState prac_;

    RequestQueue readQ_;
    RequestQueue writeQ_;
    /**
     * Per rank, bit b: a write combine in bank b shrank a write's
     * footprint (an empty mask widens to the full row, so OR-ing in a
     * non-empty one narrows it) since the bank's last ACT, so a row hit
     * there may be missing from openRowMatches. The FR-FCFS column scan
     * walks such a bank even when its count reads zero.
     */
    std::vector<std::uint64_t> uncountedHitBanks_;
    /** Bumped whenever writeQ_ membership or masks change. */
    std::uint64_t writeQueueEpoch_ = 0;

    std::vector<Completion> inflight_;  //!< Reads waiting for data.
    std::vector<Completion> finished_;

    ControllerStats stats_;
    power::EnergyCounts energy_;
    std::unique_ptr<TimingChecker> checker_;
    verify::Auditor *audit_ = nullptr;

    // Event engine state (DESIGN.md §11).
    TimingTables tables_;     //!< Precomputed command-pair gaps.
    bool replayForce_;        //!< DramConfig::forceRounds: round every tick.
    Cycle nextWake_ = 0;      //!< Next round's cycle; 0 forces the first.
    bool wakePublished_ = false; //!< nextWake_ came from publishWakeups.
    Cycle nextFinish_ = kNever; //!< Earliest in-flight read finish.
    EngineStats engineStats_;
    bool roundActivity_ = false; //!< Set when the current round acts.
    Cycle scanWake_ = kNever; //!< Min gate release noted by this round.
    Cycle bgFrom_ = 0;        //!< First cycle with unaccounted background.
    Cycle bgPending_ = 0;     //!< End (exclusive) of the deferred window.
};

} // namespace pra::dram

#endif // PRA_DRAM_CONTROLLER_H
