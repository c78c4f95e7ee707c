#include "analysis/model_checker.h"

#include <algorithm>
#include <deque>
#include <set>
#include <unordered_set>
#include <utility>

#include "common/hash.h"
#include "dram/bank_engine.h"
#include "dram/bus_arbiter.h"
#include "dram/checker.h"
#include "dram/maintenance_engine.h"
#include "dram/request.h"
#include "dram/sched/scheduler_policy.h"

namespace pra::analysis {

namespace {

using dram::BankEngine;
using dram::BusArbiter;
using dram::CheckedCommand;
using dram::DramConfig;
using dram::MaintenanceEngine;
using dram::Request;
using dram::TimingChecker;

/**
 * Timing-register deltas are saturated at this horizon when hashing
 * (see Bank::fingerprint). Anything further out than the default depth
 * budget cannot fire within one exploration, so states differing only
 * beyond it merge. Dedup is a pruning heuristic: merging never invents
 * a violation, it can only skip re-exploring an already-covered future.
 */
constexpr Cycle kFingerprintHorizon = 64;

/** All-ones sentinel: no pending deadline / never woken. */
constexpr Cycle kNever = ~Cycle{0};

/**
 * PRAC model knobs, armed for the PRAC fault drills (drop_count,
 * late_rfm) and whenever Options::disturbanceThreshold asks for a clean
 * PRAC exploration: a tiny threshold so the alert and both drills fire
 * within the default depth budget, a CAM deep enough that the hammer
 * rows never evict (eviction soundness is a unit-test concern), a short
 * tRFM, and a recovery window comfortably above the worst clean-path
 * drain (ModelCheckResult::maxRecoveryWait pins the headroom).
 */
constexpr unsigned kModelPracCam = 4;
constexpr Cycle kModelRecoveryWindow = 48;
constexpr unsigned kModelTrfm = 4;

void
armModelPrac(dram::DramConfig &cfg)
{
    cfg.pracEnabled = true;
    cfg.disturbanceThreshold = ModelChecker::kDefaultDisturbanceThreshold;
    cfg.pracCamEntries = kModelPracCam;
    cfg.pracRecoveryWindow = kModelRecoveryWindow;
    cfg.timing.tRfm = kModelTrfm;
    // Every column access re-activates its row (a true hammer): with
    // the default cap of 2 and only linesPerRow columns per row, no row
    // could reach threshold - 1 activations on any explored path and
    // the alert machinery would be vacuously clean.
    cfg.rowHitCap = 1;
}

/** Candidate-enumeration-only hooks: the explorer issues commands on
 *  its own copied state, so the engine's issue callbacks are unused. */
class NullHooks final : public dram::MaintenanceHooks
{
  public:
    void issuePrecharge(unsigned, unsigned, Cycle) override {}
    void issueAutoPrecharge(unsigned, unsigned, Cycle) override {}
    void issueRefresh(unsigned, Cycle) override {}
};

NullHooks g_nullHooks;

/** One fully copyable point of the explored product state space. */
struct ModelState
{
    Cycle now = 0;
    BankEngine banks;
    BusArbiter bus;
    std::deque<Request> readQ;
    std::deque<Request> writeQ;
    std::size_t nextArrival = 0;
    TimingChecker checker;
    /** Liveness bookkeeping: last cycle each rank was granted any
     *  command while owing queued work (kNever = no queued work). */
    std::vector<Cycle> rankOwed;
    /** PRAC implementation model (tag CAMs + alert), copied per state. */
    dram::PracState prac;
    /** Disturbance *spec* shadow, independent of the CAM: per
     *  (rank, bank, row) activations since the row was last mitigated.
     *  Empty with PRAC off. */
    std::vector<std::uint16_t> specCounts;

    ModelState(const DramConfig &cfg)
        : banks(cfg), bus(cfg), checker(cfg),
          rankOwed(cfg.ranksPerChannel, kNever), prac(cfg),
          specCounts(cfg.pracEnabled
                         ? static_cast<std::size_t>(cfg.ranksPerChannel) *
                               cfg.banksPerRank * cfg.rowsPerBank
                         : std::size_t{0},
                     0)
    {
    }
};

/** One enumerated legal command (or letting the cycle pass). */
struct Choice
{
    enum class Kind
    {
        Idle,
        Refresh,
        Precharge,
        Activate,
        Column,
        Rfm,
    };

    Kind kind = Kind::Idle;
    bool isWrite = false;   //!< Activate/Column: which queue.
    std::size_t index = 0;  //!< Activate/Column: queue position.
    unsigned rank = 0;      //!< Target rank (all command kinds).
    unsigned bank = 0;      //!< Target bank (Refresh: unused).
    std::uint32_t row = 0;  //!< Activate/Column target row.
    unsigned col = 0;       //!< Column target.
    bool partial = false;   //!< Activate: holds extra mask bus cycles.

    /**
     * Identity for sleep-set bookkeeping: a choice re-enumerated in a
     * successor state is "the same" choice when its command-level
     * target matches (queue indices shift as requests dequeue, so the
     * index is deliberately not part of the key).
     */
    std::uint64_t
    key() const
    {
        return (static_cast<std::uint64_t>(kind) << 60) |
               (static_cast<std::uint64_t>(isWrite) << 56) |
               (static_cast<std::uint64_t>(rank) << 48) |
               (static_cast<std::uint64_t>(bank) << 40) |
               (static_cast<std::uint64_t>(row) << 8) | col;
    }
};

/**
 * Conservative commutation test for sleep-set pruning. Two command
 * choices are independent when issuing them in either order reaches
 * the same successor state and neither order disables the other:
 *
 *  - only Activate/Precharge/Column commute (Refresh, RFM and Idle
 *    restart or stall whole ranks, and a partial Activate holds the
 *    command bus for extra mask cycles, skewing every later issue
 *    cycle);
 *  - two Columns never commute (shared data bus, channel column gate,
 *    and the tWTR turnaround are order-sensitive);
 *  - same-bank pairs never commute (one bank FSM);
 *  - same-rank pairs with an Activate never commute (tRRD and the
 *    weighted tFAW window are rank-level registers).
 *
 * This is a bounded-commutation heuristic, not a proof; CI compares a
 * reduced and an unreduced run at equal depth and requires identical
 * findings (EXPERIMENTS.md pins the state-count ratio).
 */
bool
independentChoices(const Choice &a, const Choice &b)
{
    auto movable = [](const Choice &c) {
        return (c.kind == Choice::Kind::Activate && !c.partial) ||
               c.kind == Choice::Kind::Precharge ||
               c.kind == Choice::Kind::Column;
    };
    if (!movable(a) || !movable(b))
        return false;
    if (a.kind == Choice::Kind::Column && b.kind == Choice::Kind::Column)
        return false;
    if (a.rank == b.rank) {
        if (a.bank == b.bank)
            return false;
        if (a.kind == Choice::Kind::Activate ||
            b.kind == Choice::Kind::Activate)
            return false;
    }
    return true;
}

class Explorer
{
  public:
    Explorer(const ModelChecker::Options &opts)
        : opts_(opts), cfg_(ModelChecker::modelConfig(
                           opts.fault, opts.disturbanceThreshold)),
          workload_(ModelChecker::defaultWorkload())
    {
        cfg_.scheduler = opts.scheduler;
        // Scheme override: the model is checked against any registered
        // scheme plugin; the default stays the paper's PRA model.
        if (!opts_.scheme.empty())
            cfg_.scheme = &schemeByName(opts_.scheme);
        scheme_ = cfg_.scheme;
        // Degenerate-geometry overrides: fold the workload onto the
        // overridden shape and drop bank grouping when it no longer
        // divides the bank count (single-bank ranks, odd counts).
        if (opts.overrideRanks > 0)
            cfg_.ranksPerChannel = opts.overrideRanks;
        if (opts.overrideBanks > 0)
            cfg_.banksPerRank = opts.overrideBanks;
        if (opts.overrideBankGroups > 0)
            cfg_.timing.bankGroups = opts.overrideBankGroups;
        if (cfg_.timing.bankGroups > 1 &&
            (cfg_.banksPerRank < cfg_.timing.bankGroups ||
             cfg_.banksPerRank % cfg_.timing.bankGroups != 0)) {
            cfg_.timing.bankGroups = 1;
        }
        // PRAC exploration (armed by a PRAC fault or a disturbance-
        // threshold override) runs the hammer workload.
        if (cfg_.pracEnabled)
            workload_ = ModelChecker::pracWorkload();
        for (ModelRequest &m : workload_) {
            m.rank %= cfg_.ranksPerChannel;
            m.bank %= cfg_.banksPerRank;
        }
        sched_ = dram::makeSchedulerPolicy(cfg_);
    }

    ModelCheckResult run();

    bool livenessOn() const { return opts_.livenessBound > 0; }

  private:
    // --- Workload admission (mirrors MemoryController::enqueue) ----------

    WordMask
    needOf(const Request &req) const
    {
        if (!req.isWrite)
            return scheme_->readNeed(req.addr);
        return scheme_->writeNeed(req.mask, req.chipMask);
    }

    void
    enqueueArrivals(ModelState &s) const
    {
        while (s.nextArrival < workload_.size() &&
               workload_[s.nextArrival].arrival <= s.now) {
            const ModelRequest &m = workload_[s.nextArrival++];
            Request req;
            req.addr = syntheticAddr(m);
            req.isWrite = m.isWrite;
            req.mask = m.isWrite ? WordMask{m.mask} : WordMask::full();
            req.arrival = s.now;
            req.loc.channel = 0;
            req.loc.rank = m.rank;
            req.loc.bank = m.bank;
            req.loc.row = m.row;
            req.loc.col = m.col;
            if (req.isWrite) {
                // Write combining with a queued same-line write.
                bool combined = false;
                for (Request &w : s.writeQ) {
                    if (w.addr == req.addr) {
                        w.mask |= req.mask;
                        w.need = needOf(w);
                        w.probeEpoch = Request::kProbeInvalid;
                        combined = true;
                        break;
                    }
                }
                if (combined)
                    continue;
                req.need = needOf(req);
                s.writeQ.push_back(req);
                s.banks.onEnqueue(s.writeQ.back());
            } else {
                // Read forwarding: served from the write queue, never
                // reaches DRAM.
                bool forwarded = false;
                for (const Request &w : s.writeQ)
                    forwarded = forwarded || w.addr == req.addr;
                if (forwarded)
                    continue;
                req.need = needOf(req);
                s.readQ.push_back(req);
                s.banks.onEnqueue(s.readQ.back());
            }
        }
    }

    Addr
    syntheticAddr(const ModelRequest &m) const
    {
        const Addr lines =
            ((static_cast<Addr>(m.row) * cfg_.banksPerRank + m.bank) *
                 cfg_.ranksPerChannel +
             m.rank) *
                cfg_.linesPerRow +
            m.col;
        return lines * 64;
    }

    /** OR of queued same-row write masks (mergedWriteMask, uncached). */
    WordMask
    mergedWriteMask(const ModelState &s, const Request &req) const
    {
        WordMask merged = WordMask::none();
        for (const Request &w : s.writeQ) {
            if (!w.loc.sameRow(req.loc))
                continue;
            merged |= scheme_->writeMask(w.mask, w.chipMask);
            if (!cfg_.mergeWriteMasks)
                break;
        }
        return merged.empty() ? WordMask::full() : merged;
    }

    // --- Command application (mirrors the controller's issue paths) ------

    /** Spec-shadow slot for (rank, bank, row); PRAC configs only. */
    std::uint16_t &
    specCountAt(ModelState &s, unsigned r, unsigned b,
                std::uint32_t row) const
    {
        return s.specCounts[(static_cast<std::size_t>(r) *
                                 cfg_.banksPerRank +
                             b) *
                                cfg_.rowsPerBank +
                            row];
    }

    /** Feed @p cmd to the path checker; non-empty on a rule breach. */
    std::string
    observe(ModelState &s, const CheckedCommand &cmd)
    {
        s.checker.observe(cmd);
        if (!s.checker.clean())
            return s.checker.violations().front();
        return {};
    }

    std::string
    applyActivate(ModelState &s, bool is_write, std::size_t idx,
                  std::vector<ScriptCommand> &path)
    {
        std::deque<Request> &q = is_write ? s.writeQ : s.readQ;
        Request &req = q[idx];
        dram::Rank &rank = s.banks.rank(req.loc.rank);

        const WordMask dirty =
            is_write ? mergedWriteMask(s, req)
            : req.fullRowFallback ? WordMask::full()
                                  : scheme_->readActMask(req.addr);
        unsigned gran = scheme_->actGranularity(is_write, dirty);
        WordMask open_mask = scheme_->actMask(is_write, dirty);
        const bool partial = scheme_->needsMaskCycle(is_write, dirty);
        if (partial && gran < cfg_.minActGranularity)
            gran = std::min(cfg_.minActGranularity, kMatGroups);
        const double weight = cfg_.weightedActWindow
                                  ? scheme_->actWeight(gran, cfg_.power)
                                  : 1.0;
        // The scheme-derived mask is the invariant; the fault hook (when
        // armed) widens the issued mask behind its back, exactly like the
        // controller's issueActivate does.
        const WordMask expected = open_mask;
        if (cfg_.auditFaultWidenAct != 0)
            open_mask |= WordMask{cfg_.auditFaultWidenAct};

        ScriptCommand sc;
        sc.kind = CheckedCommand::Kind::Activate;
        sc.cycle = s.now;
        sc.rank = req.loc.rank;
        sc.bank = req.loc.bank;
        sc.row = req.loc.row;
        sc.partial = partial;
        sc.weight = weight;
        sc.mask = open_mask.bits();
        sc.expect = expected.bits();
        path.push_back(sc);

        std::string v = observe(s, sc.checked());
        if (v.empty() && open_mask != expected) {
            v = "cycle " + std::to_string(s.now) +
                ": ACT opens mask beyond the scheme-derived union of "
                "served dirty MAT groups";
        }
        rank.activateBank(req.loc.bank, s.now, req.loc.row, open_mask,
                          partial);
        rank.recordActivation(s.now, weight);
        // The implementation model counts through the (possibly faulted)
        // PRAC state machine; the spec shadow counts *every* ACT. Their
        // divergence is exactly what the threshold property watches.
        if (cfg_.pracEnabled && req.loc.row < cfg_.rowsPerBank) {
            s.prac.onActivate(req.loc.rank, req.loc.bank, req.loc.row,
                              partial, s.now);
            std::uint16_t &cnt = specCountAt(s, req.loc.rank,
                                             req.loc.bank, req.loc.row);
            ++cnt;
            if (v.empty() && cnt >= cfg_.disturbanceThreshold) {
                v = "cycle " + std::to_string(s.now) + " rank " +
                    std::to_string(req.loc.rank) + " bank " +
                    std::to_string(req.loc.bank) + ": row " +
                    std::to_string(req.loc.row) +
                    " activation count reached the disturbance "
                    "threshold " +
                    std::to_string(cfg_.disturbanceThreshold) +
                    " without mitigation";
            }
        }
        s.bus.holdCmdBus(s.now,
                         partial ? cfg_.timing.praMaskCycles : 0u);
        s.banks.recountOpenRowMatches(req.loc.rank, req.loc.bank, s.readQ,
                                      s.writeQ);
        return v;
    }

    std::string
    applyColumn(ModelState &s, bool is_write, std::size_t idx,
                std::vector<ScriptCommand> &path)
    {
        std::deque<Request> &q = is_write ? s.writeQ : s.readQ;
        const Request req = q[idx];
        q.erase(q.begin() + static_cast<std::ptrdiff_t>(idx));

        dram::Bank &bank = s.banks.bank(req.loc.rank, req.loc.bank);
        const unsigned burst = scheme_->columnBurstCycles(
            is_write,
            is_write ? scheme_->writeMask(req.mask, req.chipMask) : req.need,
            static_cast<unsigned>(cfg_.timing.burstCycles));
        const WordMask open_mask = bank.rowBuffer().openMask();

        ScriptCommand sc;
        sc.kind = is_write ? CheckedCommand::Kind::Write
                           : CheckedCommand::Kind::Read;
        sc.cycle = s.now;
        sc.rank = req.loc.rank;
        sc.bank = req.loc.bank;
        sc.row = req.loc.row;
        sc.burst = burst;
        sc.need = req.need.bits();
        path.push_back(sc);

        std::string v = observe(s, sc.checked());
        // PRA mask invariants, independent of the probe that admitted
        // the access: reads consume the full row, and any column access
        // must fall inside the open (possibly partial) mask.
        if (v.empty() && !is_write && !scheme_->partialReads() &&
            !open_mask.isFull()) {
            v = "cycle " + std::to_string(s.now) +
                ": READ served by a partially open row";
        }
        if (v.empty() && !open_mask.covers(req.need)) {
            v = "cycle " + std::to_string(s.now) +
                ": column access outside the open PRA mask";
        }

        s.bus.noteColumnIssued(req.loc.bank, s.now);
        s.bus.holdCmdBus(s.now);
        bank.recordHit();
        if (cfg_.policy == dram::PagePolicy::RestrictedClose)
            bank.setAutoPrecharge();
        if (is_write) {
            bank.write(s.now, burst);
            s.bus.reserveDataBus(s.now + cfg_.timing.wl, burst,
                                 req.loc.rank);
            s.bus.noteWriteIssued(s.now, burst);
        } else {
            bank.read(s.now, burst);
            s.bus.reserveDataBus(s.now + cfg_.timing.rl(), burst,
                                 req.loc.rank);
        }
        s.banks.onDequeue(req);
        return v;
    }

    std::string
    applyPrecharge(ModelState &s, unsigned r, unsigned b,
                   std::vector<ScriptCommand> &path, bool auto_pre)
    {
        ScriptCommand sc;
        sc.kind = CheckedCommand::Kind::Precharge;
        sc.cycle = s.now;
        sc.rank = r;
        sc.bank = b;
        path.push_back(sc);

        const std::string v = observe(s, sc.checked());
        s.banks.rank(r).prechargeBank(b, s.now);
        if (!auto_pre)
            s.bus.holdCmdBus(s.now);
        s.banks.onPrecharge(r, b);
        return v;
    }

    std::string
    applyRefresh(ModelState &s, unsigned r,
                 std::vector<ScriptCommand> &path)
    {
        ScriptCommand sc;
        sc.kind = CheckedCommand::Kind::Refresh;
        sc.cycle = s.now;
        sc.rank = r;
        path.push_back(sc);

        const std::string v = observe(s, sc.checked());
        s.banks.rank(r).refresh(s.now);
        s.bus.holdCmdBus(s.now);
        return v;
    }

    /** Mirrors MemoryController::issueRfm: clear the hottest tracked
     *  entry, busy the rank for tRFM, and reset the victim's spec
     *  count — the mitigation the threshold property credits. */
    std::string
    applyRfm(ModelState &s, unsigned r, std::vector<ScriptCommand> &path)
    {
        const dram::PracMitigation mit = s.prac.applyRfm(r, s.now);
        ScriptCommand sc;
        sc.kind = CheckedCommand::Kind::Rfm;
        sc.cycle = s.now;
        sc.rank = r;
        sc.bank = mit.bank;
        sc.row = mit.row;
        path.push_back(sc);

        const std::string v = observe(s, sc.checked());
        s.banks.rank(r).rfm(s.now);
        s.bus.holdCmdBus(s.now);
        if (cfg_.pracEnabled && mit.row < cfg_.rowsPerBank)
            specCountAt(s, r, mit.bank, mit.row) = 0;
        return v;
    }

    /** Retire every ready auto-precharge (forced, not a choice). */
    std::string
    applyAutoPrecharges(ModelState &s, std::vector<ScriptCommand> &path)
    {
        MaintenanceEngine maint(cfg_, s.banks, g_nullHooks);
        for (const auto &[r, b] : maint.autoPrechargeCandidates(s.now)) {
            const std::string v = applyPrecharge(s, r, b, path, true);
            if (!v.empty())
                return v;
        }
        return {};
    }

    /** Re-derive each rank's owed-service clock from queue occupancy. */
    void
    updateRankOwed(ModelState &s) const
    {
        if (!livenessOn())
            return;
        for (unsigned r = 0; r < cfg_.ranksPerChannel; ++r) {
            if (!s.banks.anyQueuedInRank(r))
                s.rankOwed[r] = kNever;
            else if (s.rankOwed[r] == kNever)
                s.rankOwed[r] = s.now;
        }
    }

    struct EdgeOutcome
    {
        std::string violation;
        /** Arrivals enqueued or auto-precharges retired on this edge
         *  (environment steps: inherited sleep sets must be dropped). */
        bool envChanged = false;
    };

    /**
     * Take @p c on @p s, then advance time and run the forced per-cycle
     * steps (arrivals, auto-precharge retirement). An Idle edge with
     * @p leap_to past now+1 jumps straight to that cycle — the caller
     * guarantees (via firstChangeAt() and the liveness deadlines) that
     * every skipped cycle offers no command, no arrival, no ready
     * auto-precharge, and crosses no progress deadline.
     */
    EdgeOutcome
    applyEdge(ModelState &s, const Choice &c,
              std::vector<ScriptCommand> &path, Cycle leap_to)
    {
        EdgeOutcome out;
        bool served = false;
        switch (c.kind) {
          case Choice::Kind::Idle:
            break;
          case Choice::Kind::Refresh:
            out.violation = applyRefresh(s, c.rank, path);
            served = true;
            break;
          case Choice::Kind::Precharge:
            out.violation = applyPrecharge(s, c.rank, c.bank, path, false);
            served = true;
            break;
          case Choice::Kind::Activate:
            out.violation = applyActivate(s, c.isWrite, c.index, path);
            served = true;
            break;
          case Choice::Kind::Column:
            out.violation = applyColumn(s, c.isWrite, c.index, path);
            served = true;
            break;
          case Choice::Kind::Rfm:
            out.violation = applyRfm(s, c.rank, path);
            served = true;
            break;
        }
        if (!out.violation.empty())
            return out;
        // Any command counts as the rank being granted service
        // (refresh included: it is the rank making forced progress).
        if (served && livenessOn())
            s.rankOwed[c.rank] = s.now;
        const std::size_t arrivals_before = s.nextArrival;
        const std::size_t path_before = path.size();
        if (c.kind == Choice::Kind::Idle && leap_to > s.now + 1)
            s.now = leap_to;
        else
            s.now += 1;
        enqueueArrivals(s);
        out.envChanged = s.nextArrival != arrivals_before;
        out.violation = applyAutoPrecharges(s, path);
        out.envChanged = out.envChanged || path.size() != path_before;
        updateRankOwed(s);
        return out;
    }

    // --- Liveness properties (bounded progress) ---------------------------

    /**
     * Check the bounded-progress properties at @p s: every queued
     * request younger than the liveness bound, refresh within its
     * slack past tREFI, and every rank owing queued work granted some
     * command within the bound. Also records the clean-run headroom
     * (max wait / max overrun) used to tune the default bounds.
     */
    std::string
    checkLiveness(const ModelState &s, ModelCheckResult &res) const
    {
        if (!livenessOn())
            return {};
        auto starved = [&](const Request &r) -> std::string {
            const Cycle wait = s.now - r.arrival;
            res.maxRequestWait = std::max(res.maxRequestWait, wait);
            if (wait <= opts_.livenessBound)
                return {};
            return "cycle " + std::to_string(s.now) + " rank " +
                   std::to_string(r.loc.rank) + " bank " +
                   std::to_string(r.loc.bank) +
                   ": request starved - queued " + std::to_string(wait) +
                   " cycles > liveness bound " +
                   std::to_string(opts_.livenessBound);
        };
        for (const Request &r : s.readQ) {
            const std::string v = starved(r);
            if (!v.empty())
                return v;
        }
        for (const Request &r : s.writeQ) {
            const std::string v = starved(r);
            if (!v.empty())
                return v;
        }
        for (unsigned r = 0; r < cfg_.ranksPerChannel; ++r) {
            const Cycle due = s.banks.rank(r).nextRefreshAt();
            if (s.now > due) {
                const Cycle over = s.now - due;
                res.maxRefreshOverrun =
                    std::max(res.maxRefreshOverrun, over);
                if (over > opts_.refreshSlack) {
                    return "cycle " + std::to_string(s.now) + " rank " +
                           std::to_string(r) +
                           ": refresh overran its tREFI deadline by " +
                           std::to_string(over) + " cycles > slack " +
                           std::to_string(opts_.refreshSlack);
                }
            }
            // Disturbance-safety recovery window (DESIGN.md §13):
            // under work conservation an outstanding Alert Back-Off
            // must see its RFM mitigation inside the window — the
            // late_rfm fault holds the mitigation back one full window
            // and must land here.
            if (cfg_.pracEnabled && s.prac.alertActive(r)) {
                const Cycle wait = s.now - s.prac.alertRaisedAt(r);
                res.maxRecoveryWait =
                    std::max(res.maxRecoveryWait, wait);
                if (wait > cfg_.pracRecoveryWindow) {
                    return "cycle " + std::to_string(s.now) + " rank " +
                           std::to_string(r) +
                           ": PRAC alert outstanding " +
                           std::to_string(wait) +
                           " cycles > recovery window " +
                           std::to_string(cfg_.pracRecoveryWindow) +
                           " - RFM mitigation missed its window";
                }
            }
            if (s.rankOwed[r] != kNever &&
                s.now - s.rankOwed[r] > opts_.livenessBound) {
                return "cycle " + std::to_string(s.now) + " rank " +
                       std::to_string(r) +
                       ": rank with queued work granted no command for " +
                       std::to_string(s.now - s.rankOwed[r]) +
                       " cycles > liveness bound " +
                       std::to_string(opts_.livenessBound);
            }
        }
        return {};
    }

    /**
     * Earliest cycle at which any bounded-progress property could flip
     * from holding to violated if no further command issues. Idle time
     * leaps never jump past it, so a violation is still detected at
     * the exact cycle it first occurs.
     */
    Cycle
    earliestDeadline(const ModelState &s) const
    {
        Cycle d = kNever;
        auto upd = [&](Cycle c) { d = std::min(d, c); };
        for (const Request &r : s.readQ)
            upd(r.arrival + opts_.livenessBound + 1);
        for (const Request &r : s.writeQ)
            upd(r.arrival + opts_.livenessBound + 1);
        for (unsigned r = 0; r < cfg_.ranksPerChannel; ++r) {
            upd(s.banks.rank(r).nextRefreshAt() + opts_.refreshSlack + 1);
            if (s.rankOwed[r] != kNever)
                upd(s.rankOwed[r] + opts_.livenessBound + 1);
            if (cfg_.pracEnabled && s.prac.alertActive(r)) {
                upd(s.prac.alertRaisedAt(r) + cfg_.pracRecoveryWindow +
                    1);
            }
        }
        return d;
    }

    Cycle
    nextArrivalCycle(const ModelState &s) const
    {
        return s.nextArrival < workload_.size()
                   ? workload_[s.nextArrival].arrival
                   : kNever;
    }

    // --- Choice enumeration (mirrors the controller's tick gates) --------

    void
    enumerateColumns(ModelState &s, bool is_write,
                     std::vector<Choice> &out,
                     std::set<Addr> &seen) const
    {
        if (!is_write && s.bus.readBlocked(s.now))
            return;
        std::deque<Request> &q = is_write ? s.writeQ : s.readQ;
        const std::size_t window = sched_->columnWindow(q.size());
        for (std::size_t i = 0; i < window; ++i) {
            Request &req = q[i];
            // Mirror the controller's (faulted) aged-request skip: the
            // bounded-progress property, not the emulation, must flag
            // the starvation.
            if (cfg_.faultStarvesRequest(s.now, req.arrival))
                continue;
            const dram::Bank &bank =
                s.banks.bank(req.loc.rank, req.loc.bank);
            if (s.banks.probe(req) != RowProbe::Hit)
                continue;
            if (bank.autoPrechargePending())
                continue;
            if (cfg_.policy == dram::PagePolicy::RestrictedClose &&
                !req.classified) {
                continue;
            }
            const bool column_ok = is_write ? bank.canWrite(s.now)
                                            : bank.canRead(s.now);
            if (!column_ok)
                continue;
            if (!s.bus.columnGateOk(req.loc.bank, s.now))
                continue;
            const Cycle data_start =
                s.now +
                (is_write ? cfg_.timing.wl : cfg_.timing.rl());
            if (!s.bus.dataBusFree(data_start, req.loc.rank))
                continue;
            if (cfg_.policy == dram::PagePolicy::RelaxedClose &&
                bank.hitCount() >= cfg_.rowHitCap) {
                continue;
            }
            // Duplicate-address reads are interchangeable: issuing
            // either yields the same successor state.
            if (!seen.insert(req.addr).second)
                continue;
            Choice c;
            c.kind = Choice::Kind::Column;
            c.isWrite = is_write;
            c.index = i;
            c.rank = req.loc.rank;
            c.bank = req.loc.bank;
            c.row = req.loc.row;
            c.col = req.loc.col;
            out.push_back(c);
        }
    }

    void
    enumeratePrepares(ModelState &s, bool is_write,
                      std::vector<Choice> &out,
                      std::set<std::uint64_t> &actSeen,
                      std::set<std::pair<unsigned, unsigned>> &preSeen)
        const
    {
        std::deque<Request> &q = is_write ? s.writeQ : s.readQ;
        const std::size_t window = sched_->prepareWindow(q.size());
        for (std::size_t i = 0; i < window; ++i) {
            Request &req = q[i];
            // Same faulted aged-request skip as the column scan.
            if (cfg_.faultStarvesRequest(s.now, req.arrival))
                continue;
            const dram::Rank &rank = s.banks.rank(req.loc.rank);
            const dram::Bank &bank = rank.bank(req.loc.bank);
            const RowProbe probe = s.banks.probe(req);

            switch (probe) {
              case RowProbe::Closed: {
                if (rank.refreshDue(s.now) || rank.refreshing(s.now))
                    break;
                // Alert Back-Off: the rank drains toward its RFM; no
                // new activation may issue while the alert stands.
                if (cfg_.pracEnabled &&
                    s.prac.alertActive(req.loc.rank)) {
                    break;
                }
                if (!bank.canActivate(s.now))
                    break;
                const WordMask dirty =
                    is_write            ? mergedWriteMask(s, req)
                    : req.fullRowFallback ? WordMask::full()
                                          : scheme_->readActMask(req.addr);
                unsigned gran =
                    scheme_->actGranularity(is_write, dirty);
                if (scheme_->needsMaskCycle(is_write, dirty) &&
                    gran < cfg_.minActGranularity) {
                    gran = std::min(cfg_.minActGranularity, kMatGroups);
                }
                const double weight =
                    cfg_.weightedActWindow
                        ? scheme_->actWeight(gran, cfg_.power)
                        : 1.0;
                if (!rank.canActivate(s.now, weight))
                    break;
                // Two requests producing the same activation (same bank,
                // row and mask) yield identical successors.
                const std::uint64_t key =
                    (static_cast<std::uint64_t>(req.loc.rank) << 48) |
                    (static_cast<std::uint64_t>(req.loc.bank) << 40) |
                    (static_cast<std::uint64_t>(req.loc.row) << 8) |
                    scheme_->actMask(is_write, dirty).bits();
                if (!actSeen.insert(key).second)
                    break;
                Choice c;
                c.kind = Choice::Kind::Activate;
                c.isWrite = is_write;
                c.index = i;
                c.rank = req.loc.rank;
                c.bank = req.loc.bank;
                c.row = req.loc.row;
                c.partial = scheme_->needsMaskCycle(is_write, dirty);
                out.push_back(c);
                break;
              }
              case RowProbe::Conflict:
              case RowProbe::FalseHit: {
                const bool still_useful =
                    probe == RowProbe::Conflict &&
                    cfg_.policy == dram::PagePolicy::RelaxedClose &&
                    s.banks.openRowMatches(req.loc.rank, req.loc.bank) >
                        0 &&
                    bank.hitCount() < cfg_.rowHitCap;
                if (!still_useful && bank.canPrecharge(s.now) &&
                    preSeen.insert({req.loc.rank, req.loc.bank})
                        .second) {
                    Choice c;
                    c.kind = Choice::Kind::Precharge;
                    c.rank = req.loc.rank;
                    c.bank = req.loc.bank;
                    out.push_back(c);
                }
                break;
              }
              case RowProbe::Hit:
                if (cfg_.policy == dram::PagePolicy::RelaxedClose &&
                    bank.hitCount() >= cfg_.rowHitCap &&
                    bank.canPrecharge(s.now) &&
                    preSeen.insert({req.loc.rank, req.loc.bank})
                        .second) {
                    Choice c;
                    c.kind = Choice::Kind::Precharge;
                    c.rank = req.loc.rank;
                    c.bank = req.loc.bank;
                    out.push_back(c);
                }
                break;
            }
        }
    }

    /**
     * Every command any policy could legally issue at @p s. Empty on a
     * quiet (or command-bus-busy) state: only then may a cycle pass
     * unused under work-conserving exploration.
     */
    void
    enumerateNonIdle(ModelState &s, std::vector<Choice> &out) const
    {
        if (s.bus.cmdBusBusy(s.now))
            return;   // The controller's early-out: nothing issues.

        MaintenanceEngine maint(cfg_, s.banks, g_nullHooks);
        maint.setPracState(&s.prac);
        for (unsigned r : maint.refreshCandidates(s.now)) {
            Choice c;
            c.kind = Choice::Kind::Refresh;
            c.rank = r;
            out.push_back(c);
        }
        for (unsigned r : maint.rfmCandidates(s.now)) {
            Choice c;
            c.kind = Choice::Kind::Rfm;
            c.rank = r;
            out.push_back(c);
        }

        std::set<Addr> colSeen;
        enumerateColumns(s, false, out, colSeen);
        enumerateColumns(s, true, out, colSeen);

        std::set<std::uint64_t> actSeen;
        std::set<std::pair<unsigned, unsigned>> preSeen;
        enumeratePrepares(s, false, out, actSeen, preSeen);
        enumeratePrepares(s, true, out, actSeen, preSeen);

        for (const auto &[r, b] : maint.closeCandidates(s.now)) {
            if (preSeen.insert({r, b}).second) {
                Choice c;
                c.kind = Choice::Kind::Precharge;
                c.rank = r;
                c.bank = b;
                out.push_back(c);
            }
        }
    }

    // --- Wakeup soundness (DESIGN.md §11.2 contract) ----------------------

    dram::SchedulerInputs
    inputsOf(const ModelState &s) const
    {
        dram::SchedulerInputs in;
        in.readQueueSize = s.readQ.size();
        in.writeQueueSize = s.writeQ.size();
        if (!s.readQ.empty())
            in.oldestReadArrival = s.readQ.front().arrival;
        if (!s.writeQ.empty())
            in.oldestWriteArrival = s.writeQ.front().arrival;
        return in;
    }

    /**
     * The wake bounds a quiet controller round's column scan would
     * note (MemoryController::tryColumnAccess, including the faulted
     * readBlockedUntil() and aged-request skips — the emulation must
     * see exactly what the faulted controller sees, so a suppressed
     * bound is missing here too and the soundness property fires).
     */
    template <typename Fn>
    void
    scanColumnBounds(ModelState &s, bool is_write, Fn &&consider) const
    {
        std::deque<Request> &q = is_write ? s.writeQ : s.readQ;
        if (!is_write && s.bus.readBlocked(s.now)) {
            if (!q.empty())
                consider(s.bus.readBlockedUntil());
            return;
        }
        const std::size_t window = sched_->columnWindow(q.size());
        for (std::size_t i = 0; i < window; ++i) {
            Request &req = q[i];
            if (cfg_.faultStarvesRequest(s.now, req.arrival))
                continue;
            const dram::Bank &bank =
                s.banks.bank(req.loc.rank, req.loc.bank);
            if (s.banks.probe(req) != RowProbe::Hit)
                continue;
            if (bank.autoPrechargePending())
                continue;
            if (cfg_.policy == dram::PagePolicy::RestrictedClose &&
                !req.classified) {
                continue;
            }
            const bool column_ok = is_write ? bank.canWrite(s.now)
                                            : bank.canRead(s.now);
            if (!column_ok) {
                consider(bank.earliestColumnAccess());
                continue;
            }
            if (!s.bus.columnGateOk(req.loc.bank, s.now)) {
                consider(s.bus.columnGateFreeAt(req.loc.bank));
                continue;
            }
            const Cycle lat =
                is_write ? cfg_.timing.wl : cfg_.timing.rl();
            if (!s.bus.dataBusFree(s.now + lat, req.loc.rank)) {
                const Cycle free_at = s.bus.dataBusFreeAt(req.loc.rank);
                if (free_at > lat)
                    consider(free_at - lat);
                continue;
            }
            // Hit-cap rejection is state-gated: no retry bound, exactly
            // like the controller.
        }
    }

    /** Likewise for the prepare scan (MemoryController::tryPrepare). */
    template <typename Fn>
    void
    scanPrepareBounds(ModelState &s, bool is_write, Fn &&consider) const
    {
        std::deque<Request> &q = is_write ? s.writeQ : s.readQ;
        const std::size_t window = sched_->prepareWindow(q.size());
        for (std::size_t i = 0; i < window; ++i) {
            Request &req = q[i];
            if (cfg_.faultStarvesRequest(s.now, req.arrival))
                continue;
            const dram::Rank &rank = s.banks.rank(req.loc.rank);
            const dram::Bank &bank = rank.bank(req.loc.bank);
            switch (s.banks.probe(req)) {
              case RowProbe::Closed:
                if (rank.refreshDue(s.now) || rank.refreshing(s.now)) {
                    if (rank.refreshing(s.now))
                        consider(rank.refreshDoneAt());
                    break;
                }
                // ABO is state-gated for the ACT path; the prac_rfm
                // op's own bound (rfmWakeBound, considered by the
                // caller) publishes the wake.
                if (cfg_.pracEnabled &&
                    s.prac.alertActive(req.loc.rank)) {
                    break;
                }
                if (!bank.canActivate(s.now)) {
                    consider(bank.earliestActivate());
                    break;
                }
                // At a quiet state the rank-level gate must be what
                // blocks (else the ACT would have been enumerated).
                consider(rank.nextActAllowedAt());
                consider(rank.earliestActWindowExpiry());
                break;
              case RowProbe::Conflict:
              case RowProbe::FalseHit: {
                const bool still_useful =
                    s.banks.probe(req) == RowProbe::Conflict &&
                    cfg_.policy == dram::PagePolicy::RelaxedClose &&
                    s.banks.openRowMatches(req.loc.rank, req.loc.bank) >
                        0 &&
                    bank.hitCount() < cfg_.rowHitCap;
                if (!still_useful && !bank.canPrecharge(s.now))
                    consider(bank.earliestPrecharge());
                break;
              }
              case RowProbe::Hit:
                if (cfg_.policy == dram::PagePolicy::RelaxedClose &&
                    bank.hitCount() >= cfg_.rowHitCap &&
                    !bank.canPrecharge(s.now)) {
                    consider(bank.earliestPrecharge());
                }
                break;
            }
        }
    }

    /**
     * The wake bound the event engine would publish from a quiet round
     * at @p s: the minimum future cycle over the round's scan-noted
     * bounds, the scheduler's decision flip, and the maintenance
     * deadline bound, under noteWake's stale-bound rule (candidates at
     * or before now are dropped — which is how faultSuppressWakeTwtr
     * loses the tWTR release).
     *
     * The emulation scans both queues' prepare bounds even though the
     * controller scans the secondary queue only when the primary is
     * empty: extra candidates can only lower the emulated bound, so it
     * under-approximates the real published bound. A soundness
     * violation flagged against it is therefore always a violation of
     * the real engine too (the converse may be missed).
     */
    Cycle
    publishedWakeBound(ModelState &s) const
    {
        Cycle best = kNever;
        auto consider = [&](Cycle c) {
            if (c > s.now && c != kNever && c < best)
                best = c;
        };
        if (s.bus.cmdBusBusy(s.now)) {
            consider(s.bus.cmdBusFreeAt());
        } else {
            scanColumnBounds(s, false, consider);
            scanColumnBounds(s, true, consider);
            scanPrepareBounds(s, false, consider);
            scanPrepareBounds(s, true, consider);
        }
        if (!s.readQ.empty() || !s.writeQ.empty())
            consider(sched_->nextDecisionChangeAt(inputsOf(s), s.now));
        MaintenanceEngine maint(cfg_, s.banks, g_nullHooks);
        maint.setPracState(&s.prac);
        consider(maint.nextWakeAt(s.now));
        if (cfg_.pracEnabled) {
            // The prac_rfm op's registered bound, under opWakeBound()'s
            // clamp rule (a bound at or before now wakes at now + 1).
            Cycle c = maint.rfmWakeBound(s.now);
            if (c != kNever && c <= s.now)
                c = s.now + 1;
            consider(c);
        }
        return best;
    }

    /**
     * Ground truth for the soundness check and the idle time leap:
     * freeze @p from and walk time forward until the enumerated
     * command set stops being empty or an auto-precharge becomes
     * ready; kNever if nothing changes before @p cap. Deliberately
     * independent of publishedWakeBound() — deriving one from the
     * other would let a wake-bound bug mask itself.
     */
    Cycle
    firstChangeAt(const ModelState &from, Cycle cap) const
    {
        ModelState probe = from;
        std::vector<Choice> cs;
        while (true) {
            probe.now += 1;
            if (probe.now >= cap)
                return kNever;
            {
                MaintenanceEngine maint(cfg_, probe.banks, g_nullHooks);
                if (!maint.autoPrechargeCandidates(probe.now).empty())
                    return probe.now;
            }
            cs.clear();
            enumerateNonIdle(probe, cs);
            if (!cs.empty())
                return probe.now;
        }
    }

    // --- Node preparation -------------------------------------------------

    struct Prepared
    {
        std::vector<Choice> choices;
        Cycle leapTo = 0;        //!< Forced-idle jump target (0 = none).
        std::string violation;   //!< Wakeup-soundness breach, if any.
    };

    /**
     * Enumerate @p s's choice set under work conservation and sleep
     * sets, and run the quiet-state obligations: the wakeup-soundness
     * check against the emulated published bound, and the idle
     * time-leap target (never past the next arrival, the exploration
     * depth, a liveness deadline, or the fingerprint horizon).
     *
     * Quiet detection and the liveness machinery always run on the
     * unpruned choice set; sleep sets only thin the branches actually
     * explored.
     */
    Prepared
    prepareState(ModelState &s, const std::vector<Choice> &sleep,
                 ModelCheckResult &res) const
    {
        Prepared p;
        std::vector<Choice> non_idle;
        enumerateNonIdle(s, non_idle);

        if (non_idle.empty()) {
            // Quiet state: this is where the event engine would publish
            // its wake bound, so this is where the contract is checked.
            const Cycle cap =
                std::min({nextArrivalCycle(s), opts_.depth + 1,
                          s.now + kFingerprintHorizon});
            Cycle change = kNever;
            if ((opts_.wakeupSoundness || opts_.reduction) &&
                s.now + 1 < cap) {
                change = firstChangeAt(s, cap);
            }
            if (opts_.wakeupSoundness && change != kNever) {
                const Cycle published = publishedWakeBound(s);
                if (change < published) {
                    p.violation =
                        "cycle " + std::to_string(s.now) +
                        ": lost wakeup - the legal command set changes "
                        "at cycle " +
                        std::to_string(change) +
                        " but the published wake bound is " +
                        (published == kNever
                             ? std::string("never")
                             : std::to_string(published));
                }
            }
            if (opts_.reduction) {
                Cycle target = std::min(change, cap);
                if (livenessOn())
                    target = std::min(target, earliestDeadline(s));
                if (target > s.now + 1)
                    p.leapTo = target;
            }
            p.choices.push_back(Choice{});
            return p;
        }

        // Work conservation: with the liveness properties on, a cycle
        // may pass unused only at quiet states — the controller always
        // issues when something is legal, so every real policy's paths
        // remain covered. With them off, Idle stays enumerated beside
        // every command (the pre-liveness semantics).
        if (!livenessOn())
            p.choices.push_back(Choice{});
        for (const Choice &c : non_idle) {
            bool asleep = false;
            for (const Choice &sc : sleep) {
                if (sc.key() == c.key()) {
                    asleep = true;
                    break;
                }
            }
            if (asleep) {
                ++res.interleavingsPruned;
                continue;
            }
            p.choices.push_back(c);
        }
        return p;
    }

    // --- State dedup ------------------------------------------------------

    /** Saturated now-relative delta of a future cycle register. */
    static Cycle
    futureDelta(Cycle reg, Cycle now)
    {
        return reg <= now ? Cycle{0}
                          : std::min(reg - now, kFingerprintHorizon);
    }

    /** Request age saturated at the liveness bound (past which every
     *  age is equally violated — states merge again). */
    Cycle
    ageOf(const ModelState &s, const Request &r) const
    {
        return std::min(s.now - r.arrival, opts_.livenessBound + 1);
    }

    /** Per-rank liveness registers: the owed-service clock and how far
     *  refresh has run past its deadline, both saturated. */
    void
    addRankLiveness(Fnv1a &h, const ModelState &s, unsigned r) const
    {
        if (!livenessOn())
            return;
        h.add(s.rankOwed[r] == kNever
                  ? kNever
                  : std::min(s.now - s.rankOwed[r],
                             opts_.livenessBound + 1));
        const Cycle due = s.banks.rank(r).nextRefreshAt();
        h.add(s.now > due
                  ? std::min(s.now - due, opts_.refreshSlack + 1)
                  : Cycle{0});
    }

    std::uint64_t
    fingerprint(const ModelState &s) const
    {
        // Per-row disturbance counters and per-rank alerts break the
        // rank/bank interchangeability argument, so PRAC exploration
        // always uses the plain (symmetry-free) fingerprint; the idle
        // leap and sleep sets stay on.
        if (opts_.reduction && !cfg_.pracEnabled)
            return canonicalFingerprint(s);
        Fnv1a h;
        s.banks.fingerprint(h, s.now, kFingerprintHorizon);
        s.bus.fingerprint(h, s.now, kFingerprintHorizon);
        auto addQueue = [&](const std::deque<Request> &q) {
            h.add(q.size());
            for (const Request &r : q) {
                h.add(r.loc.rank);
                h.add(r.loc.bank);
                h.add(r.loc.row);
                h.add(r.loc.col);
                h.add(r.isWrite);
                h.add(r.mask.bits());
                // The fallback flag changes the demand of the next ACT,
                // so it is state; packed above the 8 need bits to keep
                // every pre-existing fingerprint byte-identical.
                h.add(r.need.bits() |
                      (r.fullRowFallback ? 0x100u : 0u));
                // Ages feed the bounded-progress properties, so two
                // states are future-equivalent only when they agree.
                if (livenessOn())
                    h.add(ageOf(s, r));
            }
        };
        addQueue(s.readQ);
        addQueue(s.writeQ);
        for (unsigned r = 0; r < cfg_.ranksPerChannel; ++r)
            addRankLiveness(h, s, r);
        if (cfg_.pracEnabled) {
            s.prac.fingerprint(h, s.now, kFingerprintHorizon);
            for (const std::uint16_t c : s.specCounts)
                h.add(c);
        }
        h.add(s.nextArrival);
        if (s.nextArrival < workload_.size()) {
            const Cycle a = workload_[s.nextArrival].arrival;
            h.add(futureDelta(a, s.now));
        }
        return h.value();
    }

    /**
     * Symmetry-canonical fingerprint: banks within a bank group and
     * whole ranks are interchangeable up to renaming when their entire
     * observable content (FSM registers, targeting queue entries,
     * targeting future arrivals, liveness clocks, bus residue) matches.
     * Banks are sorted by content hash within their group (bank-group
     * membership is geometry, so the sort never crosses groups), ranks
     * by their canonicalized content hash; the final hash then renames
     * every rank/bank id through the canonical order, including the
     * queue entries (whose cross-bank order still matters for the scan
     * windows), the data-bus rank residue, and the unarrived workload.
     * Two states differing only by such a permutation now collide in
     * the visited set — dedup is pruning, so collapsing states that
     * truly are futures-equivalent never loses a violation.
     */
    std::uint64_t
    canonicalFingerprint(const ModelState &s) const
    {
        const unsigned ranks = cfg_.ranksPerChannel;
        const unsigned banks = cfg_.banksPerRank;
        const unsigned groups =
            cfg_.timing.bankGroups > 1
                ? static_cast<unsigned>(cfg_.timing.bankGroups)
                : 1u;
        const unsigned per_group = banks / groups;

        // 1. Content hash of every bank: its FSM plus everything that
        // targets it, so equal hashes mean interchangeable roles.
        std::vector<std::vector<std::uint64_t>> sub(
            ranks, std::vector<std::uint64_t>(banks));
        for (unsigned r = 0; r < ranks; ++r) {
            for (unsigned b = 0; b < banks; ++b) {
                Fnv1a hb;
                s.banks.bank(r, b).fingerprint(hb, s.now,
                                               kFingerprintHorizon);
                hb.add(s.banks.queued(r, b));
                hb.add(s.banks.openRowMatches(r, b));
                auto addTargeted = [&](const std::deque<Request> &q) {
                    for (const Request &req : q) {
                        if (req.loc.rank != r || req.loc.bank != b)
                            continue;
                        hb.add(req.loc.row);
                        hb.add(req.loc.col);
                        hb.add(req.isWrite);
                        hb.add(req.mask.bits());
                        hb.add(req.need.bits() |
                               (req.fullRowFallback ? 0x100u : 0u));
                        if (livenessOn())
                            hb.add(ageOf(s, req));
                    }
                };
                addTargeted(s.readQ);
                addTargeted(s.writeQ);
                for (std::size_t i = s.nextArrival;
                     i < workload_.size(); ++i) {
                    const ModelRequest &m = workload_[i];
                    if (m.rank != r || m.bank != b)
                        continue;
                    hb.add(futureDelta(m.arrival, s.now));
                    hb.add(m.isWrite);
                    hb.add(m.row);
                    hb.add(m.col);
                    hb.add(m.mask);
                }
                sub[r][b] = hb.value();
            }
        }

        // 2. Canonical bank order, sorted by content hash within each
        // bank group (ties broken by index for determinism).
        std::vector<std::vector<unsigned>> bank_order(ranks);
        std::vector<std::vector<unsigned>> bank_ren(
            ranks, std::vector<unsigned>(banks));
        for (unsigned r = 0; r < ranks; ++r) {
            bank_order[r].resize(banks);
            for (unsigned b = 0; b < banks; ++b)
                bank_order[r][b] = b;
            for (unsigned g = 0; g < groups; ++g) {
                auto begin =
                    bank_order[r].begin() +
                    static_cast<std::ptrdiff_t>(g * per_group);
                std::sort(begin, begin + per_group,
                          [&](unsigned a, unsigned b) {
                              return sub[r][a] != sub[r][b]
                                         ? sub[r][a] < sub[r][b]
                                         : a < b;
                          });
            }
            for (unsigned pos = 0; pos < banks; ++pos)
                bank_ren[r][bank_order[r][pos]] = pos;
        }

        // 3. Rank content keys over the canonicalized banks, the
        // rank-level registers, the per-rank data-bus residue (which
        // encodes the tRTRS switch asymmetry), and liveness clocks.
        std::vector<std::uint64_t> rank_key(ranks);
        for (unsigned r = 0; r < ranks; ++r) {
            Fnv1a hr;
            s.banks.rank(r).fingerprintRankLevel(hr, s.now,
                                                 kFingerprintHorizon);
            for (unsigned b : bank_order[r])
                hr.add(sub[r][b]);
            hr.add(futureDelta(s.bus.dataBusFreeAt(r), s.now));
            addRankLiveness(hr, s, r);
            rank_key[r] = hr.value();
        }

        // 4. Canonical rank order.
        std::vector<unsigned> rank_order(ranks);
        std::vector<unsigned> rank_ren(ranks);
        for (unsigned r = 0; r < ranks; ++r)
            rank_order[r] = r;
        std::sort(rank_order.begin(), rank_order.end(),
                  [&](unsigned a, unsigned b) {
                      return rank_key[a] != rank_key[b]
                                 ? rank_key[a] < rank_key[b]
                                 : a < b;
                  });
        for (unsigned pos = 0; pos < ranks; ++pos)
            rank_ren[rank_order[pos]] = pos;

        // 5. Final hash under the renaming.
        Fnv1a h;
        for (unsigned pos = 0; pos < ranks; ++pos)
            h.add(rank_key[rank_order[pos]]);
        s.bus.fingerprint(h, s.now, kFingerprintHorizon, &rank_ren);
        auto addQueue = [&](const std::deque<Request> &q) {
            h.add(q.size());
            for (const Request &req : q) {
                h.add(rank_ren[req.loc.rank]);
                h.add(bank_ren[req.loc.rank][req.loc.bank]);
                h.add(req.loc.row);
                h.add(req.loc.col);
                h.add(req.isWrite);
                h.add(req.mask.bits());
                h.add(req.need.bits() |
                      (req.fullRowFallback ? 0x100u : 0u));
                if (livenessOn())
                    h.add(ageOf(s, req));
            }
        };
        addQueue(s.readQ);
        addQueue(s.writeQ);
        h.add(s.nextArrival);
        for (std::size_t i = s.nextArrival; i < workload_.size(); ++i) {
            const ModelRequest &m = workload_[i];
            h.add(futureDelta(m.arrival, s.now));
            h.add(rank_ren[m.rank]);
            h.add(bank_ren[m.rank][m.bank]);
            h.add(m.isWrite);
            h.add(m.row);
            h.add(m.col);
            h.add(m.mask);
        }
        return h.value();
    }

    ModelChecker::Options opts_;
    DramConfig cfg_;
    const SchemeModel *scheme_ = nullptr;
    std::vector<ModelRequest> workload_;
    std::unique_ptr<dram::SchedulerPolicy> sched_;
};

ModelCheckResult
Explorer::run()
{
    ModelCheckResult res;

    struct Node
    {
        ModelState state;
        std::vector<Choice> choices;
        std::vector<Choice> sleep;    //!< Choices covered by a sibling.
        Cycle leapTo = 0;             //!< Forced-idle jump target.
        std::size_t next = 0;
        std::size_t restoreLen = 0;   //!< Path length before this node.
    };

    std::vector<ScriptCommand> path;
    std::vector<Node> stack;
    std::unordered_set<std::uint64_t> visited;

    auto finishScript = [&](CommandScript &out) {
        out.commands = path;
        out.scheduler = sched_->name();
        out.fault = faultName(opts_.fault);
        out.scheme = scheme_->name();
    };
    auto noteDepth = [&](const ModelState &s) {
        res.deepestCycle = std::max(res.deepestCycle, s.now);
        if (path.size() > res.deepestPath.commands.size())
            finishScript(res.deepestPath);
    };
    auto fail = [&](const std::string &v) {
        res.violationFound = true;
        res.violation = v;
        finishScript(res.counterexample);
    };

    ModelState root(cfg_);
    enqueueArrivals(root);
    updateRankOwed(root);
    {
        const std::string v = applyAutoPrecharges(root, path);
        if (!v.empty()) {
            fail(v);
            return res;
        }
    }
    visited.insert(fingerprint(root));
    res.statesExplored = 1;
    noteDepth(root);
    {
        Prepared p = prepareState(root, {}, res);
        if (!p.violation.empty()) {
            fail(p.violation);
            return res;
        }
        stack.push_back({std::move(root), std::move(p.choices),
                         {}, p.leapTo, 0, 0});
    }

    while (!stack.empty()) {
        Node &top = stack.back();
        if (top.next >= top.choices.size()) {
            path.resize(top.restoreLen);
            stack.pop_back();
            continue;
        }
        const std::size_t idx = top.next++;
        const Choice choice = top.choices[idx];
        const std::size_t prev_len = path.size();
        const Cycle parent_now = top.state.now;
        ModelState child = top.state;   // Copy: explore independently.
        const Cycle leap =
            choice.kind == Choice::Kind::Idle ? top.leapTo : 0;
        const EdgeOutcome edge = applyEdge(child, choice, path, leap);
        if (choice.kind != Choice::Kind::Idle)
            ++res.commandsIssued;
        if (child.now > parent_now + 1)
            ++res.idleLeaps;
        if (!edge.violation.empty()) {
            fail(edge.violation);
            return res;
        }
        if (child.now > opts_.depth) {
            noteDepth(child);
            path.resize(prev_len);
            continue;
        }
        {
            const std::string lv = checkLiveness(child, res);
            if (!lv.empty()) {
                fail(lv);
                return res;
            }
        }
        if (!visited.insert(fingerprint(child)).second) {
            ++res.statesDeduped;
            path.resize(prev_len);
            continue;
        }
        ++res.statesExplored;
        noteDepth(child);
        if (res.statesExplored >= opts_.maxStates) {
            res.budgetExhausted = true;
            break;
        }
        // Sleep set: siblings already taken before this edge that
        // commute with it are covered through the sibling-first order,
        // so the child need not re-branch on them. Inherited sleeps
        // survive only while they stay independent of the edge, and an
        // environment step (arrival, auto-precharge) or a passing
        // cycle invalidates the commutation argument entirely.
        std::vector<Choice> child_sleep;
        if (opts_.reduction && !edge.envChanged &&
            choice.kind != Choice::Kind::Idle) {
            for (const Choice &sc : top.sleep) {
                if (independentChoices(sc, choice))
                    child_sleep.push_back(sc);
            }
            for (std::size_t j = 0; j < idx; ++j) {
                const Choice &cj = top.choices[j];
                if (cj.kind != Choice::Kind::Idle &&
                    independentChoices(cj, choice)) {
                    child_sleep.push_back(cj);
                }
            }
        }
        Prepared p = prepareState(child, child_sleep, res);
        if (!p.violation.empty()) {
            fail(p.violation);
            return res;
        }
        stack.push_back({std::move(child), std::move(p.choices),
                         std::move(child_sleep), p.leapTo, 0, prev_len});
    }
    return res;
}

} // namespace

const char *
faultName(Fault f)
{
    switch (f) {
      case Fault::None: return "none";
      case Fault::WidenAct: return "widen_act";
      case Fault::IgnoreTccdL: return "ignore_tccd_l";
      case Fault::IgnoreTwtr: return "ignore_twtr";
      case Fault::SuppressWake: return "suppress_wake";
      case Fault::StarveAged: return "starve_aged";
      case Fault::DropCount: return "drop_count";
      case Fault::LateRfm: return "late_rfm";
    }
    return "none";
}

void
PrintTo(Fault f, std::ostream *os)
{
    *os << faultName(f);
}

bool
parseFault(const std::string &name, Fault &out)
{
    if (name == "none")
        out = Fault::None;
    else if (name == "widen_act")
        out = Fault::WidenAct;
    else if (name == "ignore_tccd_l")
        out = Fault::IgnoreTccdL;
    else if (name == "ignore_twtr")
        out = Fault::IgnoreTwtr;
    else if (name == "suppress_wake")
        out = Fault::SuppressWake;
    else if (name == "starve_aged")
        out = Fault::StarveAged;
    else if (name == "drop_count")
        out = Fault::DropCount;
    else if (name == "late_rfm")
        out = Fault::LateRfm;
    else
        return false;
    return true;
}

ModelChecker::ModelChecker(const Options &opts) : opts_(opts) {}

ModelCheckResult
ModelChecker::run()
{
    Explorer explorer(opts_);
    return explorer.run();
}

dram::DramConfig
ModelChecker::modelConfig(Fault fault, unsigned disturbanceThreshold)
{
    DramConfig cfg;
    cfg.channels = 1;
    cfg.ranksPerChannel = 2;
    cfg.banksPerRank = 4;
    cfg.rowsPerBank = 16;
    cfg.linesPerRow = 4;
    cfg.policy = dram::PagePolicy::RelaxedClose;
    cfg.scheduler = dram::SchedulerKind::FrFcfs;
    cfg.readQueueDepth = 8;
    cfg.writeQueueDepth = 8;
    cfg.writeHighWatermark = 6;
    cfg.writeLowWatermark = 2;
    cfg.rowHitCap = 2;
    cfg.powerDownEnabled = false;
    cfg.enableChecker = false;   // The explorer owns its own checker.
    cfg.scheme = &schemeByName("pra");

    // Reduced timing: every rule (refresh included) fires inside the
    // default depth budget; tCCD_L > tCCD so the bank-group rule is
    // observable; tRC = tRAS + tRP stays self-consistent.
    dram::Timing &t = cfg.timing;
    t.tRcd = 3;
    t.tRp = 3;
    t.tCas = 3;
    t.tRas = 6;
    t.tWr = 3;
    t.tCcd = 2;
    t.tRrd = 2;
    t.tFaw = 8;
    t.tRc = 9;
    t.wl = 2;
    t.tRtp = 2;
    // tWTR is deliberately larger than tWR: the write-to-read release
    // (WL + tWTR + burst) then lands strictly after the write-to-
    // precharge release (WL + burst + tWR), leaving quiet states where
    // the tWTR release is the *only* future event — the window the
    // suppress-wake fault hides and the soundness property needs to
    // observe. With tWTR == tWR the two releases coincide and the
    // maintenance engine's precharge bound always covers the loss.
    t.tWtr = 6;
    t.tRfc = 6;
    t.tRefi = 30;
    t.tXp = 2;
    t.tRtrs = 1;
    t.burstCycles = 2;
    t.bankGroups = 2;
    t.tCcdL = 4;
    t.praMaskCycles = 1;

    switch (fault) {
      case Fault::None:
        break;
      case Fault::WidenAct:
        cfg.auditFaultWidenAct = 0x80;
        break;
      case Fault::IgnoreTccdL:
        cfg.faultIgnoreTccdL = true;
        break;
      case Fault::IgnoreTwtr:
        cfg.faultIgnoreTwtr = true;
        break;
      case Fault::SuppressWake:
        cfg.faultSuppressWakeTwtr = true;
        break;
      case Fault::StarveAged:
        // Low enough that the starved request's progress deadline
        // (arrival + livenessBound) still lands inside the default
        // depth budget.
        cfg.faultStarveAgedCycles = 8;
        break;
      case Fault::DropCount:
        armModelPrac(cfg);
        cfg.faultPracDropCount = true;
        break;
      case Fault::LateRfm:
        armModelPrac(cfg);
        cfg.faultPracLateRfm = true;
        break;
    }
    // The clean arm of the disturbance-safety family: PRAC on with no
    // fault (or a threshold override on top of a PRAC fault).
    if (disturbanceThreshold > 0) {
        if (!cfg.pracEnabled)
            armModelPrac(cfg);
        cfg.disturbanceThreshold = disturbanceThreshold;
    }
    return cfg;
}

std::vector<ModelRequest>
ModelChecker::defaultWorkload()
{
    // Geometry: 2 ranks x 4 banks, bank groups {0,1} and {2,3}.
    return {
        // Same-row partial writes: merged PRA mask, partial ACT.
        {0, true, 0, 0, 1, 0, 0x03},
        {0, true, 0, 0, 1, 1, 0x0c},
        // Same-group reads (bank 1, two columns of one row): tCCD_L
        // back-to-back pressure and the row-hit cap.
        {0, false, 0, 1, 2, 0, 0xff},
        {1, false, 0, 1, 2, 1, 0xff},
        // Cross-group read: tCCD_S spacing and write-to-read turnaround.
        {1, false, 0, 2, 3, 0, 0xff},
        // Cross-rank write: tRTRS bus bubble, second rank's refresh.
        {2, true, 1, 0, 1, 0, 0x10},
        // Symmetric twin reads: identical requests to the two banks of
        // rank 1's second bank group, whose FSMs carry no other traffic.
        // Every interleaving of their ACT/RD pairs lands in a state
        // that is a bank permutation of its mirror — the traffic that
        // makes the symmetry canonicalizer (and the 4x reduction claim)
        // observable rather than vacuous.
        {1, false, 1, 2, 6, 0, 0xff},
        {1, false, 1, 3, 6, 0, 0xff},
        // Row conflict on (0, 0): precharge + re-activate path.
        {2, false, 0, 0, 4, 0, 0xff},
        // Full-mask write on the fourth bank: non-partial ACT, tFAW
        // pressure with four banks active in rank 0.
        {3, true, 0, 3, 5, 0, 0xff},
    };
}

std::vector<ModelRequest>
ModelChecker::pracWorkload()
{
    // Geometry: 2 ranks x 4 banks; threshold 3 (alert at 2) with
    // rowHitCap forced to 1 (armModelPrac), so each of row 1's three
    // writes is its own re-activation: three ACTs of one row exist on
    // explored paths, and the second must raise the alert. Masks are
    // chosen so each row's merged PRA mask stays partial (union 0x0f,
    // never a full row): the drop_count fault then drops exactly these
    // ACTs from the implementation counters while the spec shadow keeps
    // counting. Row 2 gives the bank CAM a second entry (victim
    // selection is observable, not vacuous).
    return {
        {0, true, 0, 0, 1, 0, 0x03},
        {0, true, 0, 0, 1, 1, 0x0c},
        {1, true, 0, 0, 2, 0, 0x03},
        {1, true, 0, 0, 1, 2, 0x03},
        // Cross-rank read: rank 1's refresh and liveness clocks stay
        // exercised while rank 0 sits alert-blocked.
        {2, false, 1, 0, 3, 0, 0xff},
    };
}

} // namespace pra::analysis
