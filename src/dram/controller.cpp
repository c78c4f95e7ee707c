#include "dram/controller.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "verify/auditor.h"

namespace pra::dram {

namespace {

/** Command tracing to stderr, enabled with PRA_TRACE=1 (debug aid). */
bool
traceEnabled()
{
    static const bool enabled = [] {
        const char *env = std::getenv("PRA_TRACE");
        return env && env[0] == '1';
    }();
    return enabled;
}

void
trace(Cycle now, unsigned ch, const char *cmd, unsigned rank, unsigned bank,
      std::uint32_t row, unsigned extra)
{
    if (traceEnabled()) {
        std::fprintf(stderr, "%8llu ch%u %-4s r%u b%u row%u x%u\n",
                     static_cast<unsigned long long>(now), ch, cmd, rank,
                     bank, row, extra);
    }
}

} // namespace

MemoryController::MemoryController(const DramConfig &cfg,
                                   unsigned channel_id)
    : cfg_(&cfg), scheme_(cfg.scheme), channelId_(channel_id),
      banks_(cfg), bus_(cfg), sched_(makeSchedulerPolicy(cfg)),
      maint_(cfg, banks_, *this), prac_(cfg),
      readQ_(cfg.ranksPerChannel, cfg.banksPerRank),
      writeQ_(cfg.ranksPerChannel, cfg.banksPerRank),
      scan_(cfg, banks_, bus_, prac_, *sched_, writeQ_),
      tables_(TimingTables::build(cfg)), replayForce_(cfg.forceRounds)
{
    if (cfg.enableChecker)
        checker_ = std::make_unique<TimingChecker>(cfg);
    if (cfg.pracEnabled) {
        // RFM mitigation plugs in through the generic maintenance-op
        // seam: the engine owns the readiness decision (rfmReady) and
        // the wake contract, the controller only issues the command.
        maint_.setPracState(&prac_);
        maint_.registerOp(
            "prac_rfm", [this](Cycle now) { return maint_.tryRfm(now); },
            [this](Cycle now) { return maint_.rfmWakeBound(now); });
    }
}

bool
MemoryController::canAccept(bool is_write) const
{
    return is_write ? writeQ_.size() < cfg_->writeQueueDepth
                    : readQ_.size() < cfg_->readQueueDepth;
}

void
MemoryController::enqueue(Request req, Cycle now)
{
    req.arrival = now;
    assert(req.loc.channel == channelId_);

    // An arrival can enable work immediately (on every enqueue path,
    // including combining and forwarding), so pull the wake target in;
    // tick(now) then runs a full round and republishes.
    if (now < nextWake_) {
        nextWake_ = now;
        wakePublished_ = false;
    }

    // Settle the deferred background window before the queues change:
    // the window was arrival-free by construction, so its per-rank
    // queued-work flags must be read against the pre-arrival state.
    settleBackground();

    if (req.isWrite) {
        ++stats_.writeReqs;
        if (audit_) {
            // Report the pre-combine transaction; the auditor's shadow
            // queue performs its own combining.
            audit_->onWriteEnqueue({now, channelId_, req.loc.rank,
                                    req.loc.bank, req.loc.row, req.addr,
                                    req.mask, req.chipMask});
        }
    } else {
        ++stats_.readReqs;
    }
    if (admitRequest(*scheme_, banks_, readQ_, writeQ_, req)) {
        ++stats_.forwardedReads;
        finished_.push_back({req.tag, req.coreId, req.addr, now + 1, 1});
    }
}

void
MemoryController::classify(Request &req, RowProbe probe)
{
    if (req.classified)
        return;
    req.classified = true;
    switch (probe) {
      case RowProbe::Hit:
        if (req.isWrite)
            ++stats_.writeRowHits;
        else
            ++stats_.readRowHits;
        break;
      case RowProbe::FalseHit:
        // A conventional DRAM would have hit; PRA must PRE + re-ACT.
        if (req.isWrite) {
            ++stats_.writeFalseHits;
            ++stats_.writeRowMisses;
        } else {
            ++stats_.readFalseHits;
            ++stats_.readRowMisses;
        }
        break;
      case RowProbe::Closed:
      case RowProbe::Conflict:
        if (req.isWrite)
            ++stats_.writeRowMisses;
        else
            ++stats_.readRowMisses;
        break;
    }
}

bool
MemoryController::issue(RequestQueue &queue, bool is_write,
                        const RequestScan::Pick &pick, Cycle now)
{
    if (pick.slot != RequestQueue::kEnd)
        classify(queue.at(pick.slot), pick.probe);
    switch (pick.kind) {
      case RequestScan::Pick::Kind::None:
        return false;
      case RequestScan::Pick::Kind::Column:
        issueColumn(queue, pick.slot, is_write, now);
        break;
      case RequestScan::Pick::Kind::Activate:
        issueActivate(queue.at(pick.slot), is_write, pick.plan, now);
        break;
      case RequestScan::Pick::Kind::Precharge:
        issuePrecharge(pick.rank, pick.bank, now);
        break;
    }
    return true;
}

void
MemoryController::issueActivate(Request &req, bool is_write,
                                const ActPlan &plan, Cycle now)
{
    roundActivity_ = true;
    Rank &rank = banks_.rank(req.loc.rank);
    const unsigned gran = plan.granularity;
    WordMask open_mask = plan.openMask;
    // Deliberate fault injection (tests only): widen the opened mask
    // behind the scheme's back so the auditor must catch the mismatch.
    if (cfg_->auditFaultWidenAct != 0)
        open_mask |= WordMask{cfg_->auditFaultWidenAct};

    if (checker_) {
        checker_->observe({CheckedCommand::Kind::Activate, now,
                           req.loc.rank, req.loc.bank, req.loc.row,
                           plan.partial, plan.weight, 0});
    }
    rank.activateBank(req.loc.bank, now, req.loc.row, open_mask,
                      plan.partial);
    rank.recordActivation(now, plan.weight);
    prac_.onActivate(req.loc.rank, req.loc.bank, req.loc.row, plan.partial,
                     now);
    if (audit_) {
        audit_->onCommand({verify::DramCommandEvent::Kind::Activate, now,
                           channelId_, req.loc.rank, req.loc.bank,
                           req.loc.row, req.addr, open_mask,
                           WordMask::none(), plan.partial, is_write, gran,
                           plan.weight, prac_.trackedSum(req.loc.rank), 0});
    }

    // A partial activation occupies the command/address bus one extra
    // cycle to transfer the PRA mask (paper Fig. 7a).
    const auto mask_cycles = static_cast<unsigned>(tables_.channel.maskCycles);
    bus_.holdCmdBus(now, plan.partial ? mask_cycles : 0u);

    trace(now, channelId_, "ACT", req.loc.rank, req.loc.bank, req.loc.row,
          gran);
    scheme_->accountActivate(energy_, gran, is_write);
    stats_.actGranularity.record(gran);
    if (is_write) {
        ++stats_.actsForWrites;
    } else {
        ++stats_.actsForReads;
        stats_.readActGranularity.record(gran);
    }

    engineStats_.queueVisits += banks_.recountOpenRowMatches(
        req.loc.rank, req.loc.bank, readQ_.bank(req.loc.rank, req.loc.bank),
        writeQ_.bank(req.loc.rank, req.loc.bank));
}

void
MemoryController::issueColumn(RequestQueue &queue, RequestQueue::Slot slot,
                              bool is_write, Cycle now)
{
    roundActivity_ = true;
    const Request req = queue.at(slot);
    queue.erase(slot);

    Rank &rank = banks_.rank(req.loc.rank);
    Bank &bank = rank.bank(req.loc.bank);
    const unsigned burst = scheme_->columnBurstCycles(
        is_write,
        is_write ? scheme_->writeMask(req.mask, req.chipMask) : req.need,
        static_cast<unsigned>(tables_.channel.burst));

    bus_.noteColumnIssued(req.loc.bank, now);
    trace(now, channelId_, is_write ? "WR" : "RD", req.loc.rank,
          req.loc.bank, req.loc.row, req.loc.col);
    if (checker_) {
        checker_->observe({is_write ? CheckedCommand::Kind::Write
                                    : CheckedCommand::Kind::Read,
                           now, req.loc.rank, req.loc.bank, req.loc.row,
                           false, 0.0, burst});
    }
    if (audit_) {
        const WordMask drive =
            is_write ? scheme_->writeMask(req.mask, req.chipMask)
                     : WordMask::full();
        audit_->onCommand({is_write ? verify::DramCommandEvent::Kind::Write
                                    : verify::DramCommandEvent::Kind::Read,
                           now, channelId_, req.loc.rank, req.loc.bank,
                           req.loc.row, req.addr, drive, req.need, false,
                           is_write, 0, 0.0});
    }
    bus_.holdCmdBus(now);
    bank.recordHit();
    if (cfg_->policy == PagePolicy::RestrictedClose)
        bank.setAutoPrecharge();

    if (is_write) {
        bank.write(now, burst);
        bus_.reserveDataBus(now + tables_.channel.writeLatency, burst,
                            req.loc.rank);
        bus_.noteWriteIssued(now, burst);
        ++energy_.writeLines;
        energy_.writeWordsDriven += scheme_->wordsDriven(
            scheme_->writeMask(req.mask, req.chipMask));
    } else {
        bank.read(now, burst);
        const Cycle finish = now + tables_.channel.readLatency + burst;
        bus_.reserveDataBus(now + tables_.channel.readLatency, burst,
                            req.loc.rank);
        ++energy_.readLines;
        energy_.readWordsDriven += scheme_->readWordsDriven(req.need);
        inflight_.push_back({req.tag, req.coreId, req.addr, finish,
                             finish - req.arrival});
        nextFinish_ = std::min(nextFinish_, finish);
        stats_.readLatency.record(
            static_cast<double>(finish - req.arrival));
    }

    banks_.onDequeue(req);
}

void
MemoryController::issuePrecharge(unsigned rank_id, unsigned bank_id,
                                 Cycle now)
{
    trace(now, channelId_, "PRE", rank_id, bank_id, 0, 0);
    bus_.holdCmdBus(now);
    issueAutoPrecharge(rank_id, bank_id, now);
}

void
MemoryController::issueAutoPrecharge(unsigned rank_id, unsigned bank_id,
                                     Cycle now)
{
    // Auto-precharge (restricted close-page) is encoded in the column
    // command (RDA/WRA), so it consumes no command-bus slot; an explicit
    // PRE is the same command plus one.
    roundActivity_ = true;
    if (checker_) {
        checker_->observe({CheckedCommand::Kind::Precharge, now, rank_id,
                           bank_id, 0, false, 0.0, 0});
    }
    banks_.rank(rank_id).prechargeBank(bank_id, now);
    ++stats_.precharges;
    banks_.onPrecharge(rank_id, bank_id);
    if (audit_) {
        audit_->onCommand({verify::DramCommandEvent::Kind::Precharge, now,
                           channelId_, rank_id, bank_id, 0, 0,
                           WordMask::none(), WordMask::none(), false,
                           false, 0, 0.0});
    }
}

void
MemoryController::issueRefresh(unsigned rank_id, Cycle now)
{
    roundActivity_ = true;
    if (checker_) {
        checker_->observe({CheckedCommand::Kind::Refresh, now, rank_id, 0,
                           0, false, 0.0, 0});
    }
    banks_.rank(rank_id).refresh(now);
    bus_.holdCmdBus(now);
    ++stats_.refreshes;
    ++energy_.refreshOps;
    if (audit_) {
        audit_->onCommand({verify::DramCommandEvent::Kind::Refresh, now,
                           channelId_, rank_id, 0, 0, 0, WordMask::none(),
                           WordMask::none(), false, false, 0, 0.0});
    }
}

void
MemoryController::issueRfm(unsigned rank_id, Cycle now)
{
    roundActivity_ = true;
    // Clear the hottest tracked row first so the victim (bank, row) can
    // be reported to the checker, trace, and auditor.
    const PracMitigation mit = prac_.applyRfm(rank_id, now);
    if (checker_) {
        checker_->observe({CheckedCommand::Kind::Rfm, now, rank_id,
                           mit.bank, mit.row, false, 0.0, 0});
    }
    banks_.rank(rank_id).rfm(now);
    bus_.holdCmdBus(now);
    ++stats_.rfms;
    ++energy_.rfmOps;
    trace(now, channelId_, "RFM", rank_id, mit.bank, mit.row, 0);
    if (audit_) {
        audit_->onCommand({verify::DramCommandEvent::Kind::Rfm, now,
                           channelId_, rank_id, mit.bank, mit.row, 0,
                           WordMask::none(), WordMask::none(), false,
                           false, 0, 0.0, prac_.trackedSum(rank_id),
                           mit.cleared});
    }
}

void
MemoryController::accountBackground(Cycle now)
{
    for (unsigned r = 0; r < banks_.numRanks(); ++r) {
        Rank &rank = banks_.rank(r);
        rank.updatePowerState(now, banks_.anyQueuedInRank(r));
        switch (rank.powerState(now)) {
          case RankState::ActiveStandby:
          case RankState::Refreshing:
            ++energy_.actStandbyCycles;
            break;
          case RankState::PrechargeStandby:
            ++energy_.preStandbyCycles;
            break;
          case RankState::PowerDown:
            ++energy_.powerDownCycles;
            break;
        }
    }
}

void
MemoryController::deliverFinished(Cycle now)
{
    nextFinish_ = kNever;
    for (std::size_t i = 0; i < inflight_.size();) {
        if (inflight_[i].finish <= now) {
            finished_.push_back(inflight_[i]);
            inflight_[i] = inflight_.back();
            inflight_.pop_back();
        } else {
            nextFinish_ = std::min(nextFinish_, inflight_[i].finish);
            ++i;
        }
    }
}

void
MemoryController::tick(Cycle now)
{
    // Deliveries run whether or not a round does.
    if (now >= nextFinish_)
        deliverFinished(now);

    if (now < nextWake_ && !replayForce_) {
        // Published-quiet cycle: only background power accrues, and even
        // that is deferred — the next round (or counter read) settles
        // the whole skipped window in one analytic jump.
        ++engineStats_.skippedTicks;
        bgPending_ = now + 1;
        return;
    }

    // forceRounds runs a full round on cycles the engine declared quiet;
    // such a round must not act, or the published wake cycle was
    // unsound.
    const bool forced_quiet = now < nextWake_;
    if (!forced_quiet && wakePublished_)
        ++engineStats_.eventsPopped;

    roundActivity_ = false;
    scan_.clearWake();
    ++engineStats_.rounds;
    // The policy observes queue occupancy on every round. Rounds the
    // event engine skips have unchanged queue sizes (an enqueue always
    // forces a round), so the hysteresis state it would have computed on
    // the skipped cycles is exactly what one application computes here.
    // Nothing before the round's first command touches the queues, and a
    // quiet round issues none, so the same inputs serve publishWakeups.
    const SchedulerInputs inputs = schedulerInputs(readQ_, writeQ_);
    runRound(now, inputs);
    if (forced_quiet && audit_)
        audit_->onEventRound(now, nextWake_, roundActivity_);
    if (roundActivity_) {
        // An active round nearly always warrants a next-cycle follow-up
        // (the command bus is held, and the scheduler and the rank power
        // state must see the post-command state); re-arming at now + 1
        // is sound — it skips nothing — and any bounds the round's scans
        // noted before its issue are stale anyway. Only a round that
        // found nothing to do publishes, and its scans have already
        // computed the exact cycle each blocked gate releases.
        nextWake_ = now + 1;
        wakePublished_ = false;
    } else {
        publishWakeups(now, inputs);
    }
}

void
MemoryController::settleBackground()
{
    if (bgPending_ <= bgFrom_)
        return;
    // The deferred window saw no commands and no arrivals (either would
    // have forced a round), so bank-open state and queue membership were
    // constant across it — exactly the contract the analytic jump needs.
    for (unsigned r = 0; r < banks_.numRanks(); ++r) {
        banks_.rank(r).fastForwardBackground(bgFrom_, bgPending_,
                                             banks_.anyQueuedInRank(r),
                                             energy_);
    }
    bgFrom_ = bgPending_;
}

void
MemoryController::runRound(Cycle now, const SchedulerInputs &inputs)
{
    settleBackground();
    accountBackground(now);
    bgFrom_ = bgPending_ = now + 1;

    // Restricted-close auto-precharges retire without a command slot.
    maint_.stepAutoPrecharge(now);

    sched_->onTick(inputs, now);

    if (bus_.cmdBusBusy(now)) {
        // Nothing below can issue until the slot frees; the retry bound
        // is exact (auto-precharges ran above).
        scan_.noteWake(bus_.cmdBusFreeAt(), now);
        return;
    }

    if (maint_.tryRefresh(now))
        return;
    // Pluggable maintenance operations (none registered by default).
    if (maint_.tryOps(now)) {
        roundActivity_ = true;
        return;
    }

    const bool writes_first = sched_->writesFirst(inputs, now);
    RequestQueue &primary = writes_first ? writeQ_ : readQ_;
    RequestQueue &secondary = writes_first ? readQ_ : writeQ_;
    const bool primary_is_write = writes_first;

    if (issue(primary, primary_is_write,
              scan_.column(primary, primary_is_write, now), now)) {
        return;
    }
    // Opportunistic hits from the other queue keep the bus busy without
    // reordering ahead of the primary class's prepare commands.
    if (issue(secondary, !primary_is_write,
              scan_.column(secondary, !primary_is_write, now), now)) {
        return;
    }
    if (issue(primary, primary_is_write,
              scan_.prepare(primary, primary_is_write, now), now)) {
        return;
    }
    if (secondary.size() > 0 && primary.empty() &&
        issue(secondary, !primary_is_write,
              scan_.prepare(secondary, !primary_is_write, now), now)) {
        return;
    }
    maint_.tryMaintenanceClose(now);
}

void
MemoryController::publishWakeups(Cycle now, const SchedulerInputs &inputs)
{
    Cycle next = kNever;
    std::uint64_t candidates = 0;
    auto consider = [&](Cycle c) {
        if (c > now && c != kNever) {
            next = std::min(next, c);
            ++candidates;
        }
    };
    // The quiet round that just ran is itself the wake-bound scan: every
    // gate that rejected a candidate noted its exact release cycle in
    // scan_.wake() (DESIGN.md §11). Only the layers whose next event needs
    // no request scan are added here — the scheduler's time-driven
    // decision flips and the maintenance engine's deadline bound.
    // State-gated rejections (row miss, pending auto-precharge,
    // still-useful row) need no retry candidate: their enabling change
    // is itself a command or arrival, which forces a round.
    consider(scan_.wake());
    if (!readQ_.empty() || !writeQ_.empty())
        consider(sched_->nextDecisionChangeAt(inputs, now));
    consider(maint_.nextWakeAt(now));
    // Named maintenance ops publish through their wake-bound contract;
    // ops registered without one are opaque, and while any such op is
    // present the engine degrades to per-cycle rounds.
    consider(maint_.opWakeBound(now));
    if (maint_.hasOpaqueOps())
        consider(now + 1);
    engineStats_.heapPeak = std::max(engineStats_.heapPeak, candidates);
    nextWake_ = next;
    wakePublished_ = true;
}

Cycle
MemoryController::nextEventCycle(Cycle now) const
{
    // The wake cycle was published by the last round and every later
    // enqueue ran through tick(), so it is exact for the caller's
    // (no-arrivals) contract — no rescan needed; deliveries keep their
    // own bound. The invariant next > last-ticked-cycle holds once
    // ticking has started; before the first tick nothing is published,
    // and now + 1 skips nothing.
    const Cycle next = std::min(nextWake_, nextFinish_);
    return next > now ? next : now + 1;
}

void
MemoryController::fastForward([[maybe_unused]] Cycle from, Cycle to)
{
    // A skipped window is a run of published-quiet ticks: no command, no
    // arrival. It only extends the deferred window, which the next round
    // or counter read settles in one jump; the rank jump composes over
    // adjacent windows (Rank::fastForwardBackground's Debug replay).
    assert(bgPending_ == from);
    bgPending_ = to;
}

bool
MemoryController::busy() const
{
    return !readQ_.empty() || !writeQ_.empty() || !inflight_.empty() ||
           !finished_.empty();
}

} // namespace pra::dram
