#include "dram/controller.h"

#include <algorithm>
#include <bit>
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
      uncountedHitBanks_(cfg.ranksPerChannel, 0),
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

WordMask
MemoryController::needOf(const Request &req) const
{
    // Writes need their dirty words (chip granularity under SDS). Reads
    // need whatever the scheme says the line demands: the full row for
    // the paper's schemes (full bandwidth on reads is PRA's asymmetric
    // design point), the demanded sectors under read-side partial
    // activation.
    if (!req.isWrite)
        return scheme_->readNeed(req.addr);
    return scheme_->writeNeed(req.mask, req.chipMask);
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
        // Write combining: coalesce with a queued write to the same line
        // (queued write addresses are unique).
        if (Request *w = queuedWrite(req)) {
            w->mask |= req.mask;
            w->chipMask |= req.chipMask;
            // The merged masks can change the write's footprint, so the
            // cached need/probe are stale.
            const WordMask old_need = w->need;
            w->need = needOf(*w);
            w->probeEpoch = Request::kProbeInvalid;
            if (!w->need.covers(old_need)) {
                uncountedHitBanks_[req.loc.rank] |= std::uint64_t{1}
                                                    << req.loc.bank;
            }
            ++writeQueueEpoch_;
            return;
        }
        req.need = needOf(req);
        ++writeQueueEpoch_;
    } else {
        ++stats_.readReqs;
        // Forwarding: a read that matches a queued write is served from
        // the write queue without a DRAM access.
        if (queuedWrite(req)) {
            ++stats_.forwardedReads;
            finished_.push_back({req.tag, req.coreId, req.addr, now + 1,
                                 1});
            return;
        }
        req.need = needOf(req);
    }

    // Mask-aware accounting: only requests the (possibly partial) open
    // row can actually serve count as pending hits. The engine's probe
    // also primes the request's cache for the upcoming scheduler scans.
    RequestQueue &queue = req.isWrite ? writeQ_ : readQ_;
    banks_.onEnqueue(queue.at(queue.push(req)));
}

Request *
MemoryController::queuedWrite(const Request &req)
{
    // An address decodes to one bank, so only that bank's writes can
    // share it.
    for (Request &w : writeQ_.bank(req.loc.rank, req.loc.bank)) {
        if (w.addr == req.addr)
            return &w;
    }
    return nullptr;
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

WordMask
MemoryController::mergedWriteMask(Request &req)
{
    if (req.mergedMaskEpoch == writeQueueEpoch_)
        return req.cachedMergedMask;
    // "PRA masks are ORed to activate partial rows as many as possible to
    //  accommodate all requests targeting the same row" (Section 5.2.1).
    // Same-row writes share the bank, and its list keeps their age order.
    WordMask merged = WordMask::none();
    for (const Request &w : writeQ_.bank(req.loc.rank, req.loc.bank)) {
        ++engineStats_.queueVisits;
        if (!w.loc.sameRow(req.loc))
            continue;
        merged |= scheme_->writeMask(w.mask, w.chipMask);
        if (!cfg_->mergeWriteMasks)
            break;   // Ablation: only the oldest same-row write's mask.
    }
    req.cachedMergedMask = merged.empty() ? WordMask::full() : merged;
    req.mergedMaskEpoch = writeQueueEpoch_;
    return req.cachedMergedMask;
}

SchedulerInputs
MemoryController::schedulerInputs() const
{
    SchedulerInputs in;
    in.readQueueSize = readQ_.size();
    in.writeQueueSize = writeQ_.size();
    if (!readQ_.empty())
        in.oldestReadArrival = readQ_.front().arrival;
    if (!writeQ_.empty())
        in.oldestWriteArrival = writeQ_.front().arrival;
    return in;
}

void
MemoryController::issueActivate(Request &req, bool is_write, Cycle now)
{
    roundActivity_ = true;
    Rank &rank = banks_.rank(req.loc.rank);

    // Demand driving this activation: the merged dirty-word mask for
    // writes, the scheme's (speculative) read mask — or the full row
    // once a false hit burned the prediction — for reads.
    WordMask demand = is_write ? mergedWriteMask(req)
                      : req.fullRowFallback
                          ? WordMask::full()
                          : scheme_->readActMask(req.addr);
    unsigned gran = scheme_->actGranularity(is_write, demand);
    WordMask open_mask = scheme_->actMask(is_write, demand);
    const bool partial = scheme_->needsMaskCycle(is_write, demand);
    if (partial && gran < cfg_->minActGranularity)
        gran = std::min(cfg_->minActGranularity, kMatGroups);
    const double weight = cfg_->weightedActWindow
                              ? scheme_->actWeight(gran, cfg_->power)
                              : 1.0;
    // Deliberate fault injection (tests only): widen the opened mask
    // behind the scheme's back so the auditor must catch the mismatch.
    if (cfg_->auditFaultWidenAct != 0)
        open_mask |= WordMask{cfg_->auditFaultWidenAct};

    if (checker_) {
        checker_->observe({CheckedCommand::Kind::Activate, now,
                           req.loc.rank, req.loc.bank, req.loc.row,
                           partial, weight, 0});
    }
    rank.activateBank(req.loc.bank, now, req.loc.row, open_mask, partial);
    rank.recordActivation(now, weight);
    prac_.onActivate(req.loc.rank, req.loc.bank, req.loc.row, partial, now);
    if (audit_) {
        audit_->onCommand({verify::DramCommandEvent::Kind::Activate, now,
                           channelId_, req.loc.rank, req.loc.bank,
                           req.loc.row, req.addr, open_mask,
                           WordMask::none(), partial, is_write, gran,
                           weight, prac_.trackedSum(req.loc.rank), 0});
    }

    // A partial activation occupies the command/address bus one extra
    // cycle to transfer the PRA mask (paper Fig. 7a).
    bus_.holdCmdBus(
        now,
        partial ? static_cast<unsigned>(tables_.channel.maskCycles) : 0u);

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

    // The recount re-probes every request of the bank, so any hit a
    // footprint-shrinking combine left uncounted is counted again.
    uncountedHitBanks_[req.loc.rank] &= ~(std::uint64_t{1} << req.loc.bank);
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
    if (is_write)
        ++writeQueueEpoch_;

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
    roundActivity_ = true;
    trace(now, channelId_, "PRE", rank_id, bank_id, 0, 0);
    if (checker_) {
        checker_->observe({CheckedCommand::Kind::Precharge, now, rank_id,
                           bank_id, 0, false, 0.0, 0});
    }
    banks_.rank(rank_id).prechargeBank(bank_id, now);
    bus_.holdCmdBus(now);
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
MemoryController::issueAutoPrecharge(unsigned rank_id, unsigned bank_id,
                                     Cycle now)
{
    // Auto-precharge (restricted close-page) is encoded in the column
    // command (RDA/WRA), so it consumes no command-bus slot.
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

bool
MemoryController::columnCandidate(Request &req, Cycle now)
{
    ++engineStats_.queueVisits;
    // Test-only fault: a saturating age-priority counter inverts, so the
    // scan skips requests past the age threshold forever. The model
    // checker's bounded-progress property catches this.
    if (cfg_->faultStarvesRequest(now, req.arrival))
        return false;
    // State-gated rejections (row miss, pending auto-precharge,
    // unclassified, exhausted hit budget) need no retry bound: the
    // enabling change is itself a command or arrival, which forces a
    // round. Time-gated rejections note the exact release cycle.
    if (banks_.probe(req) != RowProbe::Hit)
        return false;
    // Restricted close-page: the classified check keeps ACT + column +
    // PRE atomic: only the request whose activation opened the row
    // (classified at ACT time) may use it.
    return cfg_->policy != PagePolicy::RestrictedClose || req.classified;
}

bool
MemoryController::columnBankReady(const Request &req, bool is_write,
                                  Cycle now)
{
    const Bank &bank = banks_.bank(req.loc.rank, req.loc.bank);
    // Restricted close-page: the auto-precharge is encoded in the
    // previous column command (RDA/WRA), so the row is already committed
    // to close — no further hits may ride on it.
    if (bank.autoPrechargePending())
        return false;
    const bool column_ok = is_write ? bank.canWrite(now) : bank.canRead(now);
    if (!column_ok) {
        noteWake(bank.earliestColumnAccess(), now);
        return false;
    }
    // DDR4 bank groups: back-to-back column commands to the same group
    // must honor the long tCCD_L; across groups tCCD(_S) applies at the
    // channel level.
    if (!bus_.columnGateOk(req.loc.bank, now)) {
        noteWake(bus_.columnGateFreeAt(req.loc.bank), now);
        return false;
    }
    const Cycle lat = is_write ? tables_.channel.writeLatency
                               : tables_.channel.readLatency;
    if (!bus_.dataBusFree(now + lat, req.loc.rank)) {
        noteWake(bus_.dataBusFreeAt(req.loc.rank) - lat, now);
        return false;
    }
    // An exhausted hit budget must re-activate; close + prepare handle it.
    return cfg_->policy != PagePolicy::RelaxedClose ||
           bank.hitCount() < cfg_->rowHitCap;
}

bool
MemoryController::tryColumnAccess(RequestQueue &queue, bool is_write,
                                  Cycle now)
{
    if (queue.empty())
        return false;
    if (!is_write && bus_.readBlocked(now)) {
        noteWake(bus_.readBlockedUntil(), now);
        return false;
    }
    using Slot = RequestQueue::Slot;
    const std::size_t window = sched_->columnWindow(queue.size());
    if (window < queue.size()) {
        // A short window (FCFS): the oldest requests, in age order.
        Slot s = queue.head();
        for (std::size_t i = 0; i < window; ++i, s = queue.next(s)) {
            Request &req = queue.at(s);
            if (columnCandidate(req, now) &&
                columnBankReady(req, is_write, now)) {
                classify(req, RowProbe::Hit);
                issueColumn(queue, s, is_write, now);
                return true;
            }
        }
        return false;
    }
    // The whole queue (FR-FCFS): the oldest request that passes every
    // gate. A row hit needs an open bank whose open-row count is non-zero
    // (the count never misses a real hit, DESIGN.md §9), so only those
    // banks are walked. The bank gates are the same for every request of
    // a bank, so each bank offers its oldest candidate that passes them,
    // and the oldest offer issues.
    Slot best = RequestQueue::kEnd;
    for (unsigned r = 0; r < banks_.numRanks(); ++r) {
        const std::uint64_t uncounted = uncountedHitBanks_[r];
        for (std::uint64_t open = banks_.rank(r).openBanks(); open != 0;
             open &= open - 1) {
            const auto b = static_cast<unsigned>(std::countr_zero(open));
            if (banks_.openRowMatches(r, b) == 0 &&
                !(uncounted >> b & 1u)) {
                continue;
            }
            for (Slot s = queue.bankHead(r, b); s != RequestQueue::kEnd;
                 s = queue.bankNext(s)) {
                // Younger than the best offer so far: nothing further
                // down this bank's list can win.
                if (best != RequestQueue::kEnd &&
                    queue.seq(s) > queue.seq(best)) {
                    break;
                }
                Request &req = queue.at(s);
                if (!columnCandidate(req, now))
                    continue;
                if (columnBankReady(req, is_write, now))
                    best = s;
                break;
            }
        }
    }
    if (best == RequestQueue::kEnd)
        return false;
    classify(queue.at(best), RowProbe::Hit);
    issueColumn(queue, best, is_write, now);
    return true;
}

bool
MemoryController::tryPrepare(RequestQueue &queue, bool is_write, Cycle now)
{
    // The policy bounds how deep the prepare scan may look past the
    // oldest request (FR-FCFS: a small window; FCFS: the head only).
    const std::size_t window = sched_->prepareWindow(queue.size());
    RequestQueue::Slot s = queue.head();
    for (std::size_t i = 0; i < window; ++i, s = queue.next(s)) {
        Request &req = queue.at(s);
        ++engineStats_.queueVisits;
        // Same test-only aged-request fault as the column scan.
        if (cfg_->faultStarvesRequest(now, req.arrival))
            continue;
        Rank &rank = banks_.rank(req.loc.rank);
        Bank &bank = rank.bank(req.loc.bank);
        const RowProbe probe = banks_.probe(req);

        switch (probe) {
          case RowProbe::Closed: {
            if (rank.refreshDue(now) || rank.refreshing(now)) {
                // A due refresh issues inside a round (maintenance wake
                // bound covers it); an in-progress one releases at tRFC.
                if (rank.refreshing(now))
                    noteWake(rank.refreshDoneAt(), now);
                break;   // Let the rank drain for refresh.
            }
            // Alert Back-Off: while a PRAC alert is pending, no further
            // ACT may issue to the rank until RFM clears it. State-gated
            // (the alert only clears via the RFM command, which runs
            // inside a round); tRFM blocking is noted like tRFC below.
            if (prac_.alertActive(req.loc.rank))
                break;
            if (rank.rfmBusy(now)) {
                noteWake(rank.rfmDoneAt(), now);
                break;
            }
            // The bank gate needs no mask, so check it before the (write-
            // queue scanning) merged-mask / weight derivation.
            if (!bank.canActivate(now)) {
                noteWake(bank.earliestActivate(), now);
                break;
            }
            WordMask demand = is_write ? mergedWriteMask(req)
                              : req.fullRowFallback
                                  ? WordMask::full()
                                  : scheme_->readActMask(req.addr);
            unsigned gran = scheme_->actGranularity(is_write, demand);
            if (scheme_->needsMaskCycle(is_write, demand) &&
                gran < cfg_->minActGranularity) {
                gran = std::min(cfg_->minActGranularity, kMatGroups);
            }
            const double weight =
                cfg_->weightedActWindow
                    ? scheme_->actWeight(gran, cfg_->power)
                    : 1.0;
            if (rank.canActivate(now, weight)) {
                classify(req, probe);
                issueActivate(req, is_write, now);
                return true;
            }
            // Rank-level gate: either tRRD or the (weighted) tFAW window
            // blocks; both release at register-known cycles.
            noteWake(rank.nextActAllowedAt(), now);
            noteWake(rank.earliestActWindowExpiry(), now);
            break;
          }
          case RowProbe::Conflict:
          case RowProbe::FalseHit: {
            // Close the current row — but under the relaxed policy only
            // once it has no pending hits left (or its budget is spent),
            // so younger row hits are not squandered. A false hit always
            // precharges: the partially opened row cannot serve this
            // request and the re-activation's (full or merged) footprint
            // covers every same-row request (paper Section 5.2.1).
            const bool still_useful =
                probe == RowProbe::Conflict &&
                cfg_->policy == PagePolicy::RelaxedClose &&
                banks_.openRowMatches(req.loc.rank, req.loc.bank) > 0 &&
                bank.hitCount() < cfg_->rowHitCap;
            if (!still_useful) {
                if (bank.canPrecharge(now)) {
                    classify(req, probe);
                    issuePrecharge(req.loc.rank, req.loc.bank, now);
                    return true;
                }
                // tRAS/tWR/tRTP gate; still_useful is state-gated (its
                // hits drain inside rounds) and needs no bound.
                noteWake(bank.earliestPrecharge(), now);
            }
            break;
          }
          case RowProbe::Hit:
            if (cfg_->policy == PagePolicy::RelaxedClose &&
                bank.hitCount() >= cfg_->rowHitCap) {
                if (bank.canPrecharge(now)) {
                    // Hit-budget exhausted: close so it can re-activate.
                    issuePrecharge(req.loc.rank, req.loc.bank, now);
                    return true;
                }
                noteWake(bank.earliestPrecharge(), now);
            }
            break;   // Column path (or pending auto-PRE) handles it.
        }
    }
    return false;
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
    scanWake_ = kNever;
    ++engineStats_.rounds;
    // The policy observes queue occupancy on every round. Rounds the
    // event engine skips have unchanged queue sizes (an enqueue always
    // forces a round), so the hysteresis state it would have computed on
    // the skipped cycles is exactly what one application computes here.
    // Nothing before the round's first command touches the queues, and a
    // quiet round issues none, so the same inputs serve publishWakeups.
    const SchedulerInputs inputs = schedulerInputs();
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
        noteWake(bus_.cmdBusFreeAt(), now);
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

    if (tryColumnAccess(primary, primary_is_write, now))
        return;
    // Opportunistic hits from the other queue keep the bus busy without
    // reordering ahead of the primary class's prepare commands.
    if (tryColumnAccess(secondary, !primary_is_write, now))
        return;
    if (tryPrepare(primary, primary_is_write, now))
        return;
    if (secondary.size() > 0 && primary.empty() &&
        tryPrepare(secondary, !primary_is_write, now)) {
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
    // scanWake_ (DESIGN.md §11). Only the layers whose next event needs
    // no request scan are added here — the scheduler's time-driven
    // decision flips and the maintenance engine's deadline bound.
    // State-gated rejections (row miss, pending auto-precharge,
    // still-useful row) need no retry candidate: their enabling change
    // is itself a command or arrival, which forces a round.
    consider(scanWake_);
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
