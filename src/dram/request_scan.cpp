#include "dram/request_scan.h"

#include <algorithm>
#include <bit>

namespace pra::dram {

bool
admitRequest(const SchemeModel &scheme, BankEngine &banks,
             RequestQueue &read_q, RequestQueue &write_q, Request &req)
{
    // Words a request needs open: a write's dirty words (chip
    // granularity under SDS); what the scheme says a read demands (the
    // full row for the paper's schemes: full bandwidth on reads is PRA's
    // asymmetric design point).
    auto need_of = [&scheme](const Request &r) {
        return r.isWrite ? scheme.writeNeed(r.mask, r.chipMask)
                         : scheme.readNeed(r.addr);
    };
    // An address decodes to one bank, so only that bank's writes can
    // share it (queued write addresses are unique).
    Request *queued = nullptr;
    for (Request &w : write_q.bank(req.loc.rank, req.loc.bank)) {
        if (w.addr == req.addr) {
            queued = &w;
            break;
        }
    }
    if (queued && req.isWrite) {
        queued->mask |= req.mask;
        queued->chipMask |= req.chipMask;
        // The merged masks can change the write's footprint, so the
        // cached need and probe are stale.
        const WordMask old_need = queued->need;
        queued->need = need_of(*queued);
        queued->probeEpoch = Request::kProbeInvalid;
        banks.onCombine(*queued, old_need);
        write_q.touch();
        return false;
    }
    if (queued)
        return true;
    req.need = need_of(req);
    // Mask-aware accounting: only requests the (possibly partial) open
    // row can actually serve count as pending hits. The engine's probe
    // also primes the request's cache for the upcoming scans.
    RequestQueue &queue = req.isWrite ? write_q : read_q;
    banks.onEnqueue(queue.at(queue.push(req)));
    return false;
}

SchedulerInputs
schedulerInputs(const RequestQueue &read_q, const RequestQueue &write_q)
{
    SchedulerInputs in;
    in.readQueueSize = read_q.size();
    in.writeQueueSize = write_q.size();
    if (!read_q.empty())
        in.oldestReadArrival = read_q.front().arrival;
    if (!write_q.empty())
        in.oldestWriteArrival = write_q.front().arrival;
    return in;
}

RequestScan::RequestScan(const DramConfig &cfg, const BankEngine &banks,
                         const BusArbiter &bus, const PracState &prac,
                         const SchedulerPolicy &sched, RequestQueue &write_q)
    : cfg_(&cfg), scheme_(cfg.scheme), banks_(&banks), bus_(&bus),
      prac_(&prac), sched_(&sched), writeQ_(&write_q),
      readLatency_(cfg.timing.rl()), writeLatency_(cfg.timing.wl)
{
}

WordMask
RequestScan::mergedWriteMask(Request &req)
{
    if (req.mergedMaskEpoch == writeQ_->epoch())
        return req.cachedMergedMask;
    // "PRA masks are ORed to activate partial rows as many as possible to
    //  accommodate all requests targeting the same row" (Section 5.2.1).
    // Same-row writes share the bank, and its list keeps their age order.
    WordMask merged = WordMask::none();
    for (const Request &w : writeQ_->bank(req.loc.rank, req.loc.bank)) {
        ++visits_;
        if (!w.loc.sameRow(req.loc))
            continue;
        merged |= scheme_->writeMask(w.mask, w.chipMask);
        if (!cfg_->mergeWriteMasks)
            break;   // Ablation: only the oldest same-row write's mask.
    }
    req.cachedMergedMask = merged.empty() ? WordMask::full() : merged;
    req.mergedMaskEpoch = writeQ_->epoch();
    return req.cachedMergedMask;
}

ActPlan
RequestScan::activation(Request &req, bool is_write)
{
    const WordMask demand = is_write ? mergedWriteMask(req)
                            : req.fullRowFallback
                                ? WordMask::full()
                                : scheme_->readActMask(req.addr);
    ActPlan p;
    p.openMask = scheme_->actMask(is_write, demand);
    p.granularity = scheme_->actGranularity(is_write, demand);
    p.partial = scheme_->needsMaskCycle(is_write, demand);
    if (p.partial && p.granularity < cfg_->minActGranularity)
        p.granularity = std::min(cfg_->minActGranularity, kMatGroups);
    p.weight = cfg_->weightedActWindow
                   ? scheme_->actWeight(p.granularity, cfg_->power)
                   : 1.0;
    return p;
}

bool
RequestScan::columnCandidate(Request &req, Cycle now)
{
    ++visits_;
    // Test-only fault: a saturating age-priority counter inverts, so the
    // scan skips requests past the age threshold forever. The model
    // checker's bounded-progress property catches this.
    if (cfg_->faultStarvesRequest(now, req.arrival))
        return false;
    // State-gated rejections (row miss, pending auto-precharge,
    // unclassified, exhausted hit budget) need no retry bound: the
    // enabling change is itself a command or arrival, which forces a
    // round. Time-gated rejections note the exact release cycle.
    if (banks_->probe(req) != RowProbe::Hit)
        return false;
    // Restricted close-page: the classified check keeps ACT + column +
    // PRE atomic: only the request whose activation opened the row
    // (classified at ACT time) may use it.
    return cfg_->policy != PagePolicy::RestrictedClose || req.classified;
}

Cycle
RequestScan::columnBankReadyAt(unsigned r, unsigned b, bool is_write,
                               Cycle now) const
{
    constexpr Cycle kNever = ~Cycle{0};
    const Bank &bank = banks_->bank(r, b);
    // A closed bank needs an ACT first. Restricted close-page: the
    // auto-precharge in the previous RDA/WRA has committed the row to
    // close, so no further hits may ride on it.
    if (!bank.isOpen() || bank.autoPrechargePending())
        return kNever;
    const bool column_ok = is_write ? bank.canWrite(now) : bank.canRead(now);
    if (!column_ok)
        return bank.earliestColumnAccess();
    // DDR4 bank groups: back-to-back column commands to the same group
    // must honor the long tCCD_L; across groups tCCD(_S) applies at the
    // channel level.
    if (!bus_->columnGateOk(b, now))
        return bus_->columnGateFreeAt(b);
    const Cycle lat = is_write ? writeLatency_ : readLatency_;
    if (!bus_->dataBusFree(now + lat, r))
        return bus_->dataBusFreeAt(r) - lat;
    // An exhausted hit budget must re-activate; close + prepare handle it.
    return cfg_->policy == PagePolicy::RelaxedClose &&
                   bank.hitCount() >= cfg_->rowHitCap
               ? kNever
               : now;
}

RequestScan::Pick
RequestScan::column(RequestQueue &queue, bool is_write, Cycle now)
{
    if (queue.empty())
        return {};
    if (!is_write && bus_->readBlocked(now)) {
        noteWake(bus_->readBlockedUntil(), now);
        return {};
    }
    using Slot = RequestQueue::Slot;
    const std::size_t window = sched_->columnWindow(queue.size());
    if (window < queue.size()) {
        // A short window (FCFS): the oldest requests, in age order.
        Slot s = queue.head();
        for (std::size_t i = 0; i < window; ++i, s = queue.next(s)) {
            Request &req = queue.at(s);
            if (!columnCandidate(req, now))
                continue;
            const Cycle ready =
                columnBankReadyAt(req.loc.rank, req.loc.bank, is_write, now);
            if (ready == now)
                return {.kind = Pick::Kind::Column, .slot = s};
            noteWake(ready, now);
        }
        return {};
    }
    // The whole queue (FR-FCFS): the oldest request that passes every
    // gate. A row hit needs an open bank whose open-row count is non-zero
    // (the count never misses a real hit, DESIGN.md §9), so only those
    // banks are walked. The bank gates are the same for every request of
    // a bank, so they go first: a ready bank offers its oldest candidate
    // and the oldest offer issues; a blocked bank is walked only to
    // confirm a candidate for a note that would lower wake().
    Slot best = RequestQueue::kEnd;
    for (unsigned r = 0; r < banks_->numRanks(); ++r) {
        for (std::uint64_t walk =
                 (banks_->hitBanks(r) | banks_->uncountedHits(r)) &
                 banks_->rank(r).openBanks();
             walk != 0; walk &= walk - 1) {
            const auto b = static_cast<unsigned>(std::countr_zero(walk));
            const Cycle ready = columnBankReadyAt(r, b, is_write, now);
            if (ready != now && ready >= wake_)
                continue;
            for (Slot s = queue.bankHead(r, b); s != RequestQueue::kEnd;
                 s = queue.bankNext(s)) {
                // Younger than the best offer so far: nothing further
                // down this bank's list can win.
                if (best != RequestQueue::kEnd &&
                    queue.seq(s) > queue.seq(best)) {
                    break;
                }
                if (!columnCandidate(queue.at(s), now))
                    continue;
                if (ready == now)
                    best = s;
                noteWake(ready, now);   // A no-op for a ready bank.
                break;
            }
        }
    }
    if (best == RequestQueue::kEnd)
        return {};
    return {.kind = Pick::Kind::Column, .slot = best};
}

RequestScan::Pick
RequestScan::prepare(RequestQueue &queue, bool is_write, Cycle now)
{
    // The policy bounds how deep the prepare scan may look past the
    // oldest request (FR-FCFS: a small window; FCFS: the head only).
    const std::size_t window = sched_->prepareWindow(queue.size());
    RequestQueue::Slot s = queue.head();
    for (std::size_t i = 0; i < window; ++i, s = queue.next(s)) {
        Request &req = queue.at(s);
        ++visits_;
        // Same test-only aged-request fault as the column scan.
        if (cfg_->faultStarvesRequest(now, req.arrival))
            continue;
        const Rank &rank = banks_->rank(req.loc.rank);
        const Bank &bank = rank.bank(req.loc.bank);
        const RowProbe probe = banks_->probe(req);

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
            if (prac_->alertActive(req.loc.rank))
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
            const ActPlan plan = activation(req, is_write);
            if (rank.canActivate(now, plan.weight)) {
                return {.kind = Pick::Kind::Activate,
                        .slot = s,
                        .probe = probe,
                        .plan = plan};
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
                banks_->openRowMatches(req.loc.rank, req.loc.bank) > 0 &&
                bank.hitCount() < cfg_->rowHitCap;
            if (!still_useful) {
                if (bank.canPrecharge(now)) {
                    return {.kind = Pick::Kind::Precharge,
                            .slot = s,
                            .probe = probe,
                            .rank = req.loc.rank,
                            .bank = req.loc.bank};
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
                    return {.kind = Pick::Kind::Precharge,
                            .rank = req.loc.rank,
                            .bank = req.loc.bank};
                }
                noteWake(bank.earliestPrecharge(), now);
            }
            break;   // Column path (or pending auto-PRE) handles it.
        }
    }
    return {};
}

} // namespace pra::dram
