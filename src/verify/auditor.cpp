#include "verify/auditor.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <type_traits>

#include "cache/hierarchy.h"

namespace pra::verify {

namespace {

/** Commands per energy-conservation window (ISSUE: 1 ulp per window). */
constexpr std::uint64_t kEnergyWindowEvents = 4096;
/** L2 ways examined per sampled coherence scan (rotating cursor). */
constexpr std::size_t kL2ScanChunkWays = 4096;
/** Cap on fully formatted violation strings kept for the report. */
constexpr std::size_t kMaxStoredViolations = 32;

constexpr std::array<InvariantStats,
                     static_cast<std::size_t>(Invariant::Count_)>
invariantMeta()
{
    std::array<InvariantStats, static_cast<std::size_t>(Invariant::Count_)>
        meta{};
    auto set = [&meta](Invariant inv, const char *name, const char *what) {
        meta[static_cast<std::size_t>(inv)] = {name, what, 0, 0};
    };
    set(Invariant::ReadFullRow, "dram.act.read-full-row",
        "reads always get a full-row activation");
    set(Invariant::ActMaskConformance, "dram.act.mask-conformance",
        "partial ACT mask/granularity/weight match the served writes");
    set(Invariant::ColumnWithinMask, "dram.col.within-open-mask",
        "no column command touches a MAT outside the open mask");
    set(Invariant::ShadowRowState, "dram.shadow.row-state",
        "commands legal against independent bank/queue shadow state");
    set(Invariant::WritebackMaskExact, "cache.wb.mask-exact",
        "writeback PRA mask == FGD word collapse; line left clean");
    set(Invariant::DirtyInclusion, "cache.dirty-inclusion",
        "L1 dirty lines resident in L2, L1 lines covered by L2 sharer "
        "bits; DBI tracks exactly L2 dirty");
    set(Invariant::EnergyConservation, "power.event-conservation",
        "per-command energy events sum to aggregate PowerModel totals");
    set(Invariant::SkipQuiescent, "fastpath.skip-quiescent",
        "cycle-skip windows are command-free under slow-path replay");
    set(Invariant::ForkFingerprint, "fastpath.fork-fingerprint",
        "warm-snapshot forks replicate hierarchy state bit-exactly");
    set(Invariant::EventWakeSound, "fastpath.event-wake-sound",
        "rounds before the published wake do nothing when forced to run");
    set(Invariant::PracConservation, "dram.prac.count-conservation",
        "PRAC tracked-count sum == ACTs counted - counts mitigated");
    return meta;
}

unsigned
resolveScanStride(unsigned configured)
{
    if (const char *env = std::getenv("PRA_AUDIT_STRIDE")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v > 0)
            return static_cast<unsigned>(v);
    }
    if (configured > 0)
        return configured;
#ifdef NDEBUG
    return 16384;
#else
    return 4096;
#endif
}

std::string
maskStr(WordMask m)
{
    char buf[8];
    std::snprintf(buf, sizeof(buf), "0x%02x", m.bits());
    return buf;
}

/** The command-driven slice of the counts (background residency and the
 *  wall clock are not event-driven and are checked by equation instead). */
power::EnergyCounts
commandCountsOnly(power::EnergyCounts c)
{
    forEachField(
        [](const char *, unsigned flags, auto &m) {
            if (!(flags & kFieldCommandDriven))
                m = {};
        },
        c);
    return c;
}

} // namespace

Auditor::Auditor(const AuditConfig &cfg)
    : cfg_(cfg),
      model_(cfg.power, cfg.chipsPerRank, cfg.ranksPerChannel,
             cfg.eccChipsPerRank),
      stats_(invariantMeta())
{
    channels_.resize(cfg_.channels);
    for (auto &ch : channels_) {
        ch.banks.resize(static_cast<std::size_t>(cfg_.ranksPerChannel) *
                        cfg_.banksPerRank);
        if (cfg_.pracEnabled) {
            ch.prac.resize(cfg_.ranksPerChannel);
            for (auto &pr : ch.prac)
                pr.cams.resize(cfg_.banksPerRank);
        }
    }
    scanStride_ = resolveScanStride(cfg_.scanStride);
}

bool
Auditor::envEnabled()
{
    const char *env = std::getenv("PRA_AUDIT");
    return env && env[0] == '1';
}

bool
Auditor::envReplay()
{
    const char *env = std::getenv("PRA_AUDIT_REPLAY");
    return env && env[0] == '1';
}

Auditor::ShadowBank &
Auditor::shadowBank(const DramCommandEvent &ev)
{
    auto &ch = channels_[ev.channel];
    return ch.banks[static_cast<std::size_t>(ev.rank) * cfg_.banksPerRank +
                    ev.bank];
}

void
Auditor::record(const RingEntry &entry)
{
    ring_[ringNext_] = entry;
    ringNext_ = (ringNext_ + 1) % ring_.size();
    ringFill_ = std::min(ringFill_ + 1, ring_.size());
}

std::string
Auditor::formatRing() const
{
    std::ostringstream os;
    os << "ring buffer (oldest first, " << ringFill_ << " events):\n";
    for (std::size_t i = 0; i < ringFill_; ++i) {
        const std::size_t idx =
            (ringNext_ + ring_.size() - ringFill_ + i) % ring_.size();
        const RingEntry &e = ring_[idx];
        os << "  [" << e.cycle << "] " << e.tag << " ch" << e.channel;
        if (e.tag == 'b') {
            os << " addr 0x" << std::hex << e.addr << std::dec << " pra "
               << maskStr(WordMask{e.mask});
        } else {
            os << " r" << e.rank << " b" << e.bank << " row " << e.row
               << " addr 0x" << std::hex << e.addr << std::dec << " mask "
               << maskStr(WordMask{e.mask}) << " need "
               << maskStr(WordMask{e.need})
               << (e.partial ? " partial" : "");
        }
        os << '\n';
    }
    return os.str();
}

void
Auditor::fail(Invariant inv, Cycle cycle, const std::string &why)
{
    ++stat(inv).violations;
    if (totalViolations_++ == 0)
        firstViolationRing_ = formatRing();
    if (violations_.size() >= kMaxStoredViolations)
        return;
    std::ostringstream os;
    os << stat(inv).name << " @ cycle " << cycle << ": " << why;
    violations_.push_back(os.str());
}

void
Auditor::onWriteEnqueue(const WriteQueueEvent &ev)
{
    ++events_;
    record({'q', ev.cycle, ev.channel, ev.rank, ev.bank, ev.row, ev.addr,
            ev.mask.bits(), ev.chipMask, false});

    auto &writes = channels_[ev.channel].writes;
    // Mirror the controller's write combining: one entry per line
    // address, masks ORed, queue order preserved.
    for (auto &w : writes) {
        if (w.addr == ev.addr) {
            w.mask |= ev.mask;
            w.chipMask |= ev.chipMask;
            return;
        }
    }
    writes.push_back(
        {ev.addr, ev.rank, ev.bank, ev.row, ev.mask, ev.chipMask});
}

void
Auditor::checkActivate(const DramCommandEvent &ev, ShadowChannel &ch)
{
    // Independently re-derive what the activation should have been from
    // the shadow write queue (paper Section 5.2.1: the PRA masks of all
    // queued same-row writes are ORed into one activation).
    const SchemeModel &scheme = *cfg_.scheme;
    WordMask merged = WordMask::none();
    if (ev.forWrite) {
        for (const auto &w : ch.writes) {
            if (w.rank != ev.rank || w.bank != ev.bank || w.row != ev.row)
                continue;
            merged |= scheme.writeMask(w.mask, w.chipMask);
            if (!cfg_.mergeWriteMasks)
                break;   // Ablation: only the oldest same-row write.
        }
    }

    // The demand the activation should answer. Writes: the merged shadow
    // dirty mask. Reads: the scheme's speculative read mask — except that
    // the controller may legitimately fall back to the full row after a
    // misprediction (a false hit the auditor cannot observe), so a read
    // ACT's demand is whichever of {predicted, full} it actually opened,
    // and anything else is a violation.
    WordMask demand = WordMask::full();
    if (ev.forWrite) {
        demand = merged.empty() ? WordMask::full() : merged;
    } else if (scheme.partialReads()) {
        const WordMask predicted = scheme.readActMask(ev.addr);
        ++stat(Invariant::ReadFullRow).checks;
        if (ev.mask != predicted && !ev.mask.isFull()) {
            fail(Invariant::ReadFullRow, ev.cycle,
                 "read activation opened " + maskStr(ev.mask) +
                     " instead of the speculative read mask " +
                     maskStr(predicted) + " or the full-row fallback");
        }
        demand = ev.mask.isFull() ? WordMask::full() : predicted;
    } else {
        ++stat(Invariant::ReadFullRow).checks;
        if (!ev.mask.isFull()) {
            fail(Invariant::ReadFullRow, ev.cycle,
                 "read activation opened " + maskStr(ev.mask) +
                     " instead of the full row");
        }
    }

    const WordMask expect_mask = scheme.actMask(ev.forWrite, demand);
    const bool expect_partial =
        scheme.needsMaskCycle(ev.forWrite, demand);
    unsigned expect_gran = scheme.actGranularity(ev.forWrite, demand);
    if (expect_partial && expect_gran < cfg_.minActGranularity)
        expect_gran = std::min(cfg_.minActGranularity, kMatGroups);
    const double expect_weight =
        cfg_.weightedActWindow
            ? scheme.actWeight(expect_gran, cfg_.power)
            : 1.0;

    ++stat(Invariant::ActMaskConformance).checks;
    if (ev.mask != expect_mask) {
        fail(Invariant::ActMaskConformance, ev.cycle,
             "ACT opened " + maskStr(ev.mask) + " but the served writes " +
                 "require exactly " + maskStr(expect_mask) +
                 " (merged dirty " + maskStr(demand) + ")");
    }
    if (ev.partial != expect_partial) {
        fail(Invariant::ActMaskConformance, ev.cycle,
             std::string("ACT mask-cycle flag is ") +
                 (ev.partial ? "set" : "clear") + " but should be " +
                 (expect_partial ? "set" : "clear"));
    }
    if (ev.granularity != expect_gran) {
        fail(Invariant::ActMaskConformance, ev.cycle,
             "ACT charged granularity " + std::to_string(ev.granularity) +
                 " but the mask implies " + std::to_string(expect_gran));
    }
    if (ev.weight != expect_weight) {
        fail(Invariant::ActMaskConformance, ev.cycle,
             "ACT tFAW weight " + std::to_string(ev.weight) +
                 " != expected " + std::to_string(expect_weight));
    }
}

void
Auditor::onCommand(const DramCommandEvent &ev)
{
    ++events_;
    record({ev.kind == DramCommandEvent::Kind::Activate    ? 'A'
            : ev.kind == DramCommandEvent::Kind::Read      ? 'R'
            : ev.kind == DramCommandEvent::Kind::Write     ? 'W'
            : ev.kind == DramCommandEvent::Kind::Precharge ? 'P'
            : ev.kind == DramCommandEvent::Kind::Rfm       ? 'M'
                                                           : 'F',
            ev.cycle, ev.channel, ev.rank, ev.bank, ev.row, ev.addr,
            ev.mask.bits(), ev.need.bits(), ev.partial});

    if (inQuiescentWindow_) {
        ++stat(Invariant::SkipQuiescent).checks;
        std::ostringstream os;
        os << "command issued inside a cycle-skip window [" << windowFrom_
           << ", " << windowTo_ << ") the fast path declared quiescent";
        fail(Invariant::SkipQuiescent, ev.cycle, os.str());
    }

    auto &ch = channels_[ev.channel];
    ShadowBank &bank = shadowBank(ev);

    switch (ev.kind) {
      case DramCommandEvent::Kind::Activate: {
        ++stat(Invariant::ShadowRowState).checks;
        if (bank.open) {
            fail(Invariant::ShadowRowState, ev.cycle,
                 "ACT to a bank the shadow state has open (row " +
                     std::to_string(bank.row) + ")");
        }
        checkActivate(ev, ch);
        if (cfg_.pracEnabled)
            pracCountActivate(ev, ch);
        bank.open = true;
        bank.row = ev.row;
        bank.mask = ev.mask;   // Actual mask: columns check reality.
        accountCommandEnergy(ev);
        break;
      }

      case DramCommandEvent::Kind::Read:
      case DramCommandEvent::Kind::Write: {
        ++stat(Invariant::ShadowRowState).checks;
        if (!bank.open || bank.row != ev.row) {
            fail(Invariant::ShadowRowState, ev.cycle,
                 bank.open ? "column command to row " +
                                 std::to_string(ev.row) +
                                 " but shadow has row " +
                                 std::to_string(bank.row) + " open"
                           : "column command to a closed shadow bank");
        }
        ++stat(Invariant::ColumnWithinMask).checks;
        if (!bank.mask.covers(ev.need)) {
            fail(Invariant::ColumnWithinMask, ev.cycle,
                 "column needs MATs " + maskStr(ev.need) +
                     " but the activation opened only " +
                     maskStr(bank.mask));
        }
        if (ev.kind == DramCommandEvent::Kind::Write) {
            auto &writes = ch.writes;
            const auto it = std::find_if(
                writes.begin(), writes.end(),
                [&](const ShadowWrite &w) { return w.addr == ev.addr; });
            ++stat(Invariant::ShadowRowState).checks;
            if (it == writes.end()) {
                fail(Invariant::ShadowRowState, ev.cycle,
                     "WR drains a write the shadow queue never admitted");
            } else {
                writes.erase(it);
            }
        }
        accountCommandEnergy(ev);
        break;
      }

      case DramCommandEvent::Kind::Precharge:
        ++stat(Invariant::ShadowRowState).checks;
        if (!bank.open) {
            fail(Invariant::ShadowRowState, ev.cycle,
                 "PRE to a bank the shadow state has closed");
        }
        bank.open = false;
        bank.mask = WordMask::none();
        break;

      case DramCommandEvent::Kind::Refresh: {
        ++stat(Invariant::ShadowRowState).checks;
        for (unsigned b = 0; b < cfg_.banksPerRank; ++b) {
            const ShadowBank &sb =
                ch.banks[static_cast<std::size_t>(ev.rank) *
                             cfg_.banksPerRank +
                         b];
            if (sb.open) {
                fail(Invariant::ShadowRowState, ev.cycle,
                     "REF with shadow bank " + std::to_string(b) +
                         " still open");
                break;
            }
        }
        accountCommandEnergy(ev);
        break;
      }

      case DramCommandEvent::Kind::Rfm: {
        ++stat(Invariant::ShadowRowState).checks;
        if (!cfg_.pracEnabled) {
            fail(Invariant::ShadowRowState, ev.cycle,
                 "RFM issued with PRAC disabled");
            break;
        }
        for (unsigned b = 0; b < cfg_.banksPerRank; ++b) {
            const ShadowBank &sb =
                ch.banks[static_cast<std::size_t>(ev.rank) *
                             cfg_.banksPerRank +
                         b];
            if (sb.open) {
                fail(Invariant::ShadowRowState, ev.cycle,
                     "RFM with shadow bank " + std::to_string(b) +
                         " still open");
                break;
            }
        }
        pracCheckRfm(ev, ch);
        accountCommandEnergy(ev);
        break;
      }
    }
}

std::uint64_t
Auditor::pracTrackedSum(const ShadowPracRank &pr)
{
    std::uint64_t sum = 0;
    for (const auto &cam : pr.cams) {
        for (const auto &e : cam)
            sum += e.count;
    }
    return sum;
}

void
Auditor::pracCountActivate(const DramCommandEvent &ev, ShadowChannel &ch)
{
    // Replay the spec CAM: *every* activation of a row disturbs its
    // neighbours, partial (masked) or not, so every ACT must be counted.
    // The Misra-Gries eviction (replace the coldest entry, inherit its
    // count) is part of the contract: it only ever over-approximates a
    // row's true count, and it keeps the tracked sum rising by exactly
    // one per counted ACT — which is what conservation checks below.
    ShadowPracRank &pr = ch.prac[ev.rank];
    ++pr.acts;
    auto &cam = pr.cams[ev.bank];
    auto it = std::find_if(cam.begin(), cam.end(),
                           [&](const ShadowPracEntry &e) {
                               return e.row == ev.row;
                           });
    if (it == cam.end()) {
        if (cam.size() < cfg_.pracCamEntries) {
            cam.push_back({ev.row, 0});
            it = cam.end() - 1;
        } else {
            it = std::min_element(cam.begin(), cam.end(),
                                  [](const ShadowPracEntry &a,
                                     const ShadowPracEntry &b) {
                                      return a.count < b.count;
                                  });
            it->row = ev.row;   // Inherit the evictee's count.
        }
    }
    ++it->count;

    // Online conservation: the controller's reported tracked sum must
    // equal the replica's, and both must equal acts - mitigated. A
    // dropped count (e.g. the drop_count fault drill) trips this at the
    // very first uncounted ACT.
    ++stat(Invariant::PracConservation).checks;
    const std::uint64_t expect = pr.acts - pr.mitigated;
    if (ev.pracTracked != expect || pracTrackedSum(pr) != expect) {
        fail(Invariant::PracConservation, ev.cycle,
             "after ACT r" + std::to_string(ev.rank) + " b" +
                 std::to_string(ev.bank) + " row " +
                 std::to_string(ev.row) + ": controller tracked sum " +
                 std::to_string(ev.pracTracked) + ", replica " +
                 std::to_string(pracTrackedSum(pr)) +
                 ", conservation expects " + std::to_string(expect) +
                 " (acts " + std::to_string(pr.acts) + " - mitigated " +
                 std::to_string(pr.mitigated) + ")");
    }
}

void
Auditor::pracCheckRfm(const DramCommandEvent &ev, ShadowChannel &ch)
{
    ShadowPracRank &pr = ch.prac[ev.rank];

    // The replica selects its own victim — hottest tracked entry, bank
    // then insertion order breaking ties — and the controller's reported
    // (bank, row, cleared) must match it exactly.
    unsigned vic_bank = 0;
    std::size_t vic_idx = 0;
    std::uint32_t vic_count = 0;
    bool found = false;
    for (unsigned b = 0; b < pr.cams.size(); ++b) {
        const auto &cam = pr.cams[b];
        for (std::size_t i = 0; i < cam.size(); ++i) {
            if (!found || cam[i].count > vic_count) {
                found = true;
                vic_bank = b;
                vic_idx = i;
                vic_count = cam[i].count;
            }
        }
    }

    ++stat(Invariant::PracConservation).checks;
    if (!found) {
        fail(Invariant::PracConservation, ev.cycle,
             "RFM on rank " + std::to_string(ev.rank) +
                 " with no tracked activation counts to mitigate");
        return;
    }
    const std::uint32_t vic_row = pr.cams[vic_bank][vic_idx].row;
    if (ev.bank != vic_bank || ev.row != vic_row ||
        ev.pracCleared != vic_count) {
        fail(Invariant::PracConservation, ev.cycle,
             "RFM cleared b" + std::to_string(ev.bank) + " row " +
                 std::to_string(ev.row) + " (count " +
                 std::to_string(ev.pracCleared) +
                 ") but the replica's hottest entry is b" +
                 std::to_string(vic_bank) + " row " +
                 std::to_string(vic_row) + " (count " +
                 std::to_string(vic_count) + ")");
    }
    pr.cams[vic_bank].erase(pr.cams[vic_bank].begin() +
                            static_cast<std::ptrdiff_t>(vic_idx));
    pr.mitigated += vic_count;

    ++stat(Invariant::PracConservation).checks;
    const std::uint64_t expect = pr.acts - pr.mitigated;
    if (ev.pracTracked != expect || pracTrackedSum(pr) != expect) {
        fail(Invariant::PracConservation, ev.cycle,
             "after RFM on rank " + std::to_string(ev.rank) +
                 ": controller tracked sum " +
                 std::to_string(ev.pracTracked) + ", replica " +
                 std::to_string(pracTrackedSum(pr)) +
                 ", conservation expects " + std::to_string(expect));
    }
}

void
Auditor::accountCommandEnergy(const DramCommandEvent &ev)
{
    auto charge = [&](power::EnergyCounts &c) {
        switch (ev.kind) {
          case DramCommandEvent::Kind::Activate:
            cfg_.scheme->accountActivate(c, ev.granularity, ev.forWrite);
            break;
          case DramCommandEvent::Kind::Read:
            ++c.readLines;
            c.readWordsDriven += cfg_.scheme->readWordsDriven(ev.need);
            break;
          case DramCommandEvent::Kind::Write:
            ++c.writeLines;
            c.writeWordsDriven += cfg_.scheme->wordsDriven(ev.mask);
            break;
          case DramCommandEvent::Kind::Precharge:
            break;
          case DramCommandEvent::Kind::Refresh:
            ++c.refreshOps;
            break;
          case DramCommandEvent::Kind::Rfm:
            ++c.rfmOps;
            break;
        }
    };
    charge(shadow_);
    charge(window_);
    if (++windowEvents_ >= kEnergyWindowEvents)
        closeEnergyWindow();
}

void
Auditor::closeEnergyWindow()
{
    if (windowEvents_ == 0)
        return;
    windowEnergySum_ += model_.energy(commandCountsOnly(window_)).total();
    ++windowsClosed_;
    window_ = power::EnergyCounts{};
    windowEvents_ = 0;
}

void
Auditor::onWriteback(const WritebackEvent &ev)
{
    ++events_;
    record({'b', 0, 0, 0, 0, 0, ev.addr, ev.pra.bits(), 0, false});

    ++stat(Invariant::WritebackMaskExact).checks;
    if (ev.pra != ev.dirty.toWordMask()) {
        fail(Invariant::WritebackMaskExact, 0,
             "writeback PRA mask " + maskStr(ev.pra) +
                 " != word collapse " + maskStr(ev.dirty.toWordMask()) +
                 " of its FGD dirty bytes");
    }
    if (ev.dirty.empty()) {
        fail(Invariant::WritebackMaskExact, 0,
             "clean line emitted as a writeback");
    }
    if (hier_ != nullptr) {
        // "Cleared exactly on writeback": once the line leaves, no level
        // may still hold dirty bytes for it, and the DBI must not track
        // it anymore.
        bool still_dirty = !hier_->l2().dirtyMask(ev.addr).empty();
        for (unsigned c = 0; c < hier_->numCores() && !still_dirty; ++c)
            still_dirty = !hier_->l1(c).dirtyMask(ev.addr).empty();
        if (still_dirty) {
            fail(Invariant::WritebackMaskExact, 0,
                 "line written back but dirty bits survive in the "
                 "hierarchy");
        }
        if (hier_->dbi() != nullptr && hier_->dbi()->isTracked(ev.addr)) {
            fail(Invariant::WritebackMaskExact, 0,
                 "line written back but still tracked by the DBI");
        }
    }
}

void
Auditor::onCacheAccess()
{
    if (hier_ == nullptr)
        return;
    if (++accesses_ % scanStride_ != 0)
        return;
    runCoherenceScan();
}

void
Auditor::runCoherenceScan()
{
    ++scans_;
    const cache::Hierarchy &h = *hier_;

    // Every L1 line is in the inclusive L2, whose copy names the core
    // among its sharers: back-invalidation and sibling cleaning probe
    // only those L1s.
    for (unsigned c = 0; c < h.numCores(); ++c) {
        h.l1(c).forEachLine([&](Addr addr) {
            ++stat(Invariant::DirtyInclusion).checks;
            const std::uint32_t way = h.l2().wayOf(addr);
            if (way == cache::Cache::kNoWay ||
                (h.l2().sharers(way) & cache::Hierarchy::sharerBit(c)) == 0) {
                std::ostringstream os;
                os << "L1[" << c << "] line 0x" << std::hex << addr
                   << std::dec << " has no sharer bit in the L2";
                fail(Invariant::DirtyInclusion, 0, os.str());
            }
        });
    }

    // L1 dirty lines must be resident in the inclusive L2. The L1s are
    // small; scan them fully.
    for (unsigned c = 0; c < h.numCores(); ++c) {
        for (const cache::EvictedLine &line :
             h.l1(c).collectDirtyLines()) {
            ++stat(Invariant::DirtyInclusion).checks;
            if (!h.l2().contains(line.addr)) {
                std::ostringstream os;
                os << "L1[" << c << "] dirty line 0x" << std::hex
                   << line.addr << std::dec
                   << " is not resident in the inclusive L2";
                fail(Invariant::DirtyInclusion, 0, os.str());
            }
        }
    }

    // L2 dirty lines must be DBI-tracked (rotating chunk: the scan cost
    // stays O(chunk) per sample instead of O(cache)).
    if (h.dbi() != nullptr) {
        const std::size_t total = h.l2().totalWays();
        const std::size_t chunk = std::min(kL2ScanChunkWays, total);
        for (const cache::EvictedLine &line :
             h.l2().dirtyLinesInRange(l2ScanCursor_, chunk)) {
            ++stat(Invariant::DirtyInclusion).checks;
            if (!h.dbi()->isTracked(line.addr)) {
                std::ostringstream os;
                os << "L2 dirty line 0x" << std::hex << line.addr
                   << std::dec << " is not tracked by the DBI";
                fail(Invariant::DirtyInclusion, 0, os.str());
            }
        }
        l2ScanCursor_ = (l2ScanCursor_ + chunk) % std::max<std::size_t>(
                                                      total, 1);

        // Every DBI-tracked line must still be dirty-resident in the L2,
        // and the tracked_ counter must agree with the table.
        std::uint64_t listed = 0;
        for (Addr addr : h.dbi()->trackedAddresses()) {
            ++listed;
            ++stat(Invariant::DirtyInclusion).checks;
            if (!h.l2().contains(addr) ||
                h.l2().dirtyMask(addr).empty()) {
                std::ostringstream os;
                os << "DBI tracks 0x" << std::hex << addr << std::dec
                   << " but the L2 holds no dirty copy";
                fail(Invariant::DirtyInclusion, 0, os.str());
            }
        }
        ++stat(Invariant::DirtyInclusion).checks;
        if (listed != h.dbi()->trackedLines()) {
            fail(Invariant::DirtyInclusion, 0,
                 "DBI tracked-line counter " +
                     std::to_string(h.dbi()->trackedLines()) +
                     " != table population " + std::to_string(listed));
        }
    }
}

void
Auditor::beginQuiescentWindow(Cycle from, Cycle to)
{
    inQuiescentWindow_ = true;
    windowFrom_ = from;
    windowTo_ = to;
}

void
Auditor::endQuiescentWindow()
{
    ++stat(Invariant::SkipQuiescent).checks;
    inQuiescentWindow_ = false;
}

void
Auditor::onEventRound(Cycle cycle, Cycle wake, bool activity)
{
    ++stat(Invariant::EventWakeSound).checks;
    if (activity) {
        std::ostringstream os;
        os << "event engine slept toward cycle " << wake
           << " but a forced round at cycle " << cycle
           << " acted — the published wake-up candidate set is unsound";
        fail(Invariant::EventWakeSound, cycle, os.str());
    }
}

void
Auditor::checkFingerprint(const char *what, std::uint64_t expected,
                          std::uint64_t actual)
{
    ++stat(Invariant::ForkFingerprint).checks;
    if (expected != actual) {
        std::ostringstream os;
        os << what << ": state fingerprint 0x" << std::hex << actual
           << " != source 0x" << expected << std::dec;
        fail(Invariant::ForkFingerprint, 0, os.str());
    }
}

void
Auditor::finalize(const power::EnergyCounts &aggregate)
{
    closeEnergyWindow();

    auto check_count = [&](const std::string &name, std::uint64_t shadow,
                           std::uint64_t agg) {
        ++stat(Invariant::EnergyConservation).checks;
        if (shadow != agg) {
            fail(Invariant::EnergyConservation, aggregate.elapsedCycles,
                 name + ": shadow command count " + std::to_string(shadow) +
                     " != aggregate " + std::to_string(agg));
        }
    };
    auto check_row = [&](const char *key, unsigned flags,
                         const auto &shadow, const auto &agg) {
        if (!(flags & kFieldCommandDriven))
            return;
        if constexpr (std::is_integral_v<std::decay_t<decltype(agg)>>) {
            check_count(key, shadow, agg);
        } else {
            for (std::size_t g = 0; g < agg.size(); ++g)
                check_count(std::string(key) + "[" + std::to_string(g + 1) +
                                "]",
                            shadow[g], agg[g]);
        }
    };
    forEachField(check_row, shadow_, aggregate);

    // Background residency is not event-driven; conservation here means
    // every rank is in exactly one background state every cycle.
    const std::uint64_t bg = aggregate.actStandbyCycles +
                             aggregate.preStandbyCycles +
                             aggregate.powerDownCycles;
    const std::uint64_t expected_bg =
        aggregate.elapsedCycles *
        static_cast<std::uint64_t>(cfg_.ranksPerChannel) * cfg_.channels;
    ++stat(Invariant::EnergyConservation).checks;
    if (bg != expected_bg) {
        fail(Invariant::EnergyConservation, aggregate.elapsedCycles,
             "background rank-cycles " + std::to_string(bg) +
                 " != elapsed * ranks = " + std::to_string(expected_bg));
    }

    // Windowed per-command energy must sum to the whole-run evaluation
    // within 1 ulp per closed window (float addition reassociation).
    const double whole =
        model_.energy(commandCountsOnly(shadow_)).total();
    const double tol = static_cast<double>(windowsClosed_ + 1) * 2.0 *
                       DBL_EPSILON * std::max(1.0, std::fabs(whole));
    ++stat(Invariant::EnergyConservation).checks;
    if (std::fabs(windowEnergySum_ - whole) > tol) {
        std::ostringstream os;
        os << "windowed command energy " << windowEnergySum_
           << " nJ diverges from aggregate evaluation " << whole
           << " nJ (tolerance " << tol << ")";
        fail(Invariant::EnergyConservation, aggregate.elapsedCycles,
             os.str());
    }
}

std::string
Auditor::report() const
{
    std::ostringstream os;
    os << "=== PRA invariant audit report ===\n";
    os << "config fingerprint : 0x" << std::hex << cfg_.configFingerprint
       << std::dec << '\n';
    os << "events audited     : " << events_ << " (" << scans_
       << " coherence scans)\n";
    os << "invariants:\n";
    for (const auto &s : stats_) {
        os << "  " << s.name << ": " << s.checks << " checks, "
           << s.violations << " violations\n";
    }
    if (totalViolations_ == 0) {
        os << "clean\n";
        return os.str();
    }
    os << "violations (" << violations_.size() << " of "
       << totalViolations_ << " shown):\n";
    for (const auto &v : violations_)
        os << "  " << v << '\n';
    os << firstViolationRing_;
    return os.str();
}

} // namespace pra::verify
