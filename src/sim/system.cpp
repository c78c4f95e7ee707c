#include "sim/system.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "common/hash.h"
#include "sim/config_io.h"

namespace pra::sim {

namespace {

/**
 * The DRAM config a System builds its DramSystem from: PRA_AUDIT_REPLAY=1
 * switches on forced rounds, so every cycle the published wake-up bound
 * declares quiet is replayed through a full scheduling round.
 */
dram::DramConfig
dramConfigOf(const SystemConfig &cfg)
{
    dram::DramConfig dram = cfg.dram;
    dram.forceRounds = dram.forceRounds || verify::Auditor::envReplay();
    return dram;
}

/**
 * System derives the hierarchy's DBI switch from SystemConfig::enableDbi
 * and its row key from the DRAM mapping. Neither hierarchy field can
 * enter canonicalConfig, so a caller-set value would be overwritten or
 * would share a result-cache entry with a run that did not set it.
 */
void
rejectDerivedCacheFields(const SystemConfig &cfg)
{
    if (cfg.caches.enableDbi) {
        throw std::invalid_argument(
            "SystemConfig::caches.enableDbi is derived from "
            "SystemConfig::enableDbi; set that instead");
    }
    if (cfg.caches.dbiRowKey) {
        throw std::invalid_argument(
            "SystemConfig::caches.dbiRowKey is derived from the DRAM "
            "address mapping and cannot be set");
    }
}

} // namespace

System::System(const SystemConfig &cfg,
               std::vector<std::unique_ptr<cpu::Generator>> generators)
    : cfg_(cfg), dram_(dramConfigOf(cfg)), gens_(std::move(generators))
{
    rejectDerivedCacheFields(cfg_);
    assert(!gens_.empty() && gens_.size() <= cfg_.caches.numCores);

    cache::HierarchyConfig hc = cfg_.caches;
    hc.enableDbi = cfg_.enableDbi;
    if (hc.enableDbi) {
        // DRAM-row identity of a line under the configured mapping. The
        // mapper is captured by value so the function — and any warm
        // snapshot the hierarchy is exported into — stays valid after
        // this System is destroyed.
        const dram::AddressMapper mapper = dram_.mapper();
        const unsigned banks = cfg_.dram.banksPerRank;
        const unsigned ranks = cfg_.dram.ranksPerChannel;
        const unsigned channels = cfg_.dram.channels;
        hc.dbiRowKey = [mapper, banks, ranks, channels](Addr addr) {
            const dram::DecodedAddr loc = mapper.decode(addr);
            return ((static_cast<std::uint64_t>(loc.row) * ranks +
                     loc.rank) *
                        banks +
                    loc.bank) *
                       channels +
                   loc.channel;
        };
    }
    hier_ = std::make_unique<cache::Hierarchy>(hc);

    initCores();
    setupAudit();
}

System::System(const SystemConfig &cfg, const WarmSnapshot &snapshot)
    : cfg_(cfg), dram_(dramConfigOf(cfg))
{
    rejectDerivedCacheFields(cfg_);
    // Fork: adopt the warmed hierarchy and the advanced generators by
    // deep copy, then skip warmup. The snapshot's hierarchy embeds its
    // own DBI row-key function (mapper captured by value), which decodes
    // identically here because the fork config agrees with the snapshot
    // on the DRAM organization and mapping (WarmSnapshot contract).
    hier_ = std::make_unique<cache::Hierarchy>(snapshot.hier);
    gens_.reserve(snapshot.gens.size());
    for (const auto &gen : snapshot.gens)
        gens_.push_back(gen->clone());
    assert(!gens_.empty() && gens_.size() <= cfg_.caches.numCores);

    initCores();
    warmed_ = true;
    setupAudit();
    if (auditor_ && auditReplay_) {
        auditor_->checkFingerprint("warm-snapshot fork",
                                   snapshot.hier.auditFingerprint(),
                                   hier_->auditFingerprint());
    }
}

void
System::setupAudit()
{
    const bool env = verify::Auditor::envEnabled();
    if (!cfg_.enableAudit && !env)
        return;

    verify::AuditConfig ac;
    ac.scheme = cfg_.dram.scheme;
    ac.mergeWriteMasks = cfg_.dram.mergeWriteMasks;
    ac.weightedActWindow = cfg_.dram.weightedActWindow;
    ac.minActGranularity = cfg_.dram.minActGranularity;
    ac.channels = cfg_.dram.channels;
    ac.ranksPerChannel = cfg_.dram.ranksPerChannel;
    ac.banksPerRank = cfg_.dram.banksPerRank;
    ac.power = cfg_.dram.power;
    ac.chipsPerRank = cfg_.dram.chipsPerRank;
    ac.eccChipsPerRank = cfg_.dram.eccChipsPerRank;
    ac.pracEnabled = cfg_.dram.pracEnabled;
    ac.pracThreshold = cfg_.dram.disturbanceThreshold;
    ac.pracCamEntries = cfg_.dram.pracCamEntries;
    ac.scanStride = cfg_.auditScanStride;
    ac.configFingerprint = fnv1a64(canonicalConfig(cfg_));

    auditor_ = std::make_unique<verify::Auditor>(ac);
    auditor_->attachHierarchy(hier_.get());
    dram_.attachAuditor(auditor_.get());
    // A configured fault hook means a test inspects the violations
    // itself; enforcement would abort before it can.
    auditEnforce_ = env && cfg_.dram.auditFaultWidenAct == 0;
    auditReplay_ = verify::Auditor::envReplay();
}

System::~System() = default;

void
System::initCores()
{
    // Private physical slice per core.
    coreSlice_ = dram_.mapper().capacityBytes() / cfg_.caches.numCores;

    cores_.reserve(gens_.size());
    for (unsigned c = 0; c < gens_.size(); ++c)
        cores_.emplace_back(c, cfg_.core, *gens_[c], *this);
    finishCycle_.assign(gens_.size(), 0);
    finished_.assign(gens_.size(), false);
}

WarmSnapshot
System::exportWarmSnapshot()
{
    if (!warmed_) {
        functionalWarmup();
        warmed_ = true;
    }
    WarmSnapshot snap{cache::Hierarchy(*hier_), {}};
    snap.gens.reserve(gens_.size());
    for (const auto &gen : gens_)
        snap.gens.push_back(gen->clone());
    if (auditor_ && auditReplay_) {
        auditor_->checkFingerprint("warm-snapshot export",
                                   hier_->auditFingerprint(),
                                   snap.hier.auditFingerprint());
    }
    return snap;
}

Addr
System::translate(unsigned core, Addr addr) const
{
    return (addr % coreSlice_) + static_cast<Addr>(core) * coreSlice_;
}

bool
System::canIssue(unsigned core, Addr addr)
{
    if (pendingWb_.size() > cfg_.writebackBacklogLimit)
        return false;
    return dram_.canAccept(translate(core, addr), false);
}

bool
System::access(unsigned core, const cpu::MemOp &op, std::uint64_t tag)
{
    const Addr addr = translate(core, op.addr);
    const cache::HierarchyOutcome out =
        hier_->access(core, addr, op.isWrite, op.bytes);
    pushWritebacks(out.writebacks);
    if (auditor_)
        auditor_->onCacheAccess();
    if (out.needsMemRead) {
        const bool ok = dram_.enqueue(addr, false, WordMask::full(), core,
                                      tag);
        assert(ok && "canIssue must be checked before access");
        (void)ok;
        return true;
    }
    return false;
}

void
System::pushWritebacks(std::span<const cache::Writeback> wbs)
{
    for (const cache::Writeback &wb : wbs) {
        if (auditor_)
            auditor_->onWriteback({wb.addr, wb.dirty, wb.praMask()});
        pendingWb_.push_back(wb);
    }
}

void
System::drainWritebacks()
{
    while (!pendingWb_.empty()) {
        const cache::Writeback &wb = pendingWb_.front();
        if (!dram_.enqueue(wb.addr, true, wb.praMask(), 0, 0,
                           wb.dirty.toChipMask())) {
            break;   // Target write queue full; retry next cycle.
        }
        pendingWb_.pop_front();
    }
}

void
System::functionalWarmup()
{
    // Fill the tag arrays so the measured region starts from a steady
    // state instead of an all-cold LLC; DRAM timing is not exercised and
    // warmup writebacks are discarded.
    for (std::uint64_t i = 0; i < cfg_.warmupOpsPerCore; ++i) {
        for (unsigned c = 0; c < gens_.size(); ++c) {
            const cpu::MemOp op = gens_[c]->next();
            const cache::HierarchyOutcome out = hier_->access(
                c, translate(c, op.addr), op.isWrite, op.bytes);
            if (auditor_) {
                // Warmup discards its writebacks (no DRAM timing), but
                // the cache-side invariants still apply to them.
                for (const cache::Writeback &wb : out.writebacks)
                    auditor_->onWriteback({wb.addr, wb.dirty,
                                           wb.praMask()});
                auditor_->onCacheAccess();
            }
        }
    }
}

RunResult
System::run()
{
    if (!warmed_) {
        functionalWarmup();
        warmed_ = true;
    }

    std::size_t done = 0;
    while (done < cores_.size() && dram_.now() < cfg_.maxDramCycles) {
        for (auto &core : cores_)
            core.tick();
        drainWritebacks();
        dram_.tick();
        for (const auto &comp : dram_.drainCompletions()) {
            if (comp.coreId < cores_.size())
                cores_[comp.coreId].complete(comp.tag);
        }
        for (unsigned c = 0; c < cores_.size(); ++c) {
            if (!finished_[c] && cores_[c].retiredInstructions() >=
                                     cfg_.targetInstructions) {
                finished_[c] = true;
                finishCycle_[c] = dram_.now();
                ++done;
            }
        }

        // Cycle-skip fast path: when every core is provably unable to make
        // progress and no writeback is waiting to enqueue, nothing in the
        // system can change until the DRAM's next event. Jump there in one
        // step; the skipped cycles are no-op core ticks plus action-free
        // DRAM ticks whose background power fastForwardTo() accounts
        // analytically.
        if (cfg_.enableCycleSkip && done < cores_.size() &&
            pendingWb_.empty() &&
            std::all_of(cores_.begin(), cores_.end(),
                        [](const cpu::Core &c) { return c.stalled(); })) {
            const Cycle target =
                std::min(dram_.nextEventCycle(), cfg_.maxDramCycles);
            if (auditor_ && auditReplay_) {
                // Fast-path equivalence audit: tick through the window
                // the fast path would skip. Any command issued inside it
                // disproves the quiescence claim; the per-tick background
                // accounting otherwise matches fastForwardTo exactly, so
                // results stay bit-identical.
                auditor_->beginQuiescentWindow(dram_.now(), target);
                while (dram_.now() < target)
                    dram_.tick();
                auditor_->endQuiescentWindow();
            } else {
                dram_.fastForwardTo(target);
            }
        }
    }

    RunResult res;
    res.dramCycles = dram_.now();
    for (unsigned c = 0; c < cores_.size(); ++c) {
        const Cycle cyc = finished_[c] ? finishCycle_[c] : dram_.now();
        const std::uint64_t insts =
            finished_[c] ? cfg_.targetInstructions
                         : cores_[c].retiredInstructions();
        const double cpu_cycles =
            static_cast<double>(cyc) * kCpuCyclesPerDramCycle;
        res.retired.push_back(insts);
        res.ipc.push_back(cpu_cycles > 0
                              ? static_cast<double>(insts) / cpu_cycles
                              : 0.0);
    }

    res.dramStats = dram_.aggregateStats();
    res.energy = dram_.energyCounts();
    res.engine = dram_.engineStats();
    for (std::size_t b = 0; b < res.dirtyWords.buckets(); ++b)
        res.dirtyWords.record(b, hier_->dirtyWordsHistogram().count(b));
    res.memReads = hier_->memReads();
    res.memWrites = hier_->memWrites();
    if (hier_->dbi())
        res.dbiProactive = hier_->dbi()->proactiveWritebacks();

    const power::PowerModel model(cfg_.dram.power, cfg_.dram.chipsPerRank,
                                  cfg_.dram.ranksPerChannel,
                                  cfg_.dram.eccChipsPerRank);
    res.breakdown = model.energy(res.energy);
    res.avgPowerMw = model.averagePower(res.energy);
    res.totalEnergyNj = model.totalEnergy(res.energy);
    res.edp = model.energyDelayProduct(res.energy);

    if (auditor_) {
        auditor_->finalize(res.energy);
        if (auditEnforce_ && !auditor_->clean()) {
            std::fprintf(stderr, "%s", auditor_->report().c_str());
            std::abort();
        }
    }
    return res;
}

} // namespace pra::sim
