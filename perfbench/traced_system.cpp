#include "traced_system.h"

#include <algorithm>

namespace perfbench {

namespace ps = pra::sim;

TracedSystem::TracedSystem(
    const ps::SystemConfig &cfg,
    std::vector<std::unique_ptr<pra::cpu::Generator>> generators,
    Tracer &tracer)
    : cfg_(cfg), tracer_(tracer), dram_(cfg.dram)
{
    // Same hierarchy as System's constructor, DBI row key included.
    pra::cache::HierarchyConfig hc = cfg_.caches;
    hc.enableDbi = cfg_.enableDbi;
    if (hc.enableDbi && !hc.dbiRowKey) {
        const pra::dram::AddressMapper mapper = dram_.mapper();
        const unsigned banks = cfg_.dram.banksPerRank;
        const unsigned ranks = cfg_.dram.ranksPerChannel;
        const unsigned channels = cfg_.dram.channels;
        hc.dbiRowKey = [mapper, banks, ranks, channels](pra::Addr addr) {
            const pra::dram::DecodedAddr loc = mapper.decode(addr);
            return ((static_cast<std::uint64_t>(loc.row) * ranks + loc.rank) *
                        banks +
                    loc.bank) *
                       channels +
                   loc.channel;
        };
    }
    hier_ = std::make_unique<pra::cache::Hierarchy>(hc);

    coreSlice_ = dram_.mapper().capacityBytes() / cfg_.caches.numCores;
    gens_.reserve(generators.size());
    cores_.reserve(generators.size());
    for (auto &gen : generators) {
        gens_.push_back(
            std::make_unique<TimedGenerator>(std::move(gen), tracer_));
        cores_.emplace_back(static_cast<unsigned>(cores_.size()), cfg_.core,
                            *gens_.back(), *this);
    }
}

std::uint64_t
TracedSystem::dbiProactive() const
{
    return hier_->dbi() ? hier_->dbi()->proactiveWritebacks() : 0;
}

void
TracedSystem::warmup()
{
    Span span(tracer_, SpanId::Warmup);
    for (std::uint64_t i = 0; i < cfg_.warmupOpsPerCore; ++i) {
        for (unsigned c = 0; c < gens_.size(); ++c) {
            const pra::cpu::MemOp op = gens_[c]->inner().next();
            hier_->access(c, translate(c, op.addr), op.isWrite, op.bytes);
        }
    }
}

bool
TracedSystem::canIssue(unsigned core, pra::Addr addr)
{
    if (pendingWb_.size() > cfg_.writebackBacklogLimit)
        return false;
    const pra::Addr a = translate(core, addr);
    Span span(tracer_, SpanId::DramCanAccept);
    return dram_.canAccept(a, false);
}

bool
TracedSystem::access(unsigned core, const pra::cpu::MemOp &op,
                     std::uint64_t tag)
{
    const pra::Addr addr = translate(core, op.addr);
    pra::cache::HierarchyOutcome out;
    {
        Span span(tracer_, SpanId::CacheAccess);
        out = hier_->access(core, addr, op.isWrite, op.bytes);
    }
    ++counters_.cacheAccesses;
    counters_.l1Hits += out.l1Hit;
    counters_.l2Hits += out.l2Hit;
    counters_.writebacks += out.writebacks.size();
    for (auto &wb : out.writebacks)
        pendingWb_.push_back(wb);
    if (out.needsMemRead) {
        // System asserts this succeeds (canIssue was checked); so does
        // the mirror, by ignoring the result the same way in NDEBUG.
        Span span(tracer_, SpanId::DramEnqueue);
        dram_.enqueue(addr, false, pra::WordMask::full(), core, tag);
        return true;
    }
    return false;
}

void
TracedSystem::drainWritebacks()
{
    while (!pendingWb_.empty()) {
        const pra::cache::Writeback &wb = pendingWb_.front();
        bool ok = false;
        {
            Span span(tracer_, SpanId::DramEnqueue);
            ok = dram_.enqueue(wb.addr, true, wb.praMask(), 0, 0,
                               wb.dirty.toChipMask());
        }
        if (!ok) {
            ++counters_.enqueueRejected;
            break;
        }
        pendingWb_.pop_front();
    }
}

ps::RunResult
TracedSystem::run()
{
    Span runSpan(tracer_, SpanId::Run);
    const std::uint64_t dbiAtStart = dbiProactive();
    std::vector<pra::Cycle> finishCycle(cores_.size(), 0);
    std::vector<bool> finished(cores_.size(), false);

    std::size_t done = 0;
    for (std::uint64_t iteration = 0;
         done < cores_.size() && dram_.now() < cfg_.maxDramCycles;
         ++iteration) {
        tracer_.beginIteration(iteration);
        Span loop(tracer_, SpanId::Loop);
        for (auto &core : cores_) {
            Span span(tracer_, SpanId::CpuTick);
            core.tick();
        }
        drainWritebacks();
        {
            Span span(tracer_, SpanId::DramTick);
            dram_.tick();
        }
        for (const auto &comp : dram_.drainCompletions()) {
            if (comp.coreId < cores_.size()) {
                Span span(tracer_, SpanId::CpuComplete);
                cores_[comp.coreId].complete(comp.tag);
            }
        }
        for (unsigned c = 0; c < cores_.size(); ++c) {
            if (!finished[c] && cores_[c].retiredInstructions() >=
                                    cfg_.targetInstructions) {
                finished[c] = true;
                finishCycle[c] = dram_.now();
                ++done;
            }
        }

        bool skip = false;
        {
            Span span(tracer_, SpanId::StallScan);
            skip = cfg_.enableCycleSkip && done < cores_.size() &&
                   pendingWb_.empty() &&
                   std::all_of(cores_.begin(), cores_.end(),
                               [](const pra::cpu::Core &c) {
                                   return c.stalled();
                               });
        }
        if (skip) {
            pra::Cycle next = 0;
            {
                Span span(tracer_, SpanId::DramNextEvent);
                next = dram_.nextEventCycle();
            }
            const pra::Cycle target = std::min(next, cfg_.maxDramCycles);
            counters_.skipCycles += target > dram_.now() ? target - dram_.now()
                                                         : 0;
            Span span(tracer_, SpanId::DramFastForward);
            dram_.fastForwardTo(target);
        }
    }

    tracer_.endIterations();

    ps::RunResult res;
    res.dramCycles = dram_.now();
    for (unsigned c = 0; c < cores_.size(); ++c) {
        const pra::Cycle cyc = finished[c] ? finishCycle[c] : dram_.now();
        const std::uint64_t insts = finished[c]
                                        ? cfg_.targetInstructions
                                        : cores_[c].retiredInstructions();
        const double cpu_cycles =
            static_cast<double>(cyc) * pra::kCpuCyclesPerDramCycle;
        res.retired.push_back(insts);
        res.ipc.push_back(cpu_cycles > 0
                              ? static_cast<double>(insts) / cpu_cycles
                              : 0.0);
    }

    res.dramStats = dram_.aggregateStats();
    {
        Span span(tracer_, SpanId::PowerEval);
        res.energy = dram_.energyCounts();
    }
    res.engine = dram_.engineStats();
    for (std::size_t b = 0; b < res.dirtyWords.buckets(); ++b)
        res.dirtyWords.record(b, hier_->dirtyWordsHistogram().count(b));
    res.memReads = hier_->memReads();
    res.memWrites = hier_->memWrites();
    if (hier_->dbi())
        res.dbiProactive = hier_->dbi()->proactiveWritebacks();
    counters_.dbiProactive = dbiProactive() - dbiAtStart;

    Span span(tracer_, SpanId::PowerEval);
    const pra::power::PowerModel model(cfg_.dram.power,
                                       cfg_.dram.chipsPerRank,
                                       cfg_.dram.ranksPerChannel,
                                       cfg_.dram.eccChipsPerRank);
    res.breakdown = model.energy(res.energy);
    res.avgPowerMw = model.averagePower(res.energy);
    res.totalEnergyNj = model.totalEnergy(res.energy);
    res.edp = model.energyDelayProduct(res.energy);
    return res;
}

} // namespace perfbench
