#include "dram/dram_system.h"

namespace pra::dram {

DramSystem::DramSystem(const DramConfig &cfg) : cfg_(cfg), mapper_(cfg_)
{
    channels_.reserve(cfg_.channels);
    for (unsigned c = 0; c < cfg_.channels; ++c)
        channels_.emplace_back(cfg_, c);
}

bool
DramSystem::canAccept(Addr addr, bool is_write) const
{
    const DecodedAddr loc = mapper_.decode(addr);
    return channels_[loc.channel].canAccept(is_write);
}

bool
DramSystem::enqueue(Addr addr, bool is_write, WordMask mask,
                    unsigned core_id, std::uint64_t tag,
                    std::uint8_t chip_mask)
{
    Request req;
    req.addr = lineBase(addr);
    req.isWrite = is_write;
    req.mask = is_write ? mask : WordMask::full();
    req.chipMask = is_write ? chip_mask : std::uint8_t{0xff};
    req.coreId = core_id;
    req.tag = tag;
    req.loc = mapper_.decode(addr);
    if (!channels_[req.loc.channel].canAccept(is_write))
        return false;
    channels_[req.loc.channel].enqueue(req, now_);
    return true;
}

void
DramSystem::tick()
{
    for (auto &ch : channels_)
        ch.tick(now_);
    ++now_;
}

Cycle
DramSystem::nextEventCycle() const
{
    // Candidates are judged relative to the last simulated cycle: a gate
    // releasing exactly at now_ still produces a candidate (== now_), so
    // the caller never skips a cycle in which an action is possible.
    const Cycle last = now_ > 0 ? now_ - 1 : 0;
    Cycle next = ~Cycle{0};
    for (const auto &ch : channels_)
        next = std::min(next, ch.nextEventCycle(last));
    return next;
}

void
DramSystem::fastForwardTo(Cycle target)
{
    if (target <= now_)
        return;
    for (auto &ch : channels_)
        ch.fastForward(now_, target);
    now_ = target;
}

void
DramSystem::drain(Cycle max_cycles)
{
    // Standalone-driver convenience: runs until all queues and in-flight
    // transfers finish. Completions produced along the way are discarded;
    // callers that need them should tick() and drainCompletions()
    // themselves.
    const Cycle limit = now_ + max_cycles;
    while (busy() && now_ < limit) {
        tick();
        drainCompletions();
    }
}

const std::vector<Completion> &
DramSystem::drainCompletions()
{
    drained_.clear();
    for (auto &ch : channels_) {
        auto &done = ch.completions();
        drained_.insert(drained_.end(), done.begin(), done.end());
        done.clear();
    }
    return drained_;
}

bool
DramSystem::busy() const
{
    for (const auto &ch : channels_) {
        if (ch.busy())
            return true;
    }
    return false;
}

ControllerStats
DramSystem::aggregateStats() const
{
    ControllerStats agg;
    for (const auto &ch : channels_)
        addFields(agg, ch.stats());
    return agg;
}

EngineStats
DramSystem::engineStats() const
{
    EngineStats agg;
    for (const auto &ch : channels_) {
        const EngineStats e = ch.engineStats();
        agg.rounds += e.rounds;
        agg.skippedTicks += e.skippedTicks;
        agg.eventsPopped += e.eventsPopped;
        agg.heapPeak = std::max(agg.heapPeak, e.heapPeak);
        agg.maintBankVisits += e.maintBankVisits;
        agg.queueVisits += e.queueVisits;
    }
    return agg;
}

power::EnergyCounts
DramSystem::energyCounts() const
{
    power::EnergyCounts counts;
    for (const auto &ch : channels_)
        counts += ch.energyCounts();
    counts.elapsedCycles = now_;   // Wall clock, not summed.
    return counts;
}

} // namespace pra::dram
