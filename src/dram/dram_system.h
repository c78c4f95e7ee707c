/**
 * @file
 * Top-level DRAM system: the address mapper plus one memory controller
 * per channel, aggregated statistics, and the power-model event counts.
 * This is the component a CPU/cache front-end (or a trace driver) talks
 * to.
 */
#ifndef PRA_DRAM_DRAM_SYSTEM_H
#define PRA_DRAM_DRAM_SYSTEM_H

#include <vector>

#include "dram/address_mapping.h"
#include "dram/controller.h"

namespace pra::dram {

/** Multi-channel DRAM system front door. */
class DramSystem
{
  public:
    explicit DramSystem(const DramConfig &cfg);

    const DramConfig &config() const { return cfg_; }
    const AddressMapper &mapper() const { return mapper_; }

    /** Current DRAM cycle. */
    Cycle now() const { return now_; }

    /** True when the target channel queue can take the request. */
    bool canAccept(Addr addr, bool is_write) const;

    /**
     * Enqueue a 64 B transaction. @p mask carries the FGD dirty-word bits
     * for writes and @p chip_mask the SDS chip-access bits. Returns false
     * (and drops the request) when the queue is full — callers should
     * check canAccept first.
     */
    bool enqueue(Addr addr, bool is_write, WordMask mask, unsigned core_id,
                 std::uint64_t tag, std::uint8_t chip_mask = 0xff);

    /** Advance the whole DRAM system by one cycle. */
    void tick();

    /**
     * Cycle-skip support: the next cycle at which any channel could
     * act, judged from the last simulated cycle (now()-1, so an action
     * already unblocked for the upcoming cycle yields a bound of exactly
     * now() and no skip). It is the minimum of the channels' published
     * wake-up bounds and assumes no enqueue happens in between. Before
     * the first tick() nothing is published, and the bound is now() + 1.
     */
    Cycle nextEventCycle() const;

    /**
     * Cycle-skip support: advance the clock from now() to @p target in
     * one jump; each channel defers the skipped cycles' background power
     * to its next round or counter read (one store per channel). The
     * caller must have established via nextEventCycle() that every cycle
     * in [now(), target) is action-free.
     */
    void fastForwardTo(Cycle target);

    /** Run until all queues drain (bounded by @p max_cycles). */
    void drain(Cycle max_cycles = 2'000'000);

    /**
     * Collect finished reads from all channels (clears them). The list
     * is a buffer this object owns, valid until the next call.
     */
    const std::vector<Completion> &drainCompletions();

    bool busy() const;

    /** Aggregated controller statistics over all channels. */
    ControllerStats aggregateStats() const;

    /** Aggregated power-event counts (elapsedCycles = wall clock). */
    power::EnergyCounts energyCounts() const;

    /**
     * Aggregated event-engine counters over all channels (counts sum,
     * heapPeak takes the max). Observational — see EngineStats.
     */
    EngineStats engineStats() const;

    unsigned numChannels() const
    {
        return static_cast<unsigned>(channels_.size());
    }
    const MemoryController &channel(unsigned c) const { return channels_[c]; }

    /** Attach the invariant auditor (not owned) to every channel. */
    void
    attachAuditor(verify::Auditor *auditor)
    {
        for (auto &ch : channels_)
            ch.attachAuditor(auditor);
    }

  private:
    DramConfig cfg_;
    AddressMapper mapper_;
    std::vector<MemoryController> channels_;
    std::vector<Completion> drained_;   //!< drainCompletions()'s buffer.
    Cycle now_ = 0;
};

} // namespace pra::dram

#endif // PRA_DRAM_DRAM_SYSTEM_H
