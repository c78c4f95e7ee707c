/**
 * @file
 * Simplified out-of-order core model.
 *
 * The full gem5 O3 pipeline of the paper's testbed is reduced to the
 * three properties the PRA evaluation depends on:
 *
 *  1. *Read latency sensitivity* — the core stalls when the oldest
 *     outstanding demand load falls a ROB's distance behind the issue
 *     front (ROB-head blocking), and pointer-chasing loads serialize.
 *  2. *Write latency insensitivity* — stores retire into the store queue
 *     and never block retirement; only a full STQ applies backpressure.
 *  3. *Bounded memory-level parallelism* — LDQ/STQ sizes (32/32) bound
 *     outstanding misses, as in the paper's configuration.
 *
 * The core runs in the DRAM clock domain: each DRAM cycle provides
 * issueWidth x 4 instruction slots (3.2 GHz core, 800 MHz bus).
 */
#ifndef PRA_CPU_CORE_H
#define PRA_CPU_CORE_H

#include <cstdint>
#include <vector>

#include "common/fields.h"
#include "cpu/mem_op.h"

namespace pra::cpu {

/** Core microarchitecture parameters (paper Table 3). */
struct CoreParams
{
    unsigned issueWidth = 4;  //!< Instructions per CPU cycle.
    unsigned robSize = 192;
    unsigned ldqSize = 32;
    unsigned stqSize = 32;
};

/** CoreParams' field table (common/fields.h): the config keys. */
template <typename Visit, typename... Self>
    requires FieldsOf<CoreParams, Self...>
void
forEachField(Visit &&v, Self &...s)
{
    [[maybe_unused]] auto &[issueWidth, robSize, ldqSize, stqSize] =
        fieldsHead(s...);
    v("issue_width", kFieldSettable, s.issueWidth...);
    v("rob", kFieldSettable, s.robSize...);
    v("ldq", 0, s.ldqSize...);
    v("stq", 0, s.stqSize...);
}

/**
 * Callbacks the core uses to touch the memory system. The system wiring
 * (sim::System) implements this; tests can stub it.
 */
class CoreMemoryPort
{
  public:
    virtual ~CoreMemoryPort() = default;

    /** May @p core start a new LLC-filling access to @p addr now? */
    virtual bool canIssue(unsigned core, Addr addr) = 0;

    /**
     * Perform the cache access for @p core. Returns true when the line
     * missed the LLC and a DRAM fetch with tag @p tag was started (the
     * core must wait for completion notice).
     */
    virtual bool access(unsigned core, const MemOp &op,
                        std::uint64_t tag) = 0;
};

/** The simplified OoO core. */
class Core
{
  public:
    Core(unsigned id, const CoreParams &params, Generator &gen,
         CoreMemoryPort &port);

    /** Advance one DRAM cycle of execution. */
    void tick();

    /** A DRAM fetch with @p tag finished. */
    void complete(std::uint64_t tag);

    /**
     * True when tick() is guaranteed to make no progress until either a
     * DRAM completion arrives or the memory port frees up — the cycle-skip
     * fast path may then elide the tick entirely. Conservative: returns
     * false whenever the next instruction is not yet known.
     */
    bool stalled() const;

    unsigned id() const { return id_; }
    std::uint64_t retiredInstructions() const { return instCount_; }
    std::uint64_t issuedLoads() const { return loads_; }
    std::uint64_t issuedStores() const { return stores_; }
    std::uint64_t outstandingLoads() const
    {
        return demandLoads_.size();
    }

  private:
    struct OutstandingLoad
    {
        std::uint64_t tag;
        std::uint64_t instNum;
    };

    /** Issue-front limit imposed by the ROB. */
    std::uint64_t robLimit() const;

    unsigned id_;
    CoreParams params_;
    Generator *gen_;
    CoreMemoryPort *port_;

    std::uint64_t instCount_ = 0;
    std::uint64_t loads_ = 0;
    std::uint64_t stores_ = 0;

    bool hasOp_ = false;
    MemOp op_;
    std::uint64_t opInst_ = 0;   //!< Instruction number of the held op.

    std::vector<OutstandingLoad> demandLoads_;
    unsigned storeFetches_ = 0;

    std::uint64_t nextTag_;
};

} // namespace pra::cpu

#endif // PRA_CPU_CORE_H
