/**
 * @file
 * Memory requests exchanged between the cache hierarchy and the DRAM
 * system, and the decoded DRAM coordinates of an address.
 */
#ifndef PRA_DRAM_REQUEST_H
#define PRA_DRAM_REQUEST_H

#include <cstdint>

#include "common/bitmask.h"
#include "common/types.h"
#include "core/row_buffer.h"

namespace pra::dram {

/** DRAM coordinates of a cache-line address. */
struct DecodedAddr
{
    unsigned channel = 0;
    unsigned rank = 0;
    unsigned bank = 0;
    std::uint32_t row = 0;
    unsigned col = 0;   //!< Line index within the row (0..linesPerRow-1).

    bool
    sameRow(const DecodedAddr &o) const
    {
        return channel == o.channel && rank == o.rank && bank == o.bank &&
               row == o.row;
    }
};

/** One 64 B read or write transaction. */
struct Request
{
    Addr addr = 0;
    bool isWrite = false;
    /**
     * Dirty-word mask for writes (the FGD bits delivered with the
     * writeback). Reads and non-PRA writebacks use a full mask.
     */
    WordMask mask = WordMask::full();
    /**
     * Chip-access mask for writes (SDS): bit c set when byte position c
     * of any word changed. Full for reads and non-SDS schemes.
     */
    std::uint8_t chipMask = 0xff;
    Cycle arrival = 0;       //!< Enqueue cycle at the controller.
    unsigned coreId = 0;     //!< Issuing core (for completion routing).
    std::uint64_t tag = 0;   //!< Opaque id the issuer uses to match.
    DecodedAddr loc;         //!< Filled in by the address mapper.

    // Controller bookkeeping.
    bool classified = false; //!< Row-hit accounting done.
    /**
     * Read-side partial activation fallback (DESIGN.md §12.4): set when
     * a probe for this read observed a row-buffer false hit — the open
     * (speculative) mask missed part of the demand. The next activation
     * for this request then opens the full row instead of re-trusting
     * the predictor, bounding the misprediction penalty at one extra
     * PRE + ACT. Never set for schemes without partial reads (their
     * reads always demand — and reopen — full rows anyway).
     */
    bool fullRowFallback = false;

    /**
     * Cached needOf() footprint: recomputed only when the masks change
     * (write combining), so the FR-FCFS scans do not re-derive it per
     * cycle per request.
     */
    WordMask need = WordMask::full();
    /** Bank state epoch the cached probe below was taken against. */
    std::uint32_t probeEpoch = kProbeInvalid;
    /** Row-buffer probe result cached at probeEpoch. */
    RowProbe cachedProbe = RowProbe::Closed;

    /**
     * Cached merged same-row write mask: valid while the write queue's
     * epoch (moved by any write enqueue/combine/dequeue) matches, so
     * repeated FR-FCFS prepare scans during a write drain do not rescan
     * the write queue per request per cycle.
     */
    WordMask cachedMergedMask = WordMask::full();
    /** Write-queue epoch the cached merged mask was taken against. */
    std::uint64_t mergedMaskEpoch = kMergedInvalid;

    static constexpr std::uint32_t kProbeInvalid = 0xffffffffu;
    static constexpr std::uint64_t kMergedInvalid = ~std::uint64_t{0};
};

/** Completion notification for a read. */
struct Completion
{
    std::uint64_t tag = 0;
    unsigned coreId = 0;
    Addr addr = 0;
    Cycle finish = 0;
    Cycle latency = 0;
};

} // namespace pra::dram

#endif // PRA_DRAM_REQUEST_H
