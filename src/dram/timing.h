/**
 * @file
 * DDR3-1600 timing parameters in DRAM bus cycles (tCK = 1.25 ns).
 * Values follow the paper's Table 3 baseline configuration; parameters
 * the table omits (tRTP, tWTR, tRFC, tREFI, tXP) use the Samsung 2Gb
 * K4B2G0846E datasheet values at DDR3-1600.
 */
#ifndef PRA_DRAM_TIMING_H
#define PRA_DRAM_TIMING_H

#include "common/fields.h"

namespace pra::dram {

/** DRAM device timing set (all values in bus cycles). */
struct Timing
{
    unsigned tRcd = 11;   //!< ACT to column command.
    unsigned tRp = 11;    //!< PRE to ACT.
    unsigned tCas = 11;   //!< Column read to data (RL).
    unsigned tRas = 28;   //!< ACT to PRE.
    unsigned tWr = 12;    //!< End of write data to PRE.
    unsigned tCcd = 4;    //!< Column command to column command.
    unsigned tRrd = 5;    //!< ACT to ACT, different banks.
    unsigned tFaw = 24;   //!< Four-activation window.
    unsigned tRc = 39;    //!< ACT to ACT, same bank (tRAS + tRP).
    unsigned wl = 8;      //!< Write latency (CWL).
    unsigned tRtp = 6;    //!< Read to PRE.
    unsigned tWtr = 6;    //!< End of write data to read command.
    unsigned tRfc = 128;  //!< Refresh cycle (160 ns for 2Gb).
    unsigned tRefi = 6240; //!< Refresh interval (7.8 us).
    unsigned tXp = 5;     //!< Power-down exit latency.
    unsigned tRtrs = 2;   //!< Rank-to-rank data-bus switch bubble.
    unsigned burstCycles = 4; //!< BL8 on a DDR bus: 8 beats = 4 cycles.

    // DDR4 bank grouping (1 group = DDR3 semantics).
    unsigned bankGroups = 1;  //!< Bank groups per rank.
    unsigned tCcdL = 4;       //!< Column-to-column, same bank group.

    /** Extra cycles a partial (PRA) activation adds for mask delivery. */
    unsigned praMaskCycles = 1;

    /**
     * RFM (refresh management) cycle time: how long an all-bank RFM
     * mitigation command blocks the rank. JEDEC leaves tRFM device-
     * dependent but at most tRFC; DDR5 datasheets place the all-bank
     * value near tRFC/2, which 80 cycles is for the 2Gb part modeled
     * here. Only consulted when DramConfig::pracEnabled is set.
     */
    unsigned tRfm = 80;

    unsigned rl() const { return tCas; }
};

/** Timing's field table (common/fields.h): the config keys. */
template <typename Visit, typename... Self>
    requires FieldsOf<Timing, Self...>
void
forEachField(Visit &&v, Self &...s)
{
    [[maybe_unused]] auto &[tRcd, tRp, tCas, tRas, tWr, tCcd, tRrd, tFaw,
                            tRc, wl, tRtp, tWtr, tRfc, tRefi, tXp, tRtrs,
                            burstCycles, bankGroups, tCcdL, praMaskCycles,
                            tRfm] = fieldsHead(s...);
    v("trcd", kFieldSettable, s.tRcd...);
    v("trp", kFieldSettable, s.tRp...);
    v("tcas", 0, s.tCas...);
    v("tras", kFieldSettable, s.tRas...);
    v("twr", 0, s.tWr...);
    v("tccd", 0, s.tCcd...);
    v("trrd", kFieldSettable, s.tRrd...);
    v("tfaw", kFieldSettable, s.tFaw...);
    v("trc", 0, s.tRc...);
    v("wl", 0, s.wl...);
    v("trtp", 0, s.tRtp...);
    v("twtr", 0, s.tWtr...);
    v("trfc", 0, s.tRfc...);
    v("trefi", 0, s.tRefi...);
    v("txp", 0, s.tXp...);
    v("trtrs", 0, s.tRtrs...);
    v("burst_cycles", 0, s.burstCycles...);
    v("bank_groups", 0, s.bankGroups...);
    v("tccd_l", 0, s.tCcdL...);
    v("pra_mask_cycles", kFieldSettable, s.praMaskCycles...);
    v("trfm", kFieldSettable, s.tRfm...);
}

} // namespace pra::dram

#endif // PRA_DRAM_TIMING_H
