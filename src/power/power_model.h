/**
 * @file
 * Micron-methodology DRAM energy accounting.
 *
 * The DRAM system accumulates event counts (EnergyCounts) while it
 * simulates; PowerModel converts them into the energy/power breakdown the
 * paper reports (Figure 2 categories: ACT-PRE, RD, WR, RD I/O, WR I/O,
 * BG, REF).
 *
 * Accounting rules:
 *  - Each ACT-PRE pair is charged P_ACT(g) over one tRC window. A
 *    half-height activation (Half-DRAM / FGA / combined scheme) uses the
 *    CACTI half-height curve normalized to the same full-row power.
 *  - RD / WR core energy and I/O energy are charged per transferred line
 *    at the nominal burst occupancy, so a scheme that stretches a transfer
 *    over more cycles (FGA) consumes the same energy but exhibits lower
 *    average power due to longer runtime — matching the paper's note on
 *    FGA's apparent I/O "saving".
 *  - Write I/O (ODT on the target rank plus termination on peer ranks) is
 *    scaled by the fraction of words actually driven, which is PRA's
 *    write-I/O saving; read I/O is scaled the same way, but only
 *    fine-grained-I/O schemes (sectored) ever drive fewer than all the
 *    words of a read, so every paper scheme charges full read I/O.
 *  - Background energy integrates per-rank state residency; refresh is
 *    charged per REF operation over tRFC.
 */
#ifndef PRA_POWER_POWER_MODEL_H
#define PRA_POWER_POWER_MODEL_H

#include <array>
#include <cstdint>

#include "common/fields.h"
#include "common/types.h"
#include "power/cacti_model.h"
#include "power/power_params.h"

namespace pra::power {

/** Raw event counts accumulated by the DRAM system during simulation. */
struct EnergyCounts
{
    /** ACT-PRE pairs by granularity (index g-1), full-height MATs. */
    std::array<std::uint64_t, 8> acts{};
    /** ACT-PRE pairs by granularity, half-height MATs (Half-DRAM/FGA). */
    std::array<std::uint64_t, 8> actsHalfHeight{};
    /** SDS chip-selected write activations (full row per chip). */
    std::uint64_t sdsActs = 0;
    /** Total chips activated over all SDS write activations. */
    std::uint64_t sdsChipsActivated = 0;

    std::uint64_t readLines = 0;       //!< 64 B lines read.
    std::uint64_t writeLines = 0;      //!< 64 B line write transactions.
    std::uint64_t writeWordsDriven = 0; //!< Words actually driven on DQ.
    /** Words actually driven on DQ for reads: kWordsPerLine per line
     *  except under fine-grained-I/O schemes (sectored reads move only
     *  the demanded sectors). */
    std::uint64_t readWordsDriven = 0;

    std::uint64_t actStandbyCycles = 0; //!< Rank-cycles with a bank open.
    std::uint64_t preStandbyCycles = 0; //!< Rank-cycles idle, not PDN.
    std::uint64_t powerDownCycles = 0;  //!< Rank-cycles in PRE PDN.
    std::uint64_t refreshOps = 0;       //!< All-bank REF commands issued.
    std::uint64_t rfmOps = 0;           //!< PRAC RFM mitigations issued.

    std::uint64_t elapsedCycles = 0;    //!< Wall-clock DRAM cycles.

    EnergyCounts &operator+=(const EnergyCounts &o);
    /** Field-wise equality: bit-exactness checks (auditor, fast paths). */
    bool operator==(const EnergyCounts &o) const = default;

    /** Mean activation granularity in MAT groups (1..8), both curves. */
    double meanActGranularity() const;
    std::uint64_t totalActs() const;
};

/**
 * EnergyCounts' field table (common/fields.h): the result keys. The
 * background residencies and the wall clock are not command-driven; the
 * auditor checks those by equation instead.
 */
template <typename Visit, typename... Self>
    requires FieldsOf<EnergyCounts, Self...>
void
forEachField(Visit &&v, Self &...s)
{
    [[maybe_unused]] auto &[acts, actsHalfHeight, sdsActs,
                            sdsChipsActivated, readLines, writeLines,
                            writeWordsDriven, readWordsDriven,
                            actStandbyCycles, preStandbyCycles,
                            powerDownCycles, refreshOps, rfmOps,
                            elapsedCycles] = fieldsHead(s...);
    constexpr unsigned kCmd = kFieldCommandDriven;
    v("acts", kCmd, s.acts...);
    v("acts_half", kCmd, s.actsHalfHeight...);
    v("sds_acts", kCmd, s.sdsActs...);
    v("sds_chips", kCmd, s.sdsChipsActivated...);
    v("read_lines", kCmd, s.readLines...);
    v("write_lines", kCmd, s.writeLines...);
    v("write_words_driven", kCmd, s.writeWordsDriven...);
    v("read_words_driven", kCmd, s.readWordsDriven...);
    v("act_standby_cycles", 0, s.actStandbyCycles...);
    v("pre_standby_cycles", 0, s.preStandbyCycles...);
    v("power_down_cycles", 0, s.powerDownCycles...);
    v("refresh_ops", kCmd, s.refreshOps...);
    v("rfm_ops", kCmd, s.rfmOps...);
    v("elapsed_cycles", 0, s.elapsedCycles...);
}

/** Energy breakdown in nJ per Figure 2 category. */
struct EnergyBreakdown
{
    double actPre = 0.0;
    double read = 0.0;
    double write = 0.0;
    double readIo = 0.0;   //!< Read I/O + read termination.
    double writeIo = 0.0;  //!< Write ODT + write termination.
    double background = 0.0;
    double refresh = 0.0;

    double total() const
    {
        return actPre + read + write + readIo + writeIo + background +
               refresh;
    }
};

/** EnergyBreakdown's field table (common/fields.h). */
template <typename Visit, typename... Self>
    requires FieldsOf<EnergyBreakdown, Self...>
void
forEachField(Visit &&v, Self &...s)
{
    [[maybe_unused]] auto &[actPre, read, write, readIo, writeIo,
                            background, refresh] = fieldsHead(s...);
    v("act_pre", 0, s.actPre...);
    v("read", 0, s.read...);
    v("write", 0, s.write...);
    v("read_io", 0, s.readIo...);
    v("write_io", 0, s.writeIo...);
    v("background", 0, s.background...);
    v("refresh", 0, s.refresh...);
}

/** Converts EnergyCounts into energies (nJ) and average power (mW). */
class PowerModel
{
  public:
    /**
     * @param params    Per-chip power parameters (Table 3).
     * @param chips     DRAM devices per rank (8 in the baseline).
     * @param ranks     Ranks sharing a channel (termination targets).
     * @param ecc_chips Extra ECC devices per rank (x72 DIMM). An ECC
     *                  chip's PRA pin is tied high (paper Section 4.2),
     *                  so it always performs full-row activations and
     *                  full write bursts regardless of the scheme.
     */
    PowerModel(PowerParams params, unsigned chips, unsigned ranks,
               unsigned ecc_chips = 0);

    const PowerParams &params() const { return params_; }

    /** Rank-level energy breakdown (nJ) for the given counts. */
    EnergyBreakdown energy(const EnergyCounts &counts) const;

    /** Average total power in mW over the counted interval. */
    double averagePower(const EnergyCounts &counts) const;

    /** Total energy in nJ. */
    double totalEnergy(const EnergyCounts &counts) const
    {
        return energy(counts).total();
    }

    /** Simulated wall-clock time in ns. */
    double
    elapsedNs(const EnergyCounts &counts) const
    {
        return static_cast<double>(counts.elapsedCycles) * params_.tCkNs;
    }

    /** Energy-delay product in nJ * ns (relative use only). */
    double
    energyDelayProduct(const EnergyCounts &counts) const
    {
        return totalEnergy(counts) * elapsedNs(counts);
    }

  private:
    double halfHeightActPower(unsigned granularity) const;

    PowerParams params_;
    CactiModel cacti_;
    unsigned chips_;
    unsigned ranks_;
    unsigned eccChips_;
};

} // namespace pra::power

#endif // PRA_POWER_POWER_MODEL_H
