/**
 * @file
 * DDR3 device power parameters (paper Table 3, "Power (mW)" block) and
 * the timing values the power model needs to convert between power and
 * energy. All values are per DRAM device (chip); the power model scales
 * by the number of chips in a rank.
 */
#ifndef PRA_POWER_POWER_PARAMS_H
#define PRA_POWER_POWER_PARAMS_H

#include <array>

#include "common/fields.h"
#include "power/cacti_model.h"
#include "power/idd.h"

namespace pra::power {

/** Per-chip DDR3-1600 power parameters in mW (Table 3). */
struct PowerParams
{
    double preStandby = 27.0;   //!< PRE STBY: all banks precharged, idle.
    double prePowerDown = 18.0; //!< PRE PDN: precharge power-down.
    double refresh = 210.0;     //!< REF: power during the tRFC burst.
    double actStandby = 42.0;   //!< ACT STBY: at least one bank open.
    double read = 78.0;         //!< RD: core read (IDD4R - IDD3N).
    double write = 93.0;        //!< WR: core write (IDD4W - IDD3N).
    // I/O powers are per data pin, as in the Micron TN-41-01 power
    // calculator the paper uses (PdqRD / PdqWR / PdqRDoth / PdqWRoth for
    // a dual-rank terminated DDR3 system). The effective pin factor is
    // calibrated so the baseline power breakdown reproduces the paper's
    // Figure 2 shares (ACT-PRE ~25%, I/O ~14% of total): the full
    // 10/11-pin dual-rank termination roughly doubles the I/O share the
    // paper reports, while a per-chip reading makes it 4x too small.
    double readIo = 4.6;        //!< RD I/O per pin, target rank drivers.
    double writeOdt = 21.2;     //!< WR ODT per pin, target rank.
    double readTerm = 15.5;     //!< RD TERM per pin, other rank.
    double writeTerm = 15.4;    //!< WR TERM per pin, other rank.
    unsigned readIoPins = 4;    //!< Effective pin factor (see above).
    unsigned writeIoPins = 4;   //!< Effective pin factor (see above).

    /**
     * ACT power (mW) per activation granularity, index g-1 for g in 1..8
     * MAT groups. Table 3: full, 7/8 ... 1/8 row = 22.2, 19.6, 16.9, 14.3,
     * 11.6, 9.1, 6.4, 3.7 mW.
     */
    std::array<double, 8> actPower{3.7, 6.4, 9.1, 11.6,
                                   14.3, 16.9, 19.6, 22.2};

    double tCkNs = 1.25;        //!< DDR3-1600 clock period (ns).
    unsigned tRc = 39;          //!< Row cycle (cycles), ACT-PRE energy window.
    unsigned burstCycles = 4;   //!< Cycles a BL8 transfer occupies the bus.
    unsigned tRfc = 128;        //!< Refresh cycle time (160 ns).
    unsigned tRefi = 6240;      //!< Refresh interval (7.8 us).
    unsigned tRfm = 80;         //!< PRAC RFM window (~tRFC/2), if enabled.

    /** P_ACT (mW) for a granularity-g activation, g in 1..8. */
    double
    actPowerAt(unsigned granularity) const
    {
        return actPower[granularity - 1];
    }

    /** Energy (nJ) of one ACT-PRE pair at granularity g. */
    double
    actEnergyNj(unsigned granularity) const
    {
        return actPowerAt(granularity) * tRc * tCkNs * 1e-3;
    }

    /**
     * Populate the per-granularity ACT powers from the CACTI component
     * model instead of the hard-coded Table 3 values (bench_table3 shows
     * the two agree within a few percent).
     */
    void
    deriveActPowerFromCacti(const CactiModel &cacti, double full_row_mw)
    {
        for (unsigned g = 1; g <= 8; ++g)
            actPower[g - 1] = cacti.actPower(g, full_row_mw);
    }
};

/** PowerParams' field table (common/fields.h): the config keys. */
template <typename Visit, typename... Self>
    requires FieldsOf<PowerParams, Self...>
void
forEachField(Visit &&v, Self &...s)
{
    [[maybe_unused]] auto &[preStandby, prePowerDown, refresh, actStandby,
                            read, write, readIo, writeOdt, readTerm,
                            writeTerm, readIoPins, writeIoPins, actPower,
                            tCkNs, tRc, burstCycles, tRfc, tRefi, tRfm] =
        fieldsHead(s...);
    v("p_pre_standby", 0, s.preStandby...);
    v("p_pre_power_down", 0, s.prePowerDown...);
    v("p_refresh", 0, s.refresh...);
    v("p_act_standby", 0, s.actStandby...);
    v("p_read", 0, s.read...);
    v("p_write", 0, s.write...);
    v("p_read_io", 0, s.readIo...);
    v("p_write_odt", 0, s.writeOdt...);
    v("p_read_term", 0, s.readTerm...);
    v("p_write_term", 0, s.writeTerm...);
    v("read_io_pins", 0, s.readIoPins...);
    v("write_io_pins", 0, s.writeIoPins...);
    // One row per activation granularity.
    static constexpr const char *kActKeys[] = {
        "p_act_1", "p_act_2", "p_act_3", "p_act_4",
        "p_act_5", "p_act_6", "p_act_7", "p_act_8"};
    static_assert(std::size(kActKeys) ==
                  std::tuple_size_v<decltype(PowerParams::actPower)>);
    for (std::size_t g = 0; g < std::size(kActKeys); ++g)
        v(kActKeys[g], 0, s.actPower[g]...);
    v("tck_ns", kFieldSettable, s.tCkNs...);
    v("power_trc", 0, s.tRc...);
    v("power_burst_cycles", 0, s.burstCycles...);
    v("power_trfc", 0, s.tRfc...);
    v("power_trfm", 0, s.tRfm...);
    v("power_trefi", 0, s.tRefi...);
}

} // namespace pra::power

#endif // PRA_POWER_POWER_PARAMS_H
