#include "power/power_model.h"

namespace pra::power {

EnergyCounts &
EnergyCounts::operator+=(const EnergyCounts &o)
{
    addFields(*this, o);
    return *this;
}

std::uint64_t
EnergyCounts::totalActs() const
{
    std::uint64_t t = sdsActs;
    for (unsigned i = 0; i < 8; ++i)
        t += acts[i] + actsHalfHeight[i];
    return t;
}

double
EnergyCounts::meanActGranularity() const
{
    const std::uint64_t t = totalActs();
    if (!t)
        return 0.0;
    double acc = static_cast<double>(sdsChipsActivated);
    for (unsigned i = 0; i < 8; ++i)
        acc += static_cast<double>(i + 1) *
               static_cast<double>(acts[i] + actsHalfHeight[i]);
    return acc / static_cast<double>(t);
}

PowerModel::PowerModel(PowerParams params, unsigned chips, unsigned ranks,
                       unsigned ecc_chips)
    : params_(params), chips_(chips), ranks_(ranks), eccChips_(ecc_chips)
{
}

double
PowerModel::halfHeightActPower(unsigned granularity) const
{
    // Normalize the half-height CACTI curve so that a full-row,
    // full-height activation matches the industrial P_ACT; the half-height
    // curve then expresses Half-DRAM's and the combined scheme's savings.
    return params_.actPowerAt(8) * cacti_.scaleFactor(granularity, true);
}

EnergyBreakdown
PowerModel::energy(const EnergyCounts &c) const
{
    const PowerParams &p = params_;
    const double ns_per_cycle = p.tCkNs;
    const double chips = static_cast<double>(chips_);
    // mW * ns = pJ; divide by 1e3 for nJ.
    constexpr double kPjToNj = 1e-3;

    EnergyBreakdown e;

    const double act_window_ns = static_cast<double>(p.tRc) * ns_per_cycle;
    for (unsigned g = 1; g <= 8; ++g) {
        const double n_full = static_cast<double>(c.acts[g - 1]);
        const double n_half = static_cast<double>(c.actsHalfHeight[g - 1]);
        e.actPre += n_full * p.actPowerAt(g) * act_window_ns * chips *
                    kPjToNj;
        e.actPre += n_half * halfHeightActPower(g) * act_window_ns * chips *
                    kPjToNj;
    }
    // SDS: linear in selected chips, full per-chip activation power.
    e.actPre += static_cast<double>(c.sdsChipsActivated) *
                p.actPowerAt(8) * act_window_ns * kPjToNj;

    const double burst_ns = static_cast<double>(p.burstCycles) *
                            ns_per_cycle;
    const double reads = static_cast<double>(c.readLines);
    const double writes = static_cast<double>(c.writeLines);
    // Fraction of write words actually driven on the DQ pins.
    const double words = static_cast<double>(c.writeWordsDriven);
    const double peer_ranks = ranks_ > 1 ? static_cast<double>(ranks_ - 1)
                                         : 0.0;

    e.read = reads * p.read * burst_ns * chips * kPjToNj;
    e.write = writes * p.write * burst_ns * chips * kPjToNj;
    // I/O powers are per pin (TN-41-01): scale by the device's data-pin
    // count. PRA drives (and the peer rank terminates) only the dirty
    // words of a write burst; sectored reads drive only the demanded
    // sectors (read_words == kWordsPerLine * readLines — and therefore
    // the paper's unscaled read I/O, bit-exactly — for every scheme
    // without fine-grained read I/O).
    const double read_words = static_cast<double>(c.readWordsDriven);
    e.readIo = (read_words / kWordsPerLine) *
               (p.readIo + p.readTerm * peer_ranks) *
               p.readIoPins * burst_ns * chips * kPjToNj;
    e.writeIo = (words / kWordsPerLine) *
                (p.writeOdt + p.writeTerm * peer_ranks) * p.writeIoPins *
                burst_ns * chips * kPjToNj;

    e.background =
        (static_cast<double>(c.actStandbyCycles) * p.actStandby +
         static_cast<double>(c.preStandbyCycles) * p.preStandby +
         static_cast<double>(c.powerDownCycles) * p.prePowerDown) *
        ns_per_cycle * chips * kPjToNj;

    e.refresh = static_cast<double>(c.refreshOps) * p.refresh *
                static_cast<double>(p.tRfc) * ns_per_cycle * chips * kPjToNj;
    // RFM internally refreshes the victim row's neighbourhood: charge it
    // like a refresh burst scaled to the tRFM window.
    e.refresh += static_cast<double>(c.rfmOps) * p.refresh *
                 static_cast<double>(p.tRfm) * ns_per_cycle * chips *
                 kPjToNj;

    if (eccChips_ > 0) {
        // The ECC devices ignore PRA/SDS masks: full-row activation on
        // every ACT and full bursts on every transfer (Section 4.2).
        const double ecc = static_cast<double>(eccChips_);
        e.actPre += static_cast<double>(c.totalActs()) * p.actPowerAt(8) *
                    act_window_ns * ecc * kPjToNj;
        e.read += reads * p.read * burst_ns * ecc * kPjToNj;
        e.write += writes * p.write * burst_ns * ecc * kPjToNj;
        e.readIo += reads * (p.readIo + p.readTerm * peer_ranks) *
                    p.readIoPins * burst_ns * ecc * kPjToNj;
        e.writeIo += writes * (p.writeOdt + p.writeTerm * peer_ranks) *
                     p.writeIoPins * burst_ns * ecc * kPjToNj;
        e.background +=
            (static_cast<double>(c.actStandbyCycles) * p.actStandby +
             static_cast<double>(c.preStandbyCycles) * p.preStandby +
             static_cast<double>(c.powerDownCycles) * p.prePowerDown) *
            ns_per_cycle * ecc * kPjToNj;
        e.refresh += static_cast<double>(c.refreshOps) * p.refresh *
                     static_cast<double>(p.tRfc) * ns_per_cycle * ecc *
                     kPjToNj;
        e.refresh += static_cast<double>(c.rfmOps) * p.refresh *
                     static_cast<double>(p.tRfm) * ns_per_cycle * ecc *
                     kPjToNj;
    }

    return e;
}

double
PowerModel::averagePower(const EnergyCounts &c) const
{
    const double ns = elapsedNs(c);
    if (ns <= 0.0)
        return 0.0;
    // nJ / ns = W; report mW.
    return energy(c).total() / ns * 1e3;
}

} // namespace pra::power
