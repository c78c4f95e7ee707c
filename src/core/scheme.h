/**
 * @file
 * Pluggable DRAM organization schemes (DESIGN.md §12).
 *
 * Every scheme the paper evaluates — and every comparator added since —
 * is one self-contained SchemeModel subclass registered under a string
 * name. The model declares the full behavioural contract the rest of
 * the system consumes: activation mask/granularity/weight, burst
 * shaping, the PRA mask-cycle need, driven-word rules for both bus
 * directions, read-side demand/prediction masks, and the energy bucket
 * an activation charges. The controller, the invariant auditor, the
 * model checker, and the power model are all scheme-agnostic: they call
 * through this interface and never name a concrete scheme (enforced by
 * the pra_lint `scheme-locality` rule).
 *
 * Registered schemes:
 *  - baseline     : conventional DDR3, full-row ACT, 8-burst transfers.
 *  - fga          : fine-grained activation at half-row granularity;
 *                   data mapping folds the line into the active MATs, so
 *                   every transfer takes twice the bursts.
 *  - halfdram     : half-row ACT for all requests with full bandwidth
 *                   (half-height MATs, HFFs shared across halves).
 *  - pra          : the paper's scheme; full-row ACT for reads,
 *                   dirty-word granularity ACT for writes, write I/O
 *                   reduced to the dirty words, +1 tCK mask delivery on
 *                   partial ACTs.
 *  - halfdram+pra : case-study composition (Section 5.2.3).
 *  - sds          : Skinflint DRAM System (Lee et al., HPCA 2013) —
 *                   inter-chip selection. Writes skip chips whose byte
 *                   positions are clean in every word; each selected
 *                   chip still activates its full row, so activation
 *                   energy scales linearly with selected chips.
 *  - sectored     : Sectored DRAM (Olgun et al.) — per-sector
 *                   activation AND per-sector I/O for reads and writes.
 *                   Reads open exactly the sectors the line demands,
 *                   transfers are shortened to the selected sectors,
 *                   and activation energy is linear in the sector count
 *                   (each MAT slice is a fully isolated sub-array).
 *  - pra_spec_read: read-side partial activation layered on PRA: reads
 *                   open a speculative sector mask predicted from the
 *                   line address; an underprediction is discovered as a
 *                   row-buffer false hit and repaired with a precharge
 *                   plus a second, full-row activation.
 *
 * Conformance: the invariant auditor (src/verify/auditor.h) re-derives
 * every activation's expected mask/granularity/weight from these same
 * model functions against its own shadow write queue, so a controller
 * that drifts from the model is caught at the first divergent command.
 */
#ifndef PRA_CORE_SCHEME_H
#define PRA_CORE_SCHEME_H

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/bitmask.h"
#include "common/types.h"
#include "power/power_model.h"
#include "power/power_params.h"

namespace pra {

/**
 * Behavioural model of one DRAM organization scheme.
 *
 * Instances are immutable registry singletons: configs hold them by
 * pointer, pointer equality is identity, and every virtual is a pure
 * function of its arguments (no internal state), so two simulations of
 * the same config are bit-identical regardless of sharing.
 */
class SchemeModel
{
  public:
    virtual ~SchemeModel() = default;

    // --- Identity -------------------------------------------------------

    /** Registry key and config-file spelling (lower-case). */
    virtual const char *name() const = 0;
    /** Human-readable name used in reports and canonical configs. */
    virtual const char *displayName() const = 0;
    /** Additional accepted config spellings (lower-case). */
    virtual std::vector<std::string> aliases() const { return {}; }

    // --- Capability flags (defaults: conventional DDR3) -----------------

    /** Writes may activate a partial row from a dirty-word mask. */
    virtual bool partialWrites() const { return false; }
    /** MATs are split vertically; activations are half-height. */
    virtual bool halfHeight() const { return false; }
    /** Line folded into active MATs: transfers take 2x bursts. */
    virtual bool foldedMapping() const { return false; }
    /** All activations (reads too) cover only half the MAT groups. */
    virtual bool halfGroups() const { return false; }
    /** Writes select chips (SDS); masks carry chip-level semantics. */
    virtual bool chipSelect() const { return false; }
    /** Reads may open a partial row (read-side partial activation). */
    virtual bool partialReads() const { return false; }

    // --- Read-side demand and prediction --------------------------------
    //
    // Both are pure functions of the line address, so the controller,
    // the auditor, and the model checker derive identical expectations
    // with no shared state. Schemes without partialReads() keep the
    // full-row defaults (reads need — and open — the whole row).

    /**
     * Words of @p addr's line a read actually consumes (the demand the
     * open mask must cover before the column access may issue). Never
     * empty.
     */
    virtual WordMask
    readNeed(Addr addr) const
    {
        (void)addr;
        return WordMask::full();
    }

    /**
     * Words a read activation speculatively opens for @p addr. May
     * underpredict readNeed(); the controller then observes a row-
     * buffer false hit and re-activates the full row (the misprediction
     * penalty is the second ACT). Never empty.
     */
    virtual WordMask
    readActMask(Addr addr) const
    {
        (void)addr;
        return WordMask::full();
    }

    // --- Command shaping -------------------------------------------------

    /** Nominal data-bus cycles a 64 B line transfer occupies. */
    virtual unsigned
    burstCycles(unsigned nominal_burst_cycles) const
    {
        return foldedMapping() ? 2 * nominal_burst_cycles
                               : nominal_burst_cycles;
    }

    /**
     * Data-bus cycles one column access actually occupies when it moves
     * the words in @p words (the dirty mask for writes, the read demand
     * for reads). Schemes with fine-grained I/O shorten the burst;
     * everything else transfers the whole (possibly folded) line.
     */
    virtual unsigned
    columnBurstCycles(bool is_write, WordMask words,
                      unsigned nominal_burst_cycles) const
    {
        (void)is_write;
        (void)words;
        return burstCycles(nominal_burst_cycles);
    }

    /**
     * MAT-group granularity of an activation (1..8).
     *
     * @param is_write  Activation triggered by a write request.
     * @param mask      Demand mask: the merged dirty-word mask for
     *                  writes, the (speculative or fallback) read mask
     *                  for reads. Ignored by schemes that always open
     *                  fixed-granularity rows.
     */
    virtual unsigned
    actGranularity(bool is_write, WordMask mask) const
    {
        unsigned g = kMatGroups;
        if (halfGroups())
            g = kMatGroups / 2;
        if ((partialWrites() || chipSelect()) && is_write && !mask.empty())
            g = mask.count();
        return g;
    }

    /**
     * The MAT groups an activation opens for demand @p mask. Reads (and
     * non-partial schemes) open the full row; PRA writes open exactly
     * the masked groups.
     */
    virtual WordMask
    actMask(bool is_write, WordMask mask) const
    {
        if ((partialWrites() || chipSelect()) && is_write && !mask.empty())
            return mask;
        return WordMask::full();
    }

    /** True when this activation needs the extra PRA-mask cycle. */
    virtual bool
    needsMaskCycle(bool is_write, WordMask mask) const
    {
        return (partialWrites() || chipSelect()) && is_write &&
               !mask.isFull() && !mask.empty();
    }

    /**
     * Activation weight against the tFAW/tRRD power budget: the ratio of
     * this activation's power to a conventional full-row activation.
     * The paper's relaxed tRRD/tFAW constraints follow from charging the
     * four-activation window by power instead of by count.
     */
    virtual double
    actWeight(unsigned granularity, const power::PowerParams &pp) const
    {
        // Chip selection scales the activation current linearly: each
        // skipped chip draws nothing, each selected chip draws the full
        // per-chip activation current.
        if (chipSelect())
            return static_cast<double>(granularity) / kMatGroups;
        double w = pp.actPowerAt(granularity) / pp.actPowerAt(kMatGroups);
        if (halfHeight())
            w *= 0.55;   // Half-height CACTI scale at full width (~0.53).
        return w;
    }

    /**
     * Words whose data is actually driven on the DQ pins for a write.
     * PRA transmits only dirty words; every other scheme drives the full
     * line.
     */
    virtual unsigned
    wordsDriven(WordMask mask) const
    {
        if ((partialWrites() || chipSelect()) && !mask.empty())
            return mask.count();
        return kWordsPerLine;
    }

    /**
     * Words driven on the DQ pins for a read whose demand is @p need.
     * Only fine-grained-I/O schemes transfer less than the full line.
     */
    virtual unsigned
    readWordsDriven(WordMask need) const
    {
        (void)need;
        return kWordsPerLine;
    }

    /**
     * Charge one activation of @p granularity into the energy counters.
     * The default picks the bucket from the capability flags exactly as
     * the paper's schemes require (SDS chip-selected writes are linear
     * in chips; half-height schemes use the CACTI half-height curve);
     * fine-grained-I/O schemes override to the linear bucket.
     */
    virtual void
    accountActivate(power::EnergyCounts &c, unsigned granularity,
                    bool is_write) const
    {
        if (chipSelect() && is_write) {
            ++c.sdsActs;
            c.sdsChipsActivated += granularity;
        } else if (halfHeight()) {
            ++c.actsHalfHeight[granularity - 1];
        } else {
            ++c.acts[granularity - 1];
        }
    }

    // --- Non-virtual helpers --------------------------------------------

    /** The raw write mask this scheme's activation algebra consumes
     *  (chip-selecting schemes operate on the chip mask). */
    WordMask
    writeMask(WordMask mask, std::uint8_t chip_mask) const
    {
        return chipSelect() ? WordMask{chip_mask} : mask;
    }

    /** Demand footprint of a write (mergedWriteMask element algebra with
     *  the empty-mask full-row fallback applied). */
    WordMask
    writeNeed(WordMask mask, std::uint8_t chip_mask) const
    {
        if (chipSelect()) {
            const WordMask chips{chip_mask};
            return chips.empty() ? WordMask::full() : chips;
        }
        if (!partialWrites())
            return WordMask::full();
        return mask.empty() ? WordMask::full() : mask;
    }
};

// --- Registry -----------------------------------------------------------

/**
 * Registered scheme named @p name (config spelling, display name, or
 * alias; case-insensitive); nullptr when unknown.
 */
const SchemeModel *findScheme(std::string_view name);

/**
 * findScheme() that throws std::runtime_error listing every registered
 * scheme name on an unknown spelling (config_io's unknown-scheme error).
 */
const SchemeModel &schemeByName(std::string_view name);

/**
 * Every registered scheme, in registration order (deterministic: used
 * by analysis tools, conformance tests, and sweeps to iterate schemes).
 */
const std::vector<const SchemeModel *> &allSchemes();

/** Comma-joined registered config names (diagnostics, --help text). */
std::string registeredSchemeNames();

/** The conventional-DDR3 baseline scheme (DramConfig's default). */
const SchemeModel &baselineScheme();

/**
 * Prints a scheme pointer as its registry name ("null" for nullptr).
 * googletest finds this by argument-dependent lookup, so a test
 * parameterised over schemes carries the scheme's name rather than a
 * process address in its printed parameter (and hence its ctest name).
 */
void PrintTo(const SchemeModel *scheme, std::ostream *os);

} // namespace pra

#endif // PRA_CORE_SCHEME_H
