/**
 * @file
 * The scheme registry: every DRAM organization scheme the repository
 * knows lives in this translation unit (pra_lint's `scheme-locality`
 * rule keeps scheme-specific dispatch from leaking anywhere else).
 * Adding a comparator is one subclass plus one line in makeRegistry().
 */
#include "core/scheme.h"

#include <cctype>
#include <ostream>
#include <stdexcept>

#include "common/hash.h"

namespace pra {

namespace {

std::string
lowered(std::string_view s)
{
    std::string out(s);
    for (char &c : out)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return out;
}

/**
 * Deterministic per-line sector-usage profile: the words of a line a
 * read actually consumes. No reuse trace reaches the DRAM level, so the
 * profile is synthesized from an FNV-1a hash of the line address —
 * stable per line, varied across lines (mean ~4.7 of 8 words), and
 * identical in the controller, the auditor, and the model checker.
 */
WordMask
sectorUse(Addr addr)
{
    Fnv1a h;
    h.add(static_cast<std::uint64_t>(addr >> 6));
    const auto bits = static_cast<std::uint8_t>(h.value() & 0xff);
    return bits ? WordMask{bits} : WordMask::full();
}

// --- The paper's schemes (Section 5.2) ----------------------------------

class BaselineScheme : public SchemeModel
{
  public:
    const char *name() const override { return "baseline"; }
    const char *displayName() const override { return "Baseline"; }
};

class FgaScheme : public SchemeModel
{
  public:
    const char *name() const override { return "fga"; }
    const char *displayName() const override { return "FGA"; }
    // Half-row FGA (the variant evaluated in Section 5.2.2): half the
    // MAT groups activate and the line is folded into them, doubling
    // the burst count.
    bool foldedMapping() const override { return true; }
    bool halfGroups() const override { return true; }
};

class HalfDramScheme : public SchemeModel
{
  public:
    const char *name() const override { return "halfdram"; }
    const char *displayName() const override { return "Half-DRAM"; }
    std::vector<std::string> aliases() const override
    {
        return {"half-dram"};
    }
    bool halfHeight() const override { return true; }
};

class PraScheme : public SchemeModel
{
  public:
    const char *name() const override { return "pra"; }
    const char *displayName() const override { return "PRA"; }
    bool partialWrites() const override { return true; }
};

class HalfDramPraScheme : public SchemeModel
{
  public:
    const char *name() const override { return "halfdram+pra"; }
    const char *displayName() const override { return "Half-DRAM+PRA"; }
    std::vector<std::string> aliases() const override
    {
        return {"half-dram+pra", "combined"};
    }
    bool partialWrites() const override { return true; }
    bool halfHeight() const override { return true; }
};

class SdsScheme : public SchemeModel
{
  public:
    const char *name() const override { return "sds"; }
    const char *displayName() const override { return "SDS"; }
    bool chipSelect() const override { return true; }
};

// --- Comparators beyond the paper (DESIGN.md §12.3) ---------------------

/**
 * Sectored DRAM (Olgun et al.): every MAT slice is an isolated
 * sub-array with its own local wordline segment, so both reads and
 * writes activate — and transfer — only the sectors they touch. Sector
 * select bits ride the ACT like the PRA mask (one extra command cycle,
 * the tRCD-side cost of the sector latch), activation energy is linear
 * in the selected sectors (no shared-structure floor), and the I/O
 * burst is shortened to the moved sectors in both directions.
 */
class SectoredScheme : public SchemeModel
{
  public:
    const char *name() const override { return "sectored"; }
    const char *displayName() const override { return "Sectored"; }
    bool partialWrites() const override { return true; }
    bool partialReads() const override { return true; }

    WordMask readNeed(Addr addr) const override { return sectorUse(addr); }
    /** Sector demand is known at activate time (the request carries its
     *  sector bits), so reads open exactly what they need. */
    WordMask readActMask(Addr addr) const override
    {
        return sectorUse(addr);
    }

    unsigned
    actGranularity(bool is_write, WordMask mask) const override
    {
        (void)is_write;
        return mask.empty() ? kMatGroups : mask.count();
    }

    WordMask
    actMask(bool is_write, WordMask mask) const override
    {
        (void)is_write;
        return mask.empty() ? WordMask::full() : mask;
    }

    bool
    needsMaskCycle(bool is_write, WordMask mask) const override
    {
        (void)is_write;
        return !mask.isFull() && !mask.empty();
    }

    double
    actWeight(unsigned granularity,
              const power::PowerParams &pp) const override
    {
        (void)pp;
        return static_cast<double>(granularity) / kMatGroups;
    }

    unsigned
    readWordsDriven(WordMask need) const override
    {
        return need.empty() ? kWordsPerLine : need.count();
    }

    unsigned
    columnBurstCycles(bool is_write, WordMask words,
                      unsigned nominal_burst_cycles) const override
    {
        (void)is_write;
        const unsigned w = words.empty() ? kWordsPerLine : words.count();
        // Ceil-scaled burst: moving w of 8 sectors takes w/8 of the
        // nominal beats, never less than one bus cycle.
        const unsigned cycles =
            (nominal_burst_cycles * w + kWordsPerLine - 1) / kWordsPerLine;
        return cycles ? cycles : 1;
    }

    void
    accountActivate(power::EnergyCounts &c, unsigned granularity,
                    bool is_write) const override
    {
        (void)is_write;
        // Linear bucket (shared with SDS): each selected sector slice
        // draws its isolated share of the full-row activation power.
        ++c.sdsActs;
        c.sdsChipsActivated += granularity;
    }
};

/**
 * Read-side partial activation on top of PRA: reads open a speculative
 * sector mask predicted from the line address. Overpredictions waste a
 * little activation energy; an underprediction surfaces as a row-buffer
 * false hit, which the controller repairs with a precharge and a
 * second, full-row activation (the misprediction penalty). Write-side
 * behaviour is exactly PRA's.
 */
class PraSpecReadScheme : public SchemeModel
{
  public:
    const char *name() const override { return "pra_spec_read"; }
    const char *displayName() const override { return "PRA+SpecRead"; }
    std::vector<std::string> aliases() const override
    {
        return {"pra-spec-read", "specread"};
    }
    bool partialWrites() const override { return true; }
    bool partialReads() const override { return true; }

    WordMask readNeed(Addr addr) const override { return sectorUse(addr); }

    WordMask
    readActMask(Addr addr) const override
    {
        const WordMask use = sectorUse(addr);
        // The predictor is modeled as mostly exact with a deterministic
        // ~1/8 underprediction rate: a second address hash elects lines
        // whose lowest demanded sector the prediction misses, forcing
        // the full-row fallback path.
        Fnv1a h;
        h.add(static_cast<std::uint64_t>((addr >> 6) * 0x9e3779b97f4a7c15ull));
        if ((h.value() & 0x7) == 0) {
            const WordMask missed{
                static_cast<std::uint8_t>(use.bits() & (use.bits() - 1))};
            if (!missed.empty())
                return missed;
        }
        return use;
    }

    unsigned
    actGranularity(bool is_write, WordMask mask) const override
    {
        if (!is_write)
            return mask.empty() ? kMatGroups : mask.count();
        return SchemeModel::actGranularity(is_write, mask);
    }

    WordMask
    actMask(bool is_write, WordMask mask) const override
    {
        if (!is_write)
            return mask.empty() ? WordMask::full() : mask;
        return SchemeModel::actMask(is_write, mask);
    }

    bool
    needsMaskCycle(bool is_write, WordMask mask) const override
    {
        if (!is_write)
            return !mask.isFull() && !mask.empty();
        return SchemeModel::needsMaskCycle(is_write, mask);
    }
};

/** Registration order is the canonical sweep/iteration order. */
const std::vector<const SchemeModel *> &
makeRegistry()
{
    static const BaselineScheme baseline;
    static const FgaScheme fga;
    static const HalfDramScheme halfdram;
    static const PraScheme pra;
    static const HalfDramPraScheme halfdram_pra;
    static const SdsScheme sds;
    static const SectoredScheme sectored;
    static const PraSpecReadScheme pra_spec_read;
    static const std::vector<const SchemeModel *> registry{
        &baseline, &fga,  &halfdram, &pra,
        &halfdram_pra, &sds, &sectored, &pra_spec_read,
    };
    return registry;
}

} // namespace

const std::vector<const SchemeModel *> &
allSchemes()
{
    return makeRegistry();
}

const SchemeModel *
findScheme(std::string_view name)
{
    const std::string key = lowered(name);
    for (const SchemeModel *s : allSchemes()) {
        if (key == s->name() || key == lowered(s->displayName()))
            return s;
        for (const std::string &alias : s->aliases())
            if (key == alias)
                return s;
    }
    return nullptr;
}

std::string
registeredSchemeNames()
{
    std::string names;
    for (const SchemeModel *s : allSchemes()) {
        if (!names.empty())
            names += ", ";
        names += s->name();
    }
    return names;
}

const SchemeModel &
schemeByName(std::string_view name)
{
    if (const SchemeModel *s = findScheme(name))
        return *s;
    throw std::runtime_error("unknown scheme '" + std::string(name) +
                             "' (registered schemes: " +
                             registeredSchemeNames() + ")");
}

const SchemeModel &
baselineScheme()
{
    return *allSchemes().front();
}

void
PrintTo(const SchemeModel *scheme, std::ostream *os)
{
    *os << (scheme != nullptr ? scheme->name() : "null");
}

} // namespace pra
