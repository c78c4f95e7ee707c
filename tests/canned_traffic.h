/**
 * @file
 * The canned controller traffic shared by the golden-equivalence
 * fingerprints (test_golden_equivalence.cpp) and the event-vs-forced
 * differential (test_engine_differential.cpp): one standalone checked
 * controller harness, the LCG request mix with its drain and cycle
 * budget, and the stats/energy fingerprint. Both suites drive exactly
 * this traffic, so the pinned golden values also pin the differential's
 * input.
 */
#ifndef PRA_TESTS_CANNED_TRAFFIC_H
#define PRA_TESTS_CANNED_TRAFFIC_H

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "dram/address_mapping.h"
#include "dram/controller.h"

namespace pra::dram::test {

/** Everything one run produces that the two suites compare or pin. */
struct Outcome
{
    std::uint64_t statsFp = 0;        //!< Stats + energy fold.
    std::uint64_t completionsFp = 0;  //!< Cycle-exact completion stream.
    std::vector<std::string> violations;
    EngineStats engine;
    Cycle end = 0;
};

/** Folds every ControllerStats and EnergyCounts field the golden
 *  fingerprints pin, in a fixed order. */
inline std::uint64_t
statsFingerprint(const ControllerStats &s, const power::EnergyCounts &e)
{
    Fnv1a h;
    h.add(s.readReqs);
    h.add(s.writeReqs);
    h.add(s.readRowHits);
    h.add(s.writeRowHits);
    h.add(s.readRowMisses);
    h.add(s.writeRowMisses);
    h.add(s.readFalseHits);
    h.add(s.writeFalseHits);
    h.add(s.actsForReads);
    h.add(s.actsForWrites);
    h.add(s.precharges);
    h.add(s.refreshes);
    h.add(s.forwardedReads);
    for (std::size_t b = 0; b < s.actGranularity.buckets(); ++b)
        h.add(s.actGranularity.count(b));
    h.add(s.readLatency.samples());
    h.add(s.readLatency.sum());
    h.add(s.readLatency.min());
    h.add(s.readLatency.max());
    for (auto a : e.acts)
        h.add(a);
    for (auto a : e.actsHalfHeight)
        h.add(a);
    h.add(e.sdsActs);
    h.add(e.sdsChipsActivated);
    h.add(e.readLines);
    h.add(e.writeLines);
    h.add(e.writeWordsDriven);
    h.add(e.actStandbyCycles);
    h.add(e.preStandbyCycles);
    h.add(e.powerDownCycles);
    h.add(e.refreshOps);
    h.add(e.elapsedCycles);
    return h.value();
}

/**
 * One standalone single-channel controller with the checker on, driven
 * cycle by cycle, folding its completion stream as it is delivered.
 * Every run is capped at a cycle budget the caller derives from the
 * cell: a healthy run ends far inside it, while a lost wake or delivery
 * bound leaves the controller busy for ever, and the run then fails at
 * the budget with the cell label instead of spinning.
 */
class Harness
{
  public:
    Harness(DramConfig cfg, std::string label)
        : cfg_(withOneCheckedChannel(cfg)), label_(std::move(label)),
          mapper_(cfg_), mc_(cfg_, 0)
    {
    }

    MemoryController &mc() { return mc_; }
    Cycle now() const { return now_; }

    /** Call @p probe with the controller after every tick. */
    void
    afterEachTick(std::function<void(const MemoryController &)> probe)
    {
        afterTick_ = std::move(probe);
    }

    /** False once the run has reached @p budget (and failed). */
    bool
    withinBudget(Cycle budget)
    {
        if (now_ < budget)
            return true;
        if (!overBudget_) {
            ADD_FAILURE() << label_ << ": still running at the " << budget
                          << "-cycle budget";
            overBudget_ = true;
        }
        return false;
    }

    void
    tick()
    {
        mc_.tick(now_++);
        if (afterTick_)
            afterTick_(mc_);
        for (const Completion &c : mc_.completions()) {
            completions_.add(c.tag);
            completions_.add(c.addr);
            completions_.add(c.finish);
            completions_.add(c.latency);
        }
        mc_.completions().clear();
    }

    /** Enqueue a request at @p loc (writes dirty @p mask); false if full. */
    bool
    enqueue(const DecodedAddr &loc, bool is_write,
            WordMask mask = WordMask::single(0))
    {
        if (!mc_.canAccept(is_write))
            return false;
        Request req;
        req.addr = mapper_.encode(loc);
        req.loc = loc;
        req.isWrite = is_write;
        req.tag = nextTag_++;
        if (is_write)
            req.mask = mask;
        mc_.enqueue(req, now_);
        return true;
    }

    /** Tick through @p idle cycles and then until the queues drain. */
    void
    drain(Cycle idle, Cycle budget)
    {
        const Cycle idle_end = now_ + idle;
        while ((now_ < idle_end || mc_.busy()) && withinBudget(budget))
            tick();
    }

    Outcome
    outcome()
    {
        Outcome out;
        power::EnergyCounts energy = mc_.energyCounts();
        energy.elapsedCycles = now_;
        out.statsFp = statsFingerprint(mc_.stats(), energy);
        out.completionsFp = completions_.value();
        out.violations = mc_.checker()->violations();
        out.engine = mc_.engineStats();
        out.end = now_;
        return out;
    }

  private:
    static DramConfig
    withOneCheckedChannel(DramConfig cfg)
    {
        cfg.channels = 1;
        cfg.enableChecker = true;
        return cfg;
    }

    DramConfig cfg_;
    std::string label_;
    AddressMapper mapper_;
    MemoryController mc_;
    Fnv1a completions_;
    Cycle now_ = 0;
    std::uint64_t nextTag_ = 1;
    bool overBudget_ = false;
    std::function<void(const MemoryController &)> afterTick_;
};

/**
 * Drive the canned request mix through @p h (built for @p cfg): an
 * LCG request stream of 600 requests over
 * both ranks, all banks, mixed reads and masked writes (one to three
 * dirty words), bursty enough to trigger write drains, then a
 * two-tREFI idle tail. Every arrival cycle and address is a pure
 * function of the LCG, so the command-by-command trace is
 * deterministic. The arrival gaps include idle stretches long enough
 * for power-down entry — exactly what the event engine skips. Its
 * budget: every arrival gap at its longest (99 cycles) plus twice a
 * row cycle and a refresh per request, the idle tail and one more
 * tREFI. Strict FCFS, the slowest policy, ends at about 60% of it.
 */
inline void
driveCanned(Harness &h, const DramConfig &cfg)
{
    const Timing &t = cfg.timing;
    const Cycle budget =
        600 * (99 + 2 * Cycle{t.tRc + t.tRfc}) + 3 * Cycle{t.tRefi};

    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    auto next = [&state] {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 16;
    };

    unsigned issued = 0;
    while (issued < 600 && h.withinBudget(budget)) {
        const std::uint64_t r = next();
        const bool is_write = r % 3 != 0;
        DecodedAddr loc;
        loc.rank = static_cast<unsigned>((r >> 3) % cfg.ranksPerChannel);
        loc.bank = static_cast<unsigned>((r >> 8) % cfg.banksPerRank);
        loc.row = static_cast<std::uint32_t>((r >> 12) % 48);
        loc.col =
            static_cast<unsigned>((r >> 20) % std::min(32u, cfg.linesPerRow));
        WordMask m = WordMask::single((r >> 28) % 8);
        if (r & 1)
            m |= WordMask::single((r >> 33) % 8);
        if (r & 2)
            m |= WordMask::single((r >> 38) % 8);
        if (h.enqueue(loc, is_write, m))
            ++issued;
        const Cycle gap = (r % 7 == 0) ? 40 + (r >> 40) % 60 : 1 + r % 3;
        const Cycle until = h.now() + gap;
        while (h.now() < until)
            h.tick();
    }
    h.drain(2 * Cycle{t.tRefi}, budget);
}

/** The canned request mix through a fresh harness for @p cfg. */
inline Outcome
runCanned(const DramConfig &cfg, const std::string &label)
{
    Harness h(cfg, label);
    driveCanned(h, cfg);
    return h.outcome();
}

} // namespace pra::dram::test

#endif // PRA_TESTS_CANNED_TRAFFIC_H
