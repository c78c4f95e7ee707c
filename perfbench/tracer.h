/**
 * @file
 * In-memory span recorder for the traced mirror. Every span is named by
 * a fixed SpanId and timed with std::chrono::steady_clock.
 *
 * Two clock reads per span would slow the hottest loop iterations by
 * more than half, so only a sample of loop iterations is timed: one in
 * kSampleEvery, picked by a fixed-seed generator (a fixed stride could
 * alias with the DRAM's periodic command timing), plus every iteration
 * of the raw window. Spans outside the loop (setup, warmup, power) are
 * always timed. Every call is counted whether timed or not.
 *
 * The recorder keeps totals per (span, parent) pair over the timed calls
 * — calls, inclusive time and self time (inclusive minus the time
 * covered by child spans) — and, for the first traced run only, every
 * raw span of a bounded window of loop iterations. The loop iteration
 * number is the identifier shared by all spans of one iteration. Nothing
 * is written until writeJson().
 *
 * The clock reads of a span cost about as much as the smallest calls it
 * wraps. So the tracer times empty spans when it is built, and the
 * per-call accessors subtract that cost: from each timed call's own time,
 * and from its parent's self time. The totals and the dump stay raw.
 */
#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

namespace perfbench {

/** Every layer boundary the traced mirror times. */
enum class SpanId : std::uint8_t
{
    Run,             //!< sim.run: one whole measured region.
    Loop,            //!< sim.loop: one iteration of the run loop.
    CpuTick,         //!< cpu.tick: Core::tick.
    CpuComplete,     //!< cpu.complete: Core::complete.
    WorkloadsNext,   //!< workloads.next: Generator::next.
    CacheAccess,     //!< cache.access: Hierarchy::access.
    DramCanAccept,   //!< dram.can_accept: DramSystem::canAccept.
    DramEnqueue,     //!< dram.enqueue: DramSystem::enqueue.
    DramTick,        //!< dram.tick: DramSystem::tick.
    DramNextEvent,   //!< dram.next_event: DramSystem::nextEventCycle.
    DramFastForward, //!< dram.fast_forward: DramSystem::fastForwardTo.
    StallScan,       //!< sim.stall_scan: the cycle-skip eligibility test.
    PowerEval,       //!< power.eval: energyCounts + PowerModel.
    WorkloadsSetup,  //!< workloads.setup: generator construction.
    Warmup,          //!< sim.warmup: functional cache warmup.
    Count
};

/** Dotted name of @p id, as it appears in the span dump. */
const char *spanName(SpanId id);

class Tracer
{
  public:
    /** One loop iteration in this many is timed. */
    static constexpr unsigned kSampleEvery = 8;
    /** Raw spans cover loop iterations [kWindowFirst, +kWindowCount). */
    static constexpr std::uint64_t kWindowFirst = 4096;
    static constexpr std::uint64_t kWindowCount = 512;

    struct Total
    {
        std::uint64_t calls = 0;       //!< Every call, timed or not.
        std::uint64_t timedCalls = 0;
        std::int64_t ns = 0;           //!< Inclusive time of timed calls.
        std::int64_t selfNs = 0;       //!< Minus the time of child spans.
    };

    /** Calibrates the span overhead (see the file comment). */
    Tracer();

    /** True while spans are timed (see the file comment). */
    bool timing() const { return timing_; }

    void
    enter(SpanId id)
    {
        if (depth_ == stack_.size())
            overflow();
        stack_[depth_++] = {id, 0, nowNs()};
    }
    void exit();
    /** An untimed call of @p id. */
    void count(SpanId id) { ++untimedCalls_[index(id)]; }

    /** Mark the start of a traced run; only run 1 records raw spans. */
    void beginRun();
    /** Start loop iteration @p i, and decide whether it is timed. */
    void beginIteration(std::uint64_t i);
    /** Leave the loop: the spans that follow are timed again. */
    void endIterations() { timing_ = true; }

    /** Timed totals of @p id under @p parent (Count = no parent). */
    const Total &
    total(SpanId id, SpanId parent) const
    {
        return totals_[index(id)][index(parent)];
    }
    /** Totals of @p id summed over every parent, with every call. */
    Total total(SpanId id) const;

    std::uint64_t runs() const { return runs_; }

    /** Calibrated time an empty span measures for itself. */
    double spanOwnNs() const { return spanOwnNs_; }
    /** Calibrated time a timed child span adds to its parent's self time. */
    double spanParentNs() const { return spanParentNs_; }
    /** Mean inclusive ns per timed call of @p id, overhead subtracted. */
    double nsPerCall(SpanId id) const;
    /** Mean self ns per timed call of @p id, overhead subtracted. */
    double selfNsPerCall(SpanId id) const;

    /** Dump the totals and the raw window as one JSON object. */
    void writeJson(std::ostream &os) const;

  private:
    static constexpr std::size_t kIds = static_cast<std::size_t>(SpanId::Count);

    struct Frame
    {
        SpanId id;
        std::int64_t childNs;
        std::int64_t start;
    };
    struct RawSpan
    {
        SpanId id;
        SpanId parent;
        std::uint64_t iteration;
        std::int64_t start;
        std::int64_t end;
    };

    static std::size_t index(SpanId id) { return static_cast<std::size_t>(id); }
    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - origin_)
            .count();
    }
    bool
    inWindow() const
    {
        return runs_ == 1 && iteration_ >= kWindowFirst &&
               iteration_ - kWindowFirst < kWindowCount;
    }
    [[noreturn]] static void overflow();
    void calibrate();

    std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
    std::array<Frame, 16> stack_{};
    std::size_t depth_ = 0;
    std::array<std::array<Total, kIds + 1>, kIds> totals_{};
    std::array<std::uint64_t, kIds> untimedCalls_{};

    bool timing_ = true;
    std::uint64_t sampler_ = 0x2545f4914f6cdd1dull;
    std::uint64_t runs_ = 0;
    std::uint64_t iteration_ = 0;
    std::vector<RawSpan> raw_;
    double spanOwnNs_ = 0.0;
    double spanParentNs_ = 0.0;
};

/** RAII span: timed when the tracer is timing, else only counted. */
class Span
{
  public:
    Span(Tracer &tracer, SpanId id) : tracer_(tracer), timed_(tracer.timing())
    {
        if (timed_)
            tracer_.enter(id);
        else
            tracer_.count(id);
    }
    ~Span()
    {
        if (timed_)
            tracer_.exit();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &tracer_;
    bool timed_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_H
