#include "tracer.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

const char *
spanName(SpanId id)
{
    switch (id) {
      case SpanId::Run: return "sim.run";
      case SpanId::Loop: return "sim.loop";
      case SpanId::CpuTick: return "cpu.tick";
      case SpanId::CpuComplete: return "cpu.complete";
      case SpanId::WorkloadsNext: return "workloads.next";
      case SpanId::CacheAccess: return "cache.access";
      case SpanId::DramCanAccept: return "dram.can_accept";
      case SpanId::DramEnqueue: return "dram.enqueue";
      case SpanId::DramTick: return "dram.tick";
      case SpanId::DramNextEvent: return "dram.next_event";
      case SpanId::DramFastForward: return "dram.fast_forward";
      case SpanId::StallScan: return "sim.stall_scan";
      case SpanId::PowerEval: return "power.eval";
      case SpanId::WorkloadsSetup: return "workloads.setup";
      case SpanId::Warmup: return "sim.warmup";
      case SpanId::Count: break;
    }
    return "";
}

namespace {

double
median(std::vector<double> v)
{
    const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
    std::nth_element(v.begin(), mid, v.end());
    return *mid;
}

} // namespace

Tracer::Tracer()
{
    raw_.reserve(kWindowCount * 32);
    calibrate();
}

void
Tracer::calibrate()
{
    // Batches of empty child spans under one parent. The median over
    // batches drops the ones a preemption or a migration landed in.
    constexpr int kBatches = 64;
    constexpr int kChildren = 256;
    std::vector<double> own, parent;
    for (int b = 0; b < kBatches; ++b) {
        totals_ = {};
        enter(SpanId::Run);
        for (int i = 0; i < kChildren; ++i) {
            enter(SpanId::Loop);
            exit();
        }
        exit();
        own.push_back(static_cast<double>(
                          total(SpanId::Loop, SpanId::Run).ns) /
                      kChildren);
        parent.push_back(static_cast<double>(
                             total(SpanId::Run, SpanId::Count).selfNs) /
                         kChildren);
    }
    totals_ = {};
    spanOwnNs_ = median(own);
    spanParentNs_ = median(parent);
}

void
Tracer::overflow()
{
    std::fprintf(stderr, "perfbench: span nesting deeper than the tracer "
                         "stack\n");
    std::abort();
}

void
Tracer::exit()
{
    const std::int64_t end = nowNs();
    const Frame frame = stack_[--depth_];
    const std::int64_t ns = end - frame.start;
    const SpanId parent = depth_ > 0 ? stack_[depth_ - 1].id : SpanId::Count;

    Total &t = totals_[index(frame.id)][index(parent)];
    ++t.calls;
    ++t.timedCalls;
    t.ns += ns;
    t.selfNs += ns - frame.childNs;
    if (depth_ > 0)
        stack_[depth_ - 1].childNs += ns;

    if (inWindow())
        raw_.push_back({frame.id, parent, iteration_, frame.start, end});
}

void
Tracer::beginRun()
{
    ++runs_;
    iteration_ = 0;
    timing_ = true;
}

void
Tracer::beginIteration(std::uint64_t i)
{
    iteration_ = i;
    sampler_ ^= sampler_ << 13;
    sampler_ ^= sampler_ >> 7;
    sampler_ ^= sampler_ << 17;
    timing_ = sampler_ % kSampleEvery == 0 || inWindow();
}

double
Tracer::nsPerCall(SpanId id) const
{
    const Total t = total(id);
    if (t.timedCalls == 0)
        return 0.0;
    return static_cast<double>(t.ns) / static_cast<double>(t.timedCalls) -
           spanOwnNs_;
}

double
Tracer::selfNsPerCall(SpanId id) const
{
    const Total t = total(id);
    if (t.timedCalls == 0)
        return 0.0;
    std::uint64_t children = 0;
    for (const auto &byParent : totals_)
        children += byParent[index(id)].timedCalls;
    return (static_cast<double>(t.selfNs) -
            static_cast<double>(children) * spanParentNs_) /
               static_cast<double>(t.timedCalls) -
           spanOwnNs_;
}

Tracer::Total
Tracer::total(SpanId id) const
{
    Total sum;
    sum.calls = untimedCalls_[index(id)];
    for (const Total &t : totals_[index(id)]) {
        sum.calls += t.calls;
        sum.timedCalls += t.timedCalls;
        sum.ns += t.ns;
        sum.selfNs += t.selfNs;
    }
    return sum;
}

void
Tracer::writeJson(std::ostream &os) const
{
    const auto parentName = [](SpanId p) {
        return p == SpanId::Count ? "" : spanName(p);
    };
    os << "{\"runs\": " << runs_
       << ", \"timed_one_loop_iteration_in\": " << kSampleEvery
       << ", \"span_own_ns\": " << spanOwnNs_
       << ", \"span_parent_ns\": " << spanParentNs_
       << ",\n \"calls\": {";
    const char *sep = "";
    for (std::size_t id = 0; id < kIds; ++id) {
        os << sep << '"' << spanName(SpanId(id))
           << "\": " << total(SpanId(id)).calls;
        sep = ", ";
    }
    os << "},\n \"timed_totals\": [";
    sep = "\n  ";
    for (std::size_t id = 0; id < kIds; ++id) {
        for (std::size_t p = 0; p <= kIds; ++p) {
            const Total &t = totals_[id][p];
            if (t.calls == 0)
                continue;
            os << sep << "{\"span\": \"" << spanName(SpanId(id))
               << "\", \"parent\": \"" << parentName(SpanId(p))
               << "\", \"timed_calls\": " << t.timedCalls << ", \"ns\": " << t.ns
               << ", \"self_ns\": " << t.selfNs << '}';
            sep = ",\n  ";
        }
    }
    os << "],\n \"window\": {\"first_iteration\": " << kWindowFirst
       << ", \"iterations\": " << kWindowCount
       << ", \"fields\": [\"span\", \"parent\", \"iteration\", \"start_ns\", "
          "\"end_ns\"],\n  \"spans\": [";
    sep = "\n   ";
    for (const RawSpan &s : raw_) {
        os << sep << "[\"" << spanName(s.id) << "\", \"" << parentName(s.parent)
           << "\", " << s.iteration << ", " << s.start << ", " << s.end
           << ']';
        sep = ",\n   ";
    }
    os << "]}}\n";
}

} // namespace perfbench
