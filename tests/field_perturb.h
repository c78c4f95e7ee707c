/**
 * @file
 * Test helpers over the field tables (common/fields.h): change one row
 * of a config or result struct, and count or name a struct's rows, so
 * a test can visit every row without listing any of them.
 */
#ifndef PRA_TESTS_FIELD_PERTURB_H
#define PRA_TESTS_FIELD_PERTURB_H

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "dram/sched/scheduler_policy.h"
#include "sim/system.h"

namespace pra::test {

// perturb(row) changes the row's value and returns true; rows derived
// from another row (prac_op) cannot be changed on their own and return
// false. Composite rows change every element.

inline bool
perturb(unsigned &v)
{
    ++v;
    return true;
}

inline bool
perturb(std::uint64_t &v)
{
    ++v;
    return true;
}

inline bool
perturb(std::uint8_t &v)
{
    ++v;
    return true;
}

inline bool
perturb(bool &v)
{
    v = !v;
    return true;
}

/** One ulp: every text form carries doubles bit-exactly. */
inline bool
perturb(double &v)
{
    v = std::nextafter(v, std::numeric_limits<double>::infinity());
    return true;
}

inline bool
perturb(dram::AddrMapping &v)
{
    v = v == dram::AddrMapping::RowInterleaved
            ? dram::AddrMapping::LineInterleaved
            : dram::AddrMapping::RowInterleaved;
    return true;
}

inline bool
perturb(dram::SchedulerKind &v)
{
    v = v == dram::SchedulerKind::Fcfs ? dram::SchedulerKind::FrFcfs
                                       : dram::SchedulerKind::Fcfs;
    return true;
}

inline bool
perturb(const SchemeModel *&v)
{
    v = v == &schemeByName("pra") ? &baselineScheme() : &schemeByName("pra");
    return true;
}

/** Open page keeps the row-interleaved mapping that `policy = openpage`
 *  selects, so the perturbed config is one a config line can produce. */
inline bool
perturb(dram::PolicyKey<dram::DramConfig> k)
{
    k.cfg.policy = k.cfg.policy == dram::PagePolicy::OpenPage
                       ? dram::PagePolicy::RelaxedClose
                       : dram::PagePolicy::OpenPage;
    k.cfg.mapping = dram::AddrMapping::RowInterleaved;
    return true;
}

inline bool
perturb(KiB<std::size_t> k)
{
    k.bytes += 1024;
    return true;
}

inline bool
perturb(std::string_view)
{
    return false;
}

template <std::size_t N>
bool
perturb(std::array<std::uint64_t, N> &a)
{
    for (std::uint64_t &v : a)
        ++v;
    return true;
}

template <typename T>
bool
perturb(std::vector<T> &a)
{
    for (T &v : a)
        perturb(v);
    return !a.empty();
}

inline bool
perturb(Histogram &h)
{
    for (std::size_t b = 0; b < h.buckets(); ++b)
        h.record(b);
    return true;
}

inline bool
perturb(Summary &s)
{
    s.record(s.max() + 1.0);
    return true;
}

inline bool
perturb(power::EnergyBreakdown &b)
{
    forEachField([](const char *, unsigned, double &v) { perturb(v); }, b);
    return true;
}

/** Number of rows in @p s's field table. */
template <typename S>
std::size_t
rowCount(const S &s)
{
    std::size_t n = 0;
    forEachField([&n](const char *, unsigned, const auto &) { ++n; }, s);
    return n;
}

/** Row @p row of @p s: its key and flags, after perturb() ran on it.
 *  changed reports whether perturb() could change the row. */
struct PerturbedRow
{
    std::string key;
    unsigned flags = 0;
    bool changed = false;
};

template <typename S>
PerturbedRow
perturbRow(S &s, std::size_t row)
{
    PerturbedRow out;
    std::size_t i = 0;
    forEachField(
        [&](const char *key, unsigned flags, auto &&m) {
            if (i++ != row)
                return;
            out.key = key;
            out.flags = flags;
            out.changed = perturb(m);
        },
        s);
    return out;
}

} // namespace pra::test

#endif // PRA_TESTS_FIELD_PERTURB_H
