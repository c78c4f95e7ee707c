/**
 * @file
 * Field tables: the one hand-written list of a plain struct's members.
 *
 * A struct S with a table defines, next to it,
 *
 *     template <typename Visit, typename... Self>
 *         requires FieldsOf<S, Self...>
 *     void forEachField(Visit &&visit, Self &...self);
 *
 * which calls visit(key, flags, self.member...) once per row, in a fixed
 * order. Each Self is S or const S, so one table drives readers (the
 * canonical config text, result serialization), writers (config-line
 * parsing, deserialization) and field-wise pairs (aggregation, the
 * auditor's exact-count comparison). A row's kind is its C++ type —
 * integer, bool, double (hex bits in every text form), enum, Histogram,
 * Summary, fixed array, or a small proxy such as KiB — and visitors
 * overload on it. A nested struct with a table of its own is flattened
 * into its parent's rows.
 *
 * Every table opens with a structured binding over the whole struct,
 *
 *     [[maybe_unused]] auto &[a, b, c] = fieldsHead(self...);
 *
 * so a member added without revisiting the table fails the build
 * ("only 3 names provided for structured binding").
 */
#ifndef PRA_COMMON_FIELDS_H
#define PRA_COMMON_FIELDS_H

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/stats.h"

namespace pra {

/** Row flags of a field table. */
enum FieldFlags : unsigned
{
    /** Cannot change simulated results: left out of the canonical config
     *  (the result-cache key) and of the result serialization. */
    kFieldObservational = 1u << 0,
    /** Accepted as a key by sim::applyConfigLine. */
    kFieldSettable = 1u << 1,
    /** EnergyCounts: charged per DRAM command, so the auditor's shadow
     *  accumulation must match it exactly. */
    kFieldCommandDriven = 1u << 2,
};

/** One or more objects, each S or const S. */
template <typename S, typename... Self>
concept FieldsOf = sizeof...(Self) > 0 &&
                   (std::same_as<std::remove_const_t<Self>, S> && ...);

/** The first object of a table's pack (the structured-binding target). */
template <typename T, typename... Rest>
T &
fieldsHead(T &head, Rest &...)
{
    return head;
}

/**
 * A config-file alias that sets a byte count in KiB (l1_kb). It is
 * parsed only; the byte row it aliases renders into the canonical key.
 */
template <typename T>
struct KiB
{
    T &bytes;
};

inline void
addField(std::uint64_t &a, std::uint64_t b)
{
    a += b;
}

template <std::size_t N>
void
addField(std::array<std::uint64_t, N> &a,
         const std::array<std::uint64_t, N> &b)
{
    for (std::size_t i = 0; i < N; ++i)
        a[i] += b[i];
}

inline void
addField(Histogram &a, const Histogram &b)
{
    for (std::size_t i = 0; i < b.buckets(); ++i)
        a.record(i, b.count(i));
}

inline void
addField(Summary &a, const Summary &b)
{
    a.merge(b);
}

/** @p a += @p b row by row over S's field table. */
template <typename S>
void
addFields(S &a, const S &b)
{
    forEachField([](const char *, unsigned, auto &x,
                    const auto &y) { addField(x, y); },
                 a, b);
}

} // namespace pra

#endif // PRA_COMMON_FIELDS_H
