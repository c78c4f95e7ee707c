/**
 * @file
 * Physical-address to DRAM-coordinate mapping.
 *
 * Two mappings from the paper: row-interleaved (consecutive lines fill a
 * row before moving on — maximizes row-buffer locality, used with the
 * relaxed close-page policy) and line-interleaved (consecutive lines
 * stripe across channels/banks/ranks — maximizes parallelism, used with
 * the restricted close-page policy).
 */
#ifndef PRA_DRAM_ADDRESS_MAPPING_H
#define PRA_DRAM_ADDRESS_MAPPING_H

#include <iosfwd>

#include "dram/config.h"
#include "dram/request.h"

namespace pra::dram {

/** Prints @p mapping by its enumerator name (gtest parameter values). */
void PrintTo(AddrMapping mapping, std::ostream *os);

/** Decodes line addresses into channel/rank/bank/row/column. */
class AddressMapper
{
  public:
    explicit AddressMapper(const DramConfig &cfg);

    /** Decode byte address @p addr. */
    DecodedAddr decode(Addr addr) const;

    /** Recompose a byte address from DRAM coordinates (inverse map). */
    Addr encode(const DecodedAddr &loc) const;

    /** Total addressable bytes. */
    Addr capacityBytes() const;

  private:
    AddrMapping mapping_;
    unsigned channels_, ranks_, banks_;
    std::uint32_t rows_;
    unsigned cols_;
};

} // namespace pra::dram

#endif // PRA_DRAM_ADDRESS_MAPPING_H
