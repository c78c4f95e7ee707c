#include "dram/address_mapping.h"

#include <cassert>
#include <ostream>

namespace pra::dram {

void
PrintTo(AddrMapping mapping, std::ostream *os)
{
    *os << (mapping == AddrMapping::RowInterleaved ? "RowInterleaved"
                                                   : "LineInterleaved");
}

namespace {

/** Extract @p count low bits from @p v and shift them out. */
unsigned
take(Addr &v, unsigned count)
{
    const unsigned field = static_cast<unsigned>(v & ((1ull << count) - 1));
    v >>= count;
    return field;
}

unsigned
log2u(unsigned v)
{
    unsigned bits = 0;
    while ((1u << bits) < v)
        ++bits;
    assert((1u << bits) == v && "organization sizes must be powers of two");
    return bits;
}

} // namespace

AddressMapper::AddressMapper(const DramConfig &cfg)
    : mapping_(cfg.mapping),
      channels_(cfg.channels),
      ranks_(cfg.ranksPerChannel),
      banks_(cfg.banksPerRank),
      rows_(cfg.rowsPerBank),
      cols_(cfg.linesPerRow)
{
}

DecodedAddr
AddressMapper::decode(Addr addr) const
{
    Addr v = addr >> 6;   // Line address: 64 B granularity.
    DecodedAddr d;
    switch (mapping_) {
      case AddrMapping::RowInterleaved:
        d.col = take(v, log2u(cols_));
        d.channel = take(v, log2u(channels_));
        d.bank = take(v, log2u(banks_));
        d.rank = take(v, log2u(ranks_));
        break;
      case AddrMapping::LineInterleaved:
        d.channel = take(v, log2u(channels_));
        d.bank = take(v, log2u(banks_));
        d.rank = take(v, log2u(ranks_));
        d.col = take(v, log2u(cols_));
        break;
    }
    d.row = static_cast<std::uint32_t>(v % rows_);
    return d;
}

Addr
AddressMapper::encode(const DecodedAddr &loc) const
{
    Addr v = loc.row;
    switch (mapping_) {
      case AddrMapping::RowInterleaved:
        v = (v << log2u(ranks_)) | loc.rank;
        v = (v << log2u(banks_)) | loc.bank;
        v = (v << log2u(channels_)) | loc.channel;
        v = (v << log2u(cols_)) | loc.col;
        break;
      case AddrMapping::LineInterleaved:
        v = (v << log2u(cols_)) | loc.col;
        v = (v << log2u(ranks_)) | loc.rank;
        v = (v << log2u(banks_)) | loc.bank;
        v = (v << log2u(channels_)) | loc.channel;
        break;
    }
    return v << 6;
}

Addr
AddressMapper::capacityBytes() const
{
    return static_cast<Addr>(channels_) * ranks_ * banks_ * rows_ * cols_ *
           kLineBytes;
}

} // namespace pra::dram
