/**
 * @file
 * Address slicing helpers. Cache-block granularity everywhere; the
 * block size is 64 B per Table 1 but kept as a runtime parameter.
 */

#ifndef NEO_MEM_ADDRESS_HPP
#define NEO_MEM_ADDRESS_HPP

#include <cstdint>

#include "sim/logging.hpp"
#include "sim/types.hpp"

namespace neo
{

/** True iff v is a power of two (and nonzero). */
constexpr bool
isPowerOf2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** log2 of a power of two. */
constexpr unsigned
log2i(std::uint64_t v)
{
    unsigned n = 0;
    while (v > 1) {
        v >>= 1;
        ++n;
    }
    return n;
}

/**
 * Slices addresses into (tag, set, offset) for a given geometry.
 */
class AddressMap
{
  public:
    AddressMap(std::uint64_t block_size, std::uint64_t num_sets)
        : blockBits_(log2i(block_size)), setBits_(log2i(num_sets))
    {
        neo_assert(isPowerOf2(block_size), "block size must be 2^k");
        neo_assert(isPowerOf2(num_sets), "set count must be 2^k");
    }

    Addr blockAlign(Addr a) const { return a >> blockBits_ << blockBits_; }
    std::uint64_t
    setIndex(Addr a) const
    {
        return (a >> blockBits_) & ((1ULL << setBits_) - 1);
    }
    Addr tag(Addr a) const { return a >> (blockBits_ + setBits_); }
    unsigned blockBits() const { return blockBits_; }
    unsigned setBits() const { return setBits_; }

  private:
    unsigned blockBits_;
    unsigned setBits_;
};

} // namespace neo

#endif // NEO_MEM_ADDRESS_HPP
