/**
 * @file
 * Generic set-associative tag/metadata array with true-LRU replacement.
 *
 * The array stores protocol-defined per-line entries (L1 line state,
 * directory entries, ...). Victim selection is split from allocation so
 * the coherence protocol can veto victims that are mid-transaction and
 * perform the recursive-invalidation work required by the inclusive
 * hierarchy before the line is actually dropped.
 */

#ifndef NEO_MEM_CACHE_ARRAY_HPP
#define NEO_MEM_CACHE_ARRAY_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "mem/address.hpp"
#include "sim/logging.hpp"
#include "sim/types.hpp"

namespace neo
{

/** Geometry + latency of one cache level (Table 1 rows). */
struct CacheGeometry
{
    std::uint64_t sizeBytes = 0;
    std::uint64_t assoc = 1;
    std::uint64_t blockSize = 64;
    Tick accessLatency = 1;

    std::uint64_t
    numSets() const
    {
        return sizeBytes / (assoc * blockSize);
    }
};

template <typename EntryT>
class CacheArray
{
  public:
    explicit CacheArray(const CacheGeometry &geom)
        : geom_(geom), map_(geom.blockSize, geom.numSets()),
          tags_(geom.numSets() * geom.assoc, invalidTag),
          lastUsed_(tags_.size(), 0), entries_(tags_.size())
    {
        neo_assert(geom.sizeBytes % (geom.assoc * geom.blockSize) == 0,
                   "cache size not divisible by assoc*block");
        neo_assert(isPowerOf2(geom.numSets()), "set count must be 2^k");
        neo_assert(map_.blockBits() + map_.setBits() > 0,
                   "a 1-byte, 1-set array leaves no room for the "
                   "invalid tag");
    }

    const CacheGeometry &geometry() const { return geom_; }
    const AddressMap &addressMap() const { return map_; }

    /** Find the entry for a block, or nullptr on miss. Updates LRU. */
    EntryT *
    find(Addr addr)
    {
        const std::size_t w = lookup(addr);
        if (w == noWay)
            return nullptr;
        lastUsed_[w] = ++useClock_;
        return &entries_[w];
    }

    /** Find without disturbing LRU state. */
    EntryT *
    peek(Addr addr)
    {
        const std::size_t w = lookup(addr);
        return w != noWay ? &entries_[w] : nullptr;
    }

    const EntryT *
    peek(Addr addr) const
    {
        const std::size_t w = lookup(addr);
        return w != noWay ? &entries_[w] : nullptr;
    }

    /** True when the set holding @p addr has an invalid way free. */
    bool
    hasFreeWay(Addr addr) const
    {
        const std::size_t base = setBase(addr);
        for (std::size_t i = 0; i < geom_.assoc; ++i)
            if (tags_[base + i] == invalidTag)
                return true;
        return false;
    }

    /**
     * Pick the LRU victim among valid ways of @p addr's set for which
     * @p evictable returns true. Returns the victim's block address.
     */
    std::optional<Addr>
    victimFor(Addr addr,
              const std::function<bool(Addr, const EntryT &)> &evictable)
        const
    {
        const std::size_t base = setBase(addr);
        const std::uint64_t set = map_.setIndex(addr);
        std::size_t best = noWay;
        for (std::size_t w = base; w < base + geom_.assoc; ++w) {
            if (tags_[w] == invalidTag ||
                !evictable(reconstruct(tags_[w], set), entries_[w]))
                continue;
            if (best == noWay || lastUsed_[w] < lastUsed_[best])
                best = w;
        }
        if (best == noWay)
            return std::nullopt;
        return reconstruct(tags_[best], set);
    }

    /**
     * Install a fresh entry for @p addr in a free way. The caller must
     * have made room first (see victimFor / erase).
     */
    EntryT &
    allocate(Addr addr)
    {
        neo_assert(lookup(addr) == noWay, "double allocate of block ",
                   addr);
        const std::size_t base = setBase(addr);
        for (std::size_t w = base; w < base + geom_.assoc; ++w) {
            if (tags_[w] == invalidTag) {
                tags_[w] = map_.tag(addr);
                lastUsed_[w] = ++useClock_;
                entries_[w] = EntryT{};
                ++allocated_;
                return entries_[w];
            }
        }
        neo_panic("allocate with no free way for block ", addr);
    }

    /** Drop a block from the array. */
    void
    erase(Addr addr)
    {
        const std::size_t w = lookup(addr);
        neo_assert(w != noWay, "erasing non-resident block ", addr);
        tags_[w] = invalidTag;
        --allocated_;
    }

    /** Number of currently valid lines. */
    std::uint64_t occupancy() const { return allocated_; }

    /** Invoke fn(addr, entry) for every valid line. */
    void
    forEach(const std::function<void(Addr, EntryT &)> &fn)
    {
        for (std::size_t w = 0; w < tags_.size(); ++w) {
            if (tags_[w] != invalidTag)
                fn(reconstruct(tags_[w], w / geom_.assoc), entries_[w]);
        }
    }

  private:
    /**
     * Tag of a free way. No block's tag has every bit set: the tag
     * drops the block-offset and set-index bits of a 64-bit address.
     */
    static constexpr Addr invalidTag = ~Addr{0};
    static constexpr std::size_t noWay = ~std::size_t{0};

    std::size_t
    setBase(Addr addr) const
    {
        return map_.setIndex(addr) * geom_.assoc;
    }

    /** Way index holding @p addr, or noWay. Scans only the tags. */
    std::size_t
    lookup(Addr addr) const
    {
        const std::size_t base = setBase(addr);
        const Addr tag = map_.tag(addr);
        for (std::size_t w = base; w < base + geom_.assoc; ++w)
            if (tags_[w] == tag)
                return w;
        return noWay;
    }

    Addr
    reconstruct(Addr tag, std::uint64_t set) const
    {
        return (tag << (map_.setBits() + map_.blockBits())) |
               (set << map_.blockBits());
    }

    CacheGeometry geom_;
    AddressMap map_;
    /** Structure of arrays, one slot per way, set-major: a lookup
     *  reads only the set's tags. */
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> lastUsed_;
    std::vector<EntryT> entries_;
    std::uint64_t useClock_ = 0;
    std::uint64_t allocated_ = 0;
};

} // namespace neo

#endif // NEO_MEM_CACHE_ARRAY_HPP
