/**
 * @file
 * Shared leaf-block canonicalizer for the bundled models.
 *
 * Every bundled model expresses Neo's leaf symmetry the same way:
 * identical leaves are interchangeable, so the canonical
 * representative sorts the fixed-stride per-leaf variable blocks into
 * lexicographic order (the shared/directory prefix stays put). This
 * header is the one implementation — alloc-free, because the
 * canonicalizer runs once per rule firing and a heap allocation there
 * used to dominate the explorers' hot path — plus the matching exact
 * CanonicalCheck with which the engines skip the canonicalizer on
 * successors that are already sorted.
 */

#ifndef NEO_VERIF_MODELS_LEAF_CANON_HPP
#define NEO_VERIF_MODELS_LEAF_CANON_HPP

#include <array>
#include <cstring>

#include "verif/transition_system.hpp"

namespace neo::verif
{

/** Stack scratch bound for one leaf block; every bundled model's
 *  block (7–9 vars) fits with slack. */
inline constexpr std::size_t kMaxLeafBlockVars = 32;

/** Canonicalizer: insertion-sort the @p n blocks of @p blockVars
 *  bytes starting at offset @p sharedVars. Insertion sort beats
 *  std::sort at these sizes (n <= 12) and the near-sorted inputs one
 *  firing away from a canonical parent make it mostly one memcmp per
 *  block; memcmp order over uint8_t IS lexicographic block order. */
inline TransitionSystem::Canonicalizer
makeLeafSortCanonicalizer(std::size_t sharedVars, std::size_t n,
                          std::size_t blockVars)
{
    neo_assert(blockVars > 0 && blockVars <= kMaxLeafBlockVars,
               "leaf block too wide for the canonicalizer scratch");
    return [sharedVars, n, blockVars](VState &s) {
        std::uint8_t *base = s.data() + sharedVars;
        std::array<std::uint8_t, kMaxLeafBlockVars> tmp;
        for (std::size_t i = 1; i < n; ++i) {
            std::uint8_t *cur = base + i * blockVars;
            if (std::memcmp(cur - blockVars, cur, blockVars) <= 0)
                continue;
            std::memcpy(tmp.data(), cur, blockVars);
            std::size_t j = i;
            while (j > 0 && std::memcmp(base + (j - 1) * blockVars,
                                        tmp.data(), blockVars) > 0) {
                std::memcpy(base + j * blockVars,
                            base + (j - 1) * blockVars, blockVars);
                --j;
            }
            std::memcpy(base + j * blockVars, tmp.data(), blockVars);
        }
    };
}

/** Exact identity predicate: sorting is a no-op IFF adjacent blocks
 *  are already in non-decreasing order — one alloc-free sweep. */
inline TransitionSystem::CanonicalCheck
makeLeafSortedCheck(std::size_t sharedVars, std::size_t n,
                    std::size_t blockVars)
{
    return [sharedVars, n, blockVars](const VState &s) {
        const std::uint8_t *base = s.data() + sharedVars;
        for (std::size_t i = 1; i < n; ++i) {
            if (std::memcmp(base + (i - 1) * blockVars,
                            base + i * blockVars, blockVars) > 0)
                return false;
        }
        return true;
    };
}

} // namespace neo::verif

#endif // NEO_VERIF_MODELS_LEAF_CANON_HPP
