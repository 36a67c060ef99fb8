/**
 * @file
 * Reference projection for the parametric view layer: the size-<=2
 * view abstraction computed the direct way, as byte strings in a
 * std::set. ViewSet must produce exactly this set, in exactly this
 * order, for every state it is fed.
 */

#ifndef NEO_TESTS_VIEW_ORACLE_HPP
#define NEO_TESTS_VIEW_ORACLE_HPP

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "verif/parametric.hpp"

namespace neo::test
{

using ViewBytes = std::vector<std::uint8_t>;

/** Byte order of ViewBytes, the same order as its operator<: memcmp
 *  over the common prefix, then the shorter string first. Spelled
 *  out because GCC 12 warns (-Wstringop-overread) on the inlined
 *  operator< of a byte vector. */
struct ByteLess
{
    bool
    operator()(const ViewBytes &a, const ViewBytes &b) const
    {
        const std::size_t n = std::min(a.size(), b.size());
        const int c = n == 0 ? 0 : std::memcmp(a.data(), b.data(), n);
        return c != 0 ? c < 0 : a.size() < b.size();
    }
};

using OracleViews = std::set<ViewBytes, ByteLess>;

/**
 * Project a concrete state onto its size-<=2 views: the shared
 * variables (ack counters saturated) extended with every
 * sub-multiset of at most two leaf blocks.
 */
inline void
collectViews(const VState &s, const ModelShape &shape,
             unsigned saturation, OracleViews &out)
{
    ViewBytes shared(s.begin(),
                     s.begin() + static_cast<long>(shape.sharedVars));
    for (std::size_t idx : shape.saturatedSharedVars) {
        shared[idx] = static_cast<std::uint8_t>(
            std::min<unsigned>(shared[idx], saturation));
    }
    // Distinct leaf blocks with multiplicity.
    std::map<ViewBytes, unsigned, ByteLess> counts;
    for (std::size_t l = 0; l < shape.numLeaves; ++l) {
        const auto base = shape.sharedVars + l * shape.leafBlockSize;
        ViewBytes block(
            s.begin() + static_cast<long>(base),
            s.begin() + static_cast<long>(base + shape.leafBlockSize));
        ++counts[block];
    }
    auto emit = [&](const ViewBytes *a, const ViewBytes *b) {
        ViewBytes view = shared;
        if (a != nullptr)
            view.insert(view.end(), a->begin(), a->end());
        if (b != nullptr)
            view.insert(view.end(), b->begin(), b->end());
        out.insert(std::move(view));
    };
    emit(nullptr, nullptr);
    for (auto it = counts.begin(); it != counts.end(); ++it) {
        emit(&it->first, nullptr);
        if (it->second >= 2)
            emit(&it->first, &it->first);
        for (auto jt = std::next(it); jt != counts.end(); ++jt)
            emit(&it->first, &jt->first);
    }
}

/** The oracle set in the order sortedViews() promises. */
inline std::vector<ViewBytes>
asSorted(const OracleViews &views)
{
    return {views.begin(), views.end()};
}

} // namespace neo::test

#endif // NEO_TESTS_VIEW_ORACLE_HPP
