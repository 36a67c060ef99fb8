#include "shrink.hpp"

#include <algorithm>

#include "verif/explorer.hpp"
#include "verif/state_store.hpp"

namespace neo
{

namespace
{

/**
 * Replay @p trace step by step; @return the index of the first step
 * after which @p inv fails, or -1 when a guard is false mid-trace or
 * the invariant never fails. Counts each call in @p replays.
 */
long
violatesAt(const TransitionSystem &ts,
           const TransitionSystem::Check &inv,
           const std::vector<std::uint32_t> &trace,
           std::uint64_t &replays)
{
    ++replays;
    const auto &rules = ts.rules();
    const auto &canon = ts.canonicalizer();
    VState s = ts.initialState();
    if (canon)
        canon(s);
    for (std::size_t k = 0; k < trace.size(); ++k) {
        const std::uint32_t idx = trace[k];
        if (idx >= rules.size() || !rules[idx].guard(s))
            return -1;
        rules[idx].effect(s);
        if (canon)
            canon(s);
        if (!inv(s))
            return static_cast<long>(k);
    }
    return -1;
}

} // namespace

ShrinkResult
shrinkTrace(const TransitionSystem &ts,
            const std::vector<std::uint32_t> &trace,
            const std::string &invariantName,
            std::uint64_t searchBudget)
{
    ShrinkResult result;
    result.rawLength = trace.size();
    result.violatedInvariant = invariantName;

    const TransitionSystem::Check *inv = nullptr;
    for (const auto &i : ts.invariants()) {
        if (i.name == invariantName)
            inv = &i.check;
    }
    if (!inv)
        neo_fatal("shrinkTrace: unknown invariant ", invariantName);

    std::vector<std::uint32_t> cur = trace;
    {
        const long v = violatesAt(ts, *inv, cur, result.replays);
        if (v < 0)
            neo_fatal("shrinkTrace: input trace does not reproduce a ",
                      invariantName, " violation");
        cur.resize(static_cast<std::size_t>(v) + 1);
    }

    // Phase 1 — cycle elimination. A random walk's dominant
    // redundancy is loops: the walk revisits a canonical state and
    // wanders on. Splicing out the firings between two visits of the
    // same state is ALWAYS a valid replay (the guard of the next kept
    // step held at that very state), and leaves the suffix — hence
    // the violation — untouched. Repeat until all intermediate states
    // are distinct.
    auto eliminate_cycles = [&]() {
        for (;;) {
            ++result.replays;
            const auto &rules = ts.rules();
            const auto &canon = ts.canonicalizer();
            // Interned dedup: states are appended once per step, so
            // an arena id IS the trace position of its first visit.
            StateStore seen(ts.numVars());
            VState s = ts.initialState();
            if (canon)
                canon(s);
            seen.intern(s); // state index k = state after step k-1
            bool spliced = false;
            for (std::size_t k = 0; k < cur.size(); ++k) {
                rules[cur[k]].effect(s);
                if (canon)
                    canon(s);
                const auto [firstVisit, fresh] = seen.intern(s);
                if (!fresh) {
                    // States firstVisit and k+1 coincide: drop the
                    // firings between them and rescan.
                    cur.erase(cur.begin() +
                                  static_cast<long>(firstVisit),
                              cur.begin() + static_cast<long>(k + 1));
                    spliced = true;
                    break;
                }
            }
            if (!spliced)
                return;
        }
    };
    eliminate_cycles();

    // Phase 2 — suffix re-routing. Deletion alone cannot fix a walk
    // that reached the violation the long way round: the remaining
    // steps are pairwise guard-entangled (every subsequence breaks a
    // guard) yet a completely different, much shorter path exists.
    // From successive trace states, run a breadth-first search for ANY
    // state violating the target invariant, depth-bounded to strictly
    // beat the current completion and node-bounded by the caller's
    // budget so the phase stays local on instances too large to
    // exhaust. A completed (non-exhausted) search from state i proves
    // no shorter completion exists from ANY later trace state either —
    // their completions, prefixed with the walk steps that reach them,
    // are completions from state i too — so the trace is then
    // length-minimal past i and we stop.
    struct Bridge
    {
        bool found = false;
        bool exhausted = false;
        std::vector<std::uint32_t> path;
    };
    auto bridge_search = [&](const VState &start,
                             std::size_t maxDepth) -> Bridge {
        Bridge out;
        if (maxDepth == 0)
            return out;
        const auto &rules = ts.rules();
        const auto &canon = ts.canonicalizer();
        // States live in the interning store; a violating state
        // returns before anything else is interned, so arena ids and
        // the parent/depth flat arrays stay aligned.
        StateStore seen(ts.numVars());
        seen.intern(start);
        std::vector<long> parentOf{-1};
        std::vector<std::uint32_t> ruleInto{0};
        std::vector<std::uint32_t> depthOf{0};
        VState base;
        VState nxt;
        for (std::size_t head = 0; head < parentOf.size(); ++head) {
            if (depthOf[head] >= maxDepth)
                continue;
            if (result.searchStates >= searchBudget) {
                out.exhausted = true;
                return out;
            }
            seen.copyTo(static_cast<std::uint32_t>(head), base);
            for (std::uint32_t r = 0;
                 r < static_cast<std::uint32_t>(rules.size()); ++r) {
                if (!rules[r].guard(base))
                    continue;
                nxt = base;
                rules[r].effect(nxt);
                if (canon)
                    canon(nxt);
                ++result.searchStates;
                if (!seen.intern(nxt).second)
                    continue;
                if (!(*inv)(nxt)) {
                    out.found = true;
                    out.path.push_back(r);
                    for (long p = static_cast<long>(head);
                         parentOf[p] >= 0; p = parentOf[p])
                        out.path.push_back(ruleInto[p]);
                    std::reverse(out.path.begin(), out.path.end());
                    return out;
                }
                parentOf.push_back(static_cast<long>(head));
                ruleInto.push_back(r);
                depthOf.push_back(depthOf[head] + 1);
            }
        }
        return out;
    };
    {
        const auto &rules = ts.rules();
        const auto &canon = ts.canonicalizer();
        std::vector<VState> along;
        VState s = ts.initialState();
        if (canon)
            canon(s);
        along.push_back(s);
        for (const std::uint32_t r : cur) {
            rules[r].effect(s);
            if (canon)
                canon(s);
            along.push_back(s);
        }
        std::size_t i = 0;
        while (i < cur.size()) {
            const Bridge b = bridge_search(along[i], cur.size() - i - 1);
            if (b.found) {
                // Shortest completion from state i within the explored
                // region; subpaths of shortest paths are shortest, so
                // no later splice can improve on it.
                cur.resize(i);
                cur.insert(cur.end(), b.path.begin(), b.path.end());
                break;
            }
            if (!b.exhausted)
                break; // proven minimal past i
            // Budget ran dry: retry closer to the violation, where the
            // bounded search covers a larger fraction of the subproblem.
            i += std::max<std::size_t>(1, (cur.size() - i) / 4);
        }
    }

    // Phase 3 — window deletion with halving window size; every
    // accepted candidate is immediately re-truncated at its first
    // violation.
    auto reduce_pass = [&](std::size_t chunk) -> bool {
        bool any = false;
        std::size_t i = 0;
        while (i < cur.size()) {
            std::vector<std::uint32_t> cand(cur.begin(),
                                            cur.begin() +
                                                static_cast<long>(i));
            const std::size_t j = std::min(cur.size(), i + chunk);
            cand.insert(cand.end(),
                        cur.begin() + static_cast<long>(j), cur.end());
            const long v = violatesAt(ts, *inv, cand, result.replays);
            if (v >= 0) {
                cand.resize(static_cast<std::size_t>(v) + 1);
                cur = std::move(cand);
                any = true; // rescan the same position
            } else {
                i += chunk;
            }
        }
        return any;
    };

    std::size_t chunk = std::max<std::size_t>(cur.size() / 2, 1);
    for (;;) {
        const bool any = reduce_pass(chunk);
        if (chunk > 1)
            chunk /= 2;
        else if (!any)
            break;
    }

    result.trace = cur;
    result.shrunkLength = cur.size();
    result.traceNames.reserve(cur.size());
    for (const std::uint32_t r : cur)
        result.traceNames.push_back(ts.rules()[r].name);

    const ReplayResult rr = replayTrace(ts, result.trace);
    result.badState = ts.describe(rr.finalState);
    return result;
}

} // namespace neo
