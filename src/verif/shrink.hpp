/**
 * @file
 * Delta-debugging trace shrinker for random-walk counterexamples.
 *
 * A raw walk trace is typically hundreds of rule firings long; almost
 * all of them are irrelevant to the violation. The shrinker reduces a
 * violating trace to a locally minimal one by (1) truncating at the
 * first step where the target invariant already fails, (2) splicing
 * out cycles (firings between two visits of the same canonical
 * state), (3) re-routing the suffix through a budget-bounded
 * breadth-first search for a strictly shorter completion, and (4)
 * repeatedly deleting windows of firings — halving the window size
 * down to single steps — keeping any candidate that still replays
 * validly (every guard holds in sequence) and still violates the SAME
 * invariant. The result is 1-minimal: removing any single remaining
 * firing either makes a later guard false or loses the violation.
 */

#ifndef NEO_VERIF_SHRINK_HPP
#define NEO_VERIF_SHRINK_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "verif/random_walk.hpp"
#include "verif/transition_system.hpp"

namespace neo
{

struct ShrinkResult
{
    /** The minimized trace (rule indices, replayable). */
    std::vector<std::uint32_t> trace;
    /** The same trace as rule names. */
    std::vector<std::string> traceNames;
    /** Invariant the shrunk trace violates (== the input invariant). */
    std::string violatedInvariant;
    /** Violating state reached by the shrunk trace. */
    std::string badState;
    std::size_t rawLength = 0;
    std::size_t shrunkLength = 0;
    /** Replay attempts spent shrinking (the shrinker's cost unit). */
    std::uint64_t replays = 0;
    /** States expanded by the bounded re-routing searches. */
    std::uint64_t searchStates = 0;
};

/**
 * Shrink @p trace, which must replay to a violation of
 * @p invariantName on @p ts (as produced by RandomWalkExplorer).
 * Fatal if the input trace does not reproduce the violation — a
 * non-reproducing "counterexample" means the oracle or the
 * canonicalizer is broken, which callers must not paper over.
 *
 * Four phases: truncate at the first violation, splice out state
 * revisits (always-valid cycle elimination), re-route the suffix via
 * a bounded breadth-first search for a strictly shorter completion
 * (at most @p searchBudget states expanded in total, so the phase
 * stays local on instances far too large to exhaust), then delete
 * firing windows down to single steps. The result is 1-minimal.
 */
ShrinkResult shrinkTrace(const TransitionSystem &ts,
                         const std::vector<std::uint32_t> &trace,
                         const std::string &invariantName,
                         std::uint64_t searchBudget = 50'000);

} // namespace neo

#endif // NEO_VERIF_SHRINK_HPP
