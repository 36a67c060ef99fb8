/**
 * @file
 * Random-walk falsification over a TransitionSystem.
 *
 * The third exploration mode next to the sequential BFS and the
 * sharded parallel explorer: instead of exhausting the reachable set,
 * run K independent seeded walks of bounded depth, checking every
 * invariant after every rule firing. Walks scale to instances far too
 * large to exhaust — they cannot prove safety, only falsify it, which
 * is exactly what the mutation corpus (models/mutants.hpp) needs to
 * demonstrate that the verification oracle catches real protocol bugs
 * (the "detect seeded faults" discipline of RealityCheck-style
 * verifier validation).
 *
 * Determinism contract: walk i draws from Random(seed + i * C), so the
 * whole run is reproducible from one seed, and the reported violation
 * is the one found by the LOWEST-numbered violating walk — identical
 * for every thread count (threads only change wall-clock and the
 * total-steps counters, never the counterexample).
 */

#ifndef NEO_VERIF_RANDOM_WALK_HPP
#define NEO_VERIF_RANDOM_WALK_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "verif/explorer.hpp"
#include "verif/transition_system.hpp"

namespace neo
{

struct WalkOptions
{
    /** Independent walks (K). */
    std::uint64_t walks = 64;
    /** Rule firings per walk before it is abandoned (D). */
    std::uint64_t depth = 256;
    /** Master seed; walk i uses a stream derived from (seed, i). */
    std::uint64_t seed = 1;
    /** Worker threads over the walk indices; the reported violation
     *  is thread-count independent (lowest violating walk wins). */
    unsigned threads = 1;
    /** Crash-safe checkpointing (checkpoint.hpp); nullptr disables.
     *  Walks are the checkpoint unit: a snapshot records which walk
     *  indices completed (plus their counters and any violations), so
     *  a resumed run reruns only the walks that were in flight — the
     *  per-walk RNG streams are pure functions of (seed, index), which
     *  makes the resumed totals identical to an uninterrupted run. */
    const CheckpointConfig *checkpoint = nullptr;
};

struct WalkResult
{
    /** Verified here means "survived the walk budget", NOT proved. */
    VerifStatus status = VerifStatus::Verified;
    std::string violatedInvariant;
    /** Rule indices (into ts.rules()) from the initial state to the
     *  violating state; replayable via replayTrace(). */
    std::vector<std::uint32_t> trace;
    /** The same trace as rule names, for reporting. */
    std::vector<std::string> traceNames;
    /** Human-readable violating state. */
    std::string badState;
    /** Index of the violating walk (meaningful on violation). */
    std::uint64_t walkIndex = 0;
    /** Walks actually run to completion or violation. */
    std::uint64_t walksRun = 0;
    /** Total rule firings across all walks (states visited, counting
     *  revisits — walks keep no visited set). */
    std::uint64_t stepsTaken = 0;
    /** Walks that ran out of enabled rules before the depth bound. */
    std::uint64_t deadEnds = 0;
    double seconds = 0.0;
    /** The run restored a snapshot before walking. */
    bool resumed = false;
    /** Completed walks restored from the snapshot (when resumed). */
    std::uint64_t restoredWalks = 0;
    /** Snapshots written during this run (periodic + final). */
    std::uint64_t checkpointsWritten = 0;
    /** Serialized size of the most recent snapshot, bytes. */
    std::uint64_t lastSnapshotBytes = 0;
    /** Guard predicates physically evaluated (see ExploreResult). */
    std::uint64_t guardEvals = 0;
    /** Guards the candidate table ruled out (see ExploreResult). */
    std::uint64_t guardEvalsSkipped = 0;
    /** Steps whose post-effect state the CanonicalCheck found
     *  already canonical. */
    std::uint64_t canonIdentityHits = 0;
};

/** Outcome of replaying a rule-index trace from the initial state. */
struct ReplayResult
{
    /** Every step's guard held at the point it fired. */
    bool valid = false;
    /** First invariant failing in the final state ("" if none). */
    std::string violatedInvariant;
    /** State after the last replayed step. */
    VState finalState;
    /** Steps applied before an invalid guard stopped the replay. */
    std::size_t stepsApplied = 0;
};

/**
 * Deterministically replay @p trace through @p ts (canonicalizing
 * after each step exactly like the explorers), firing each rule only
 * if its guard holds. Used by the shrinker's validation oracle and by
 * the falsification tests to prove counterexamples are real.
 */
ReplayResult replayTrace(const TransitionSystem &ts,
                         const std::vector<std::uint32_t> &trace);

/**
 * K-walk random falsifier.
 */
class RandomWalkExplorer
{
  public:
    RandomWalkExplorer(const TransitionSystem &ts, WalkOptions opt)
        : ts_(ts), opt_(opt)
    {
    }

    /** Run the budget; returns the lowest-walk violation, if any. */
    WalkResult run() const;

  private:
    const TransitionSystem &ts_;
    WalkOptions opt_;
};

/** Convenience wrapper. */
WalkResult walkExplore(const TransitionSystem &ts,
                       const WalkOptions &opt);

} // namespace neo

#endif // NEO_VERIF_RANDOM_WALK_HPP
