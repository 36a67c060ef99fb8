/**
 * @file
 * Explicit-state reachability with invariant checking.
 *
 * BFS over the transition system's state graph with a canonicalizing
 * symmetry reduction (identical Neo leaves are interchangeable, §2.1),
 * counterexample trace reconstruction, and the time/state/memory
 * bounds the paper's §4 methodology study needs (Cubicle was run with
 * a 2-day / 50 GB bound; we scale the bounds to this machine and
 * report EXCEEDED the same way).
 */

#ifndef NEO_VERIF_EXPLORER_HPP
#define NEO_VERIF_EXPLORER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "verif/state_store.hpp"
#include "verif/transition_system.hpp"

namespace neo
{

struct CheckpointConfig; // checkpoint.hpp

/** Default state bound. ExploreLimits::maxStates values below this
 *  count as "the caller told us the expected scale" and pre-size the
 *  visited tables and work queues accordingly. */
inline constexpr std::uint64_t kDefaultMaxStates = 20'000'000;

struct ExploreLimits
{
    std::uint64_t maxStates = kDefaultMaxStates;
    double maxSeconds = 120.0;
    /** Live-memory bound over the visited set, trace structures,
     *  frontier and (when checkpointing) the snapshot write buffer
     *  (the paper's 50 GB analogue); 0 = unbounded. */
    std::uint64_t maxMemoryBytes = 0;
    /** Worker threads. 1 runs the sequential BFS below; >1 runs the
     *  sharded parallel explorer (parallel_explorer.hpp), which
     *  reaches the same fixpoint with the same state/transition
     *  counts but may report a different (equally valid)
     *  counterexample trace. */
    unsigned threads = 1;
    /** Crash-safe checkpointing (checkpoint.hpp); nullptr disables.
     *  With a config, the run writes periodic CRC-guarded snapshots,
     *  drains to a final snapshot on SIGINT/SIGTERM (returning
     *  Interrupted), degrades gracefully under memory pressure, and
     *  can resume an earlier snapshot to the identical fixpoint. */
    const CheckpointConfig *checkpoint = nullptr;
    /** Test-only state-hash override (forced-collision suites), used
     *  by both engines wherever they hash a state; nullptr uses
     *  stateHash(). */
    StateStore::HashFn hash = nullptr;
};

/** Hash functor over state bytes, delegating to stateHash()
 *  (state_store.hpp) so `unordered_*<VState, …>` containers agree
 *  with the StateStore fingerprints and shard selection. */
struct VStateHash
{
    std::size_t
    operator()(const VState &s) const
    {
        return stateHash(s.data(), s.size());
    }
};

/** Visited-table pre-size hint: states to reserve up-front when the
 *  caller set an explicit maxStates bound (capped so a huge bound on
 *  a small model does not balloon the footprint); 0 = grow lazily. */
std::uint64_t explorePresizeHint(const ExploreLimits &limits);

enum class VerifStatus
{
    Verified,          ///< fixpoint reached, all invariants hold
    InvariantViolated, ///< a reachable state breaks an invariant
    Deadlock,          ///< a non-final state with no enabled rule
    LimitExceeded,     ///< state/time bound hit before the fixpoint
    Interrupted,       ///< stopped by SIGINT/SIGTERM; snapshot saved,
                       ///< resumable (exit code 5 in neoverify)
};

const char *verifStatusName(VerifStatus s);

struct ExploreResult
{
    VerifStatus status = VerifStatus::Verified;
    std::uint64_t statesExplored = 0;
    std::uint64_t transitionsFired = 0;
    double seconds = 0.0;
    /** Rough live-memory footprint of the visited set + frontier. */
    std::uint64_t memoryBytes = 0;
    std::string violatedInvariant;
    /** Rule names from the initial state to the violation. */
    std::vector<std::string> trace;
    /** Human-readable violating state. */
    std::string badState;
    /** Per-rule firing counts (indexed like ts.rules()); a zero for a
     *  feature-enabled rule means dead logic in the model. */
    std::vector<std::uint64_t> ruleFires;
    /** Invariant predicate evaluations (a state checked against k
     *  invariants before the first failure counts k). Deterministic
     *  for the sequential engine — part of the golden fixtures — and
     *  equal to statesExplored * |invariants| for any Verified run,
     *  which the parallel differential suite asserts too. */
    std::uint64_t invariantChecks = 0;
    /** The run was restored from a snapshot before exploring. */
    bool resumed = false;
    /** States restored from the snapshot (when resumed). */
    std::uint64_t restoredStates = 0;
    /** Predecessor links were shed under memory pressure; counts stay
     *  exact but no counterexample trace can be reconstructed. */
    bool degradedTrace = false;
    /** Snapshots written during this run (periodic + final). */
    std::uint64_t checkpointsWritten = 0;
    /** Serialized size of the most recent snapshot, bytes. */
    std::uint64_t lastSnapshotBytes = 0;
    /** Guard predicates actually evaluated: the candidates of every
     *  expanded state (RuleDepIndex). */
    std::uint64_t guardEvals = 0;
    /** Guards the candidate table ruled out: rules minus candidates,
     *  summed over the expanded states. */
    std::uint64_t guardEvalsSkipped = 0;
    /** Canonicalizations the model's CanonicalCheck skipped because
     *  the successor was already its own representative. */
    std::uint64_t canonIdentityHits = 0;
};

/**
 * Run reachability: BFS when limits.threads == 1, the sharded
 * parallel explorer otherwise.
 *
 * @param ts the model
 * @param limits bounds; exceeding them yields LimitExceeded
 * @param detect_deadlock report states with no outgoing transitions
 * @param keep_trace store predecessors for counterexamples (costs
 *        memory; disable for capacity experiments)
 * @param on_state called once per newly discovered canonical state;
 *        with threads > 1 calls are serialized under a mutex but
 *        arrive in a nondeterministic order
 */
ExploreResult explore(const TransitionSystem &ts,
                      const ExploreLimits &limits,
                      bool detect_deadlock = false,
                      bool keep_trace = true,
                      const std::function<void(const VState &)> &
                          on_state = {});

} // namespace neo

#endif // NEO_VERIF_EXPLORER_HPP
