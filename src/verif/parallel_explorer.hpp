/**
 * @file
 * Sharded parallel explicit-state reachability.
 *
 * N worker threads expand the frontier concurrently against a visited
 * set split into 64 shards by canonical-state hash; each shard is an
 * independently locked hash table, so insertions from different
 * workers rarely contend. Every worker owns a bounded lock-free MPMC
 * ring (mpmc_ring.hpp) as its frontier — overflow spills into a
 * mutex-guarded deque so boundedness never deadlocks work-stealing —
 * and steals from its neighbours' rings when empty (PReach-style
 * distributed exploration, collapsed onto one address space). Each
 * dequeued state is expanded in a batch: all enabled rules fire
 * through the precompiled flat guard/effect tables (CompiledRules,
 * transition_system.hpp) into per-worker scratch, the successors are
 * interned shard-group-at-a-time under one lock acquisition per
 * group, and the surviving work is published to the ring once.
 * DESIGN.md module 19 carries the full happens-before argument.
 *
 * Equivalence contract with the sequential explorer (locked in by
 * tests/test_parallel_explorer.cpp): at a fixpoint, the set of
 * visited canonical states is identical — each state is inserted into
 * exactly one shard and expanded exactly once — so statesExplored,
 * transitionsFired, ruleFires, invariantChecks and the final status
 * are equal for any thread count. What is NOT bit-identical across
 * thread counts: the discovery order of
 * states (on_state callback order), the counterexample trace (any
 * predecessor-chain of the first violation discovered is reported;
 * parallel expansion order is only approximately breadth-first), and
 * timing-dependent LimitExceeded cut points — though the maxStates
 * bound itself is exact: a token budget admits fresh states one
 * insertion at a time, so the run stops at maxStates even mid-batch.
 */

#ifndef NEO_VERIF_PARALLEL_EXPLORER_HPP
#define NEO_VERIF_PARALLEL_EXPLORER_HPP

#include "verif/explorer.hpp"

namespace neo
{

/**
 * Run parallel reachability with limits.threads workers.
 *
 * Called through explore() when limits.threads > 1; callable directly
 * for tests. Parameters match explore(); on_state is serialized under
 * a mutex.
 */
ExploreResult exploreParallel(const TransitionSystem &ts,
                              const ExploreLimits &limits,
                              bool detect_deadlock = false,
                              bool keep_trace = true,
                              const std::function<void(const VState &)> &
                                  on_state = {});

} // namespace neo

#endif // NEO_VERIF_PARALLEL_EXPLORER_HPP
