/**
 * @file
 * Partitioned parallel explicit-state reachability.
 *
 * N worker threads split the state space by hash, as in Stern and
 * Dill's parallel Murphi and in PReach, but into 4N partitions rather
 * than N: canonical state s belongs to partition stateHash(s) % 4N.
 * Each partition keeps its own arena-interned StateStore, the
 * predecessor links of its states and a FIFO frontier. A worker leases
 * one free partition at a time, expands up to 256 of its states and
 * lets it go, so a worker on a slow or shared CPU serves fewer
 * partitions instead of holding back a fixed share of the state
 * space. Every successor is fired through the precompiled flat
 * guard/effect tables (CompiledRules, transition_system.hpp),
 * canonicalized, hashed and appended to a 64-record batch for its
 * partition: a full batch for the leased partition is interned in
 * place, one for another partition goes into that partition's inbox
 * with a single mutex acquisition. A worker that finds no partition
 * to serve sends its partial batches; whoever leases a partition
 * interns its arriving batches and hands each emptied buffer back to
 * its sender. One atomic counting active workers plus batches in
 * transit detects the fixpoint. DESIGN.md module 19 carries the
 * happens-before argument.
 *
 * Equivalence contract with the sequential explorer (locked in by
 * tests/test_parallel_explorer.cpp): at a fixpoint, the set of
 * visited canonical states is identical — each state is interned in
 * exactly one partition and expanded exactly once — so statesExplored,
 * transitionsFired, ruleFires, invariantChecks, guardEvals,
 * guardEvalsSkipped, canonIdentityHits and the final status are equal
 * for any thread count. What is NOT bit-identical across thread
 * counts: the discovery order of states (on_state callback order),
 * the counterexample trace (any predecessor chain of the smallest
 * violation discovered; parallel expansion order is only
 * approximately breadth-first), and timing-dependent LimitExceeded cut
 * points — though the maxStates bound itself is exact: a token budget
 * reserved once per batch, with a one-token slow path near the bound,
 * stops the run at maxStates even mid-batch.
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
