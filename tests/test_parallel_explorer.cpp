/**
 * @file
 * Differential tests locking the partitioned parallel explorer to the
 * sequential BFS: for every bundled model (German, flat closed, flat
 * open across feature configs and instance sizes) the status, the
 * violated-invariant name, the fixpoint state count, the total
 * transitions fired, the per-rule fire counts and the rule-index and
 * canonicalization counters must be identical at 2/3/4/8 worker
 * threads — 3 folds `hash % 4W` onto a non-power of two, 8 runs more
 * workers than most hosts have cores. Violation traces may
 * legitimately differ from the sequential ones, so they are instead
 * replayed through the transition system and must end in a genuinely
 * violating state.
 *
 * Also here: randomized property tests for the symmetry
 * canonicalization (idempotence, leaf-permutation invariance) that
 * state partitioning depends on, and regressions for the memory-bound
 * accounting shared by both exploration modes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "verif/explorer.hpp"
#include "verif/models/flat_closed.hpp"
#include "verif/models/flat_open.hpp"
#include "verif/models/german.hpp"
#include "verif/parametric.hpp"

using namespace neo;
using namespace neo::verif;

namespace
{

const std::vector<unsigned> kThreadCounts = {2, 3, 4, 8};

/** Replay a counterexample trace through the transition system and
 *  require it to end in a state some invariant rejects. */
void
replayTrace(const TransitionSystem &ts,
            const std::vector<std::string> &trace)
{
    ASSERT_FALSE(trace.empty());
    const auto &canon = ts.canonicalizer();
    VState s = ts.initialState();
    if (canon)
        canon(s);
    for (const std::string &step : trace) {
        const TransitionSystem::Rule *rule = nullptr;
        for (const auto &r : ts.rules()) {
            if (r.name == step) {
                rule = &r;
                break;
            }
        }
        ASSERT_NE(rule, nullptr) << "trace names unknown rule " << step;
        ASSERT_TRUE(rule->guard(s)) << "guard false at step " << step;
        rule->effect(s);
        if (canon)
            canon(s);
    }
    bool violated = false;
    for (const auto &inv : ts.invariants())
        violated = violated || !inv.check(s);
    EXPECT_TRUE(violated) << "trace does not reach a violating state";
}

/** Run sequential vs parallel at each of @p threads and assert the
 *  equivalence contract; @p hash overrides the state hash of the
 *  parallel runs. */
void
expectDifferentialMatch(const TransitionSystem &ts,
                        const std::vector<unsigned> &threads =
                            kThreadCounts,
                        StateStore::HashFn hash = nullptr)
{
    const ExploreLimits lim{2'000'000, 120.0};
    const ExploreResult seq = explore(ts, lim, false, true);
    for (unsigned t : threads) {
        SCOPED_TRACE("threads=" + std::to_string(t));
        ExploreLimits plim = lim;
        plim.threads = t;
        plim.hash = hash;
        const ExploreResult par = explore(ts, plim, false, true);
        EXPECT_EQ(par.status, seq.status)
            << verifStatusName(par.status) << " vs "
            << verifStatusName(seq.status);
        EXPECT_EQ(par.violatedInvariant, seq.violatedInvariant);
        if (seq.status == VerifStatus::Verified) {
            EXPECT_EQ(par.statesExplored, seq.statesExplored);
            EXPECT_EQ(par.transitionsFired, seq.transitionsFired);
            EXPECT_EQ(par.ruleFires, seq.ruleFires);
            // A Verified run checked every invariant on every state,
            // exactly once, in both engines.
            EXPECT_EQ(par.invariantChecks, seq.invariantChecks);
            EXPECT_EQ(seq.invariantChecks,
                      seq.statesExplored * ts.invariants().size());
            // Each state is expanded once, by whichever worker
            // serves its partition, and each firing canonicalized
            // once: the worker-local counters must add up to the
            // sequential ones.
            EXPECT_EQ(par.guardEvals, seq.guardEvals);
            EXPECT_EQ(par.guardEvalsSkipped, seq.guardEvalsSkipped);
            EXPECT_EQ(par.canonIdentityHits, seq.canonIdentityHits);
        } else if (seq.status == VerifStatus::InvariantViolated) {
            replayTrace(ts, par.trace);
        }
    }
}

TEST(ParallelDifferential, German)
{
    for (std::size_t n : {2u, 3u, 4u}) {
        SCOPED_TRACE("N=" + std::to_string(n));
        ModelShape shape;
        expectDifferentialMatch(buildGermanModel(n, shape));
    }
}

TEST(ParallelDifferential, GermanLargerInstancesAtFourThreads)
{
    // The larger German instances (up to 549,880 states at N=6),
    // where workers hand over full batches rather than partial ones.
    for (std::size_t n : {4u, 5u, 6u}) {
        SCOPED_TRACE("N=" + std::to_string(n));
        ModelShape shape;
        expectDifferentialMatch(buildGermanModel(n, shape), {4});
    }
}

TEST(ParallelDifferential, OpenNeoMESIN4)
{
    // 402,101 states: enough traffic between partitions that every
    // worker fills and hands over thousands of batches.
    ModelShape shape;
    expectDifferentialMatch(
        buildOpenModel(4, VerifFeatures::neoMESI(),
                       CompositionMethod::Modified, shape));
}

/** stateHash rounded down to a multiple of 3360 = lcm(1..8, 32) with
 *  its high half kept: the fingerprints stay spread, but `hash % 4W`
 *  is 0 for every thread count tested, so partition 0 holds every
 *  state. */
std::uint64_t
partitionZeroHash(const std::uint8_t *p, std::size_t n)
{
    const std::uint64_t h = stateHash(p, n) & 0xffffffff00000000ULL;
    return h - h % 3360;
}

TEST(ParallelDifferential, SkewedOwnershipReachesTheExactFixpoint)
{
    // Every successor goes to one partition, which one worker at a
    // time serves while the others find nothing else to lease:
    // termination must still be detected, at the exact fixpoint.
    ModelShape shape;
    const TransitionSystem ts =
        buildClosedModel(3, VerifFeatures::neoMESI(), shape);
    expectDifferentialMatch(ts, kThreadCounts, &partitionZeroHash);
}

TEST(ParallelDifferential, FlatClosedFeatureLadder)
{
    struct Feat
    {
        const char *name;
        VerifFeatures f;
    };
    const Feat feats[] = {
        {"msi", VerifFeatures::baselineMSI()},
        {"msi-incl", VerifFeatures::inclusiveMSI()},
        {"neomesi", VerifFeatures::neoMESI()},
        {"moesi", VerifFeatures::withOwned()},
    };
    for (const Feat &feat : feats) {
        for (std::size_t n : {2u, 3u}) {
            SCOPED_TRACE(std::string(feat.name) + "/N=" +
                         std::to_string(n));
            ModelShape shape;
            expectDifferentialMatch(
                buildClosedModel(n, feat.f, shape));
        }
    }
}

TEST(ParallelDifferential, FlatOpenBothMethodologies)
{
    struct Cfg
    {
        const char *name;
        VerifFeatures f;
        CompositionMethod m;
        std::size_t n;
    };
    const Cfg cfgs[] = {
        {"msi/original/N=2", VerifFeatures::baselineMSI(),
         CompositionMethod::Original, 2},
        {"msi/modified/N=3", VerifFeatures::baselineMSI(),
         CompositionMethod::Modified, 3},
        {"neomesi/modified/N=2", VerifFeatures::neoMESI(),
         CompositionMethod::Modified, 2},
        {"neomesi/modified/N=3", VerifFeatures::neoMESI(),
         CompositionMethod::Modified, 3},
    };
    for (const Cfg &cfg : cfgs) {
        SCOPED_TRACE(cfg.name);
        ModelShape shape;
        expectDifferentialMatch(
            buildOpenModel(cfg.n, cfg.f, cfg.m, shape));
    }
}

TEST(ParallelDifferential, NonSiblingViolationFoundAndReplayable)
{
    // The designed-in §4.2.1 composition failure: every thread count
    // must agree on the violated invariant, and each parallel trace —
    // even when it differs from the sequential BFS one — must replay
    // to a genuinely violating state.
    VerifFeatures f = VerifFeatures::neoMESI();
    f.nonSiblingFwd = true;
    for (std::size_t n : {2u, 3u}) {
        SCOPED_TRACE("N=" + std::to_string(n));
        ModelShape shape;
        const TransitionSystem ts =
            buildOpenModel(n, f, CompositionMethod::Modified, shape);
        expectDifferentialMatch(ts);
    }
}

TEST(ParallelDifferential, DeadlockDetected)
{
    // A chain with no rule out of its final state deadlocks in both
    // modes when detection is on, and verifies when it is off.
    auto build = [] {
        TransitionSystem ts;
        const auto x = ts.addVar("x", 0);
        ts.addRule(
            "step", ActionKind::Internal,
            [x](const VState &s) { return s[x] < 40; },
            [x](VState &s) { ++s[x]; });
        return ts;
    };
    for (unsigned t : kThreadCounts) {
        SCOPED_TRACE("threads=" + std::to_string(t));
        ExploreLimits lim{1000, 30.0};
        lim.threads = t;
        const TransitionSystem ts = build();
        EXPECT_EQ(explore(ts, lim, true).status,
                  VerifStatus::Deadlock);
        EXPECT_EQ(explore(ts, lim, false).status,
                  VerifStatus::Verified);
    }
}

TEST(ParallelDifferential, OnStateSeesEveryState)
{
    // The serialized callback fires exactly once per canonical state.
    ModelShape shape;
    const TransitionSystem ts =
        buildClosedModel(3, VerifFeatures::neoMESI(), shape);
    ExploreLimits lim{2'000'000, 60.0};
    lim.threads = 4;
    std::uint64_t visits = 0;
    const ExploreResult r = explore(ts, lim, false, true,
                                    [&](const VState &) { ++visits; });
    EXPECT_EQ(r.status, VerifStatus::Verified);
    EXPECT_EQ(visits, r.statesExplored);
}

TEST(ParallelDifferential, ParametricSweepMatches)
{
    // The cutoff-convergence sweep must reach the same verdict,
    // cutoff and view-set sizes when each instance explores in
    // parallel internally.
    ExploreLimits lim{2'000'000, 60.0};
    const ParametricResult seq =
        verifyParametric(germanModelFactory(), 1, 5, lim);
    lim.threads = 4;
    const ParametricResult par =
        verifyParametric(germanModelFactory(), 1, 5, lim);
    EXPECT_EQ(par.status, seq.status);
    EXPECT_EQ(par.converged, seq.converged);
    EXPECT_EQ(par.cutoff, seq.cutoff);
    EXPECT_EQ(par.abstractSetSizes, seq.abstractSetSizes);
    ASSERT_EQ(par.perInstance.size(), seq.perInstance.size());
    for (std::size_t i = 0; i < seq.perInstance.size(); ++i)
        EXPECT_EQ(par.perInstance[i].statesExplored,
                  seq.perInstance[i].statesExplored);
}

TEST(ParallelDifferential, MemoryBoundTriggersInBothModes)
{
    // Regression for the memoryBytes accounting fix: a bound tight
    // enough to trip the (now trace-inclusive) estimate must yield
    // LimitExceeded in the sequential AND the parallel mode.
    ModelShape shape;
    const TransitionSystem ts =
        buildClosedModel(3, VerifFeatures::neoMESI(), shape);
    ExploreLimits lim{2'000'000, 60.0};
    lim.maxMemoryBytes = 20'000; // ~150 states' worth
    EXPECT_EQ(explore(ts, lim, false, true).status,
              VerifStatus::LimitExceeded);
    for (unsigned t : kThreadCounts) {
        SCOPED_TRACE("threads=" + std::to_string(t));
        ExploreLimits plim = lim;
        plim.threads = t;
        EXPECT_EQ(explore(ts, plim, false, true).status,
                  VerifStatus::LimitExceeded);
    }
}

// ---------------------------------------------------------------
// Canonicalization property/stress tests. Ownership hashes canonical
// representatives, so correctness of the parallel explorer leans on
// the canonicalizer being (a) idempotent and (b) invariant under any
// permutation of the identical leaves.
// ---------------------------------------------------------------

unsigned
propertySeed()
{
    if (const char *env = std::getenv("NEO_CANON_SEED"))
        return static_cast<unsigned>(
            std::strtoul(env, nullptr, 10));
    return std::random_device{}();
}

void
checkCanonicalizerProperties(const TransitionSystem &ts,
                             const ModelShape &shape,
                             const char *name)
{
    const unsigned seed = propertySeed();
    std::printf("[canon-property] %s seed=%u "
                "(set NEO_CANON_SEED=%u to reproduce)\n",
                name, seed, seed);
    std::mt19937 rng(seed);
    const auto &canon = ts.canonicalizer();
    ASSERT_TRUE(static_cast<bool>(canon));
    const std::size_t nvars = ts.numVars();
    ASSERT_EQ(nvars, shape.sharedVars +
                         shape.numLeaves * shape.leafBlockSize);
    std::vector<std::size_t> perm(shape.numLeaves);
    for (int iter = 0; iter < 300; ++iter) {
        // Arbitrary (not necessarily reachable) state: block sorting
        // must canonicalize any byte pattern consistently.
        VState s(nvars);
        for (auto &b : s)
            b = static_cast<std::uint8_t>(rng() % 8);

        VState c1 = s;
        canon(c1);
        VState c2 = c1;
        canon(c2);
        ASSERT_EQ(c1, c2) << "not idempotent (iter " << iter
                          << ", seed " << seed << ")";

        std::iota(perm.begin(), perm.end(), std::size_t{0});
        std::shuffle(perm.begin(), perm.end(), rng);
        VState p = s;
        for (std::size_t l = 0; l < shape.numLeaves; ++l) {
            const auto src =
                shape.sharedVars + perm[l] * shape.leafBlockSize;
            const auto dst =
                shape.sharedVars + l * shape.leafBlockSize;
            std::copy_n(s.begin() + static_cast<long>(src),
                        shape.leafBlockSize,
                        p.begin() + static_cast<long>(dst));
        }
        VState c3 = p;
        canon(c3);
        ASSERT_EQ(c1, c3)
            << "not permutation-invariant (iter " << iter << ", seed "
            << seed << ")";
    }
}

TEST(CanonicalizationProperty, FlatClosed)
{
    for (std::size_t n : {2u, 4u, 7u}) {
        ModelShape shape;
        const TransitionSystem ts =
            buildClosedModel(n, VerifFeatures::neoMESI(), shape);
        checkCanonicalizerProperties(
            ts, shape,
            ("flat_closed/N=" + std::to_string(n)).c_str());
    }
}

TEST(CanonicalizationProperty, FlatOpen)
{
    for (std::size_t n : {2u, 5u}) {
        ModelShape shape;
        const TransitionSystem ts = buildOpenModel(
            n, VerifFeatures::neoMESI(), CompositionMethod::Modified,
            shape);
        checkCanonicalizerProperties(
            ts, shape, ("flat_open/N=" + std::to_string(n)).c_str());
    }
}

TEST(CanonicalizationProperty, German)
{
    for (std::size_t n : {3u, 6u}) {
        ModelShape shape;
        const TransitionSystem ts = buildGermanModel(n, shape);
        checkCanonicalizerProperties(
            ts, shape, ("german/N=" + std::to_string(n)).c_str());
    }
}

} // namespace
