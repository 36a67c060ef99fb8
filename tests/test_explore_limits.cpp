/**
 * @file
 * Directed boundary tests for ExploreLimits in BOTH explorers.
 *
 * The §4 methodology study runs Cubicle-style bounded sessions (the
 * paper's 2-day / 50 GB budget); our analogue must be exact at the
 * boundary: a budget equal to the reachable count stops with
 * LimitExceeded (the bound check fires while the frontier is still
 * nonempty), one state more verifies, a zero time budget stops
 * immediately, and a limit-exceeded run must NEVER report a spurious
 * violation — its violatedInvariant and trace stay empty even on
 * models that do contain a reachable violation past the bound.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "verif/explorer.hpp"
#include "verif/models/mutants.hpp"
#include "verif/parallel_explorer.hpp"

using namespace neo;
using neo::verif::findMutant;
using neo::verif::Mutant;

namespace
{

/** x steps 0..max and wraps: exactly max+1 reachable states. */
TransitionSystem
counterSystem(std::uint8_t max)
{
    TransitionSystem ts;
    const auto x = ts.addVar("x", 0);
    ts.addRule(
        "inc", ActionKind::Internal,
        [x, max](const VState &s) { return s[x] < max; },
        [x](VState &s) { ++s[x]; });
    ts.addRule(
        "wrap", ActionKind::Internal,
        [x, max](const VState &s) { return s[x] == max; },
        [x](VState &s) { s[x] = 0; });
    ts.addInvariant("True", [](const VState &) { return true; });
    return ts;
}

constexpr std::uint64_t kReach = 10; // counterSystem(9)

ExploreLimits
limitsWith(unsigned threads)
{
    ExploreLimits lim;
    lim.threads = threads;
    lim.maxStates = 1'000'000;
    lim.maxSeconds = 60.0;
    lim.maxMemoryBytes = 0;
    return lim;
}

ExploreResult
run(const TransitionSystem &ts, const ExploreLimits &lim)
{
    return lim.threads > 1 ? exploreParallel(ts, lim)
                           : explore(ts, lim);
}

void
expectNoSpuriousViolation(const ExploreResult &r)
{
    EXPECT_EQ(r.status, VerifStatus::LimitExceeded);
    EXPECT_TRUE(r.violatedInvariant.empty())
        << "limit-exceeded run reported invariant "
        << r.violatedInvariant;
    EXPECT_TRUE(r.trace.empty());
    EXPECT_TRUE(r.badState.empty());
}

class ExploreLimitsBoundary
    : public ::testing::TestWithParam<unsigned>
{
};

} // namespace

TEST_P(ExploreLimitsBoundary, MaxStatesEqualToReachableIsExceeded)
{
    TransitionSystem ts = counterSystem(9);
    ExploreLimits lim = limitsWith(GetParam());
    lim.maxStates = kReach;
    const ExploreResult r = run(ts, lim);
    expectNoSpuriousViolation(r);
    EXPECT_LE(r.statesExplored, kReach);
}

TEST_P(ExploreLimitsBoundary, MaxStatesOnePastReachableVerifies)
{
    TransitionSystem ts = counterSystem(9);
    ExploreLimits lim = limitsWith(GetParam());
    lim.maxStates = kReach + 1;
    const ExploreResult r = run(ts, lim);
    EXPECT_EQ(r.status, VerifStatus::Verified);
    EXPECT_EQ(r.statesExplored, kReach);
}

/** Regression for the batched-firing engines: one expansion of the
 *  initial state fires a 16-wide fan of successors in a single batch,
 *  and a budget smaller than the fan must cut the batch mid-way —
 *  exactly maxStates states explored, never maxStates + batch size.
 *  (Sequentially the partial batch is rolled back and the item
 *  re-queued; in parallel a token budget admits fresh states one
 *  insertion at a time.) */
TEST_P(ExploreLimitsBoundary, MaxStatesBoundaryHoldsMidBatch)
{
    constexpr int kWidth = 16;
    TransitionSystem ts;
    const auto x = ts.addVar("x", 0);
    for (int k = 1; k <= kWidth; ++k) {
        ts.addRule(
            "fan" + std::to_string(k), ActionKind::Internal,
            [x](const VState &s) { return s[x] == 0; },
            [x, k](VState &s) {
                s[x] = static_cast<std::uint8_t>(k);
            });
    }
    ts.addInvariant("True", [](const VState &) { return true; });

    for (const std::uint64_t cap : {2u, 5u, 9u, 16u}) {
        ExploreLimits lim = limitsWith(GetParam());
        lim.maxStates = cap;
        const ExploreResult r = run(ts, lim);
        expectNoSpuriousViolation(r);
        EXPECT_EQ(r.statesExplored, cap)
            << "budget " << cap << " not exact mid-batch";
    }
}

TEST_P(ExploreLimitsBoundary, ZeroSecondsStopsImmediately)
{
    TransitionSystem ts = counterSystem(9);
    ExploreLimits lim = limitsWith(GetParam());
    lim.maxSeconds = 0.0;
    const ExploreResult r = run(ts, lim);
    expectNoSpuriousViolation(r);
}

TEST_P(ExploreLimitsBoundary, TinyMemoryBoundIsExceeded)
{
    TransitionSystem ts = counterSystem(9);
    ExploreLimits lim = limitsWith(GetParam());
    lim.maxMemoryBytes = 1;
    const ExploreResult r = run(ts, lim);
    expectNoSpuriousViolation(r);
}

TEST_P(ExploreLimitsBoundary, ZeroMemoryBoundMeansUnbounded)
{
    TransitionSystem ts = counterSystem(9);
    ExploreLimits lim = limitsWith(GetParam());
    lim.maxMemoryBytes = 0;
    const ExploreResult r = run(ts, lim);
    EXPECT_EQ(r.status, VerifStatus::Verified);
    EXPECT_GT(r.memoryBytes, 0u);
}

/** A model with a REAL reachable violation, bounded so tightly the
 *  explorer stops before reaching it: the answer must be
 *  LimitExceeded with empty violation fields, never a half-baked
 *  counterexample. */
TEST_P(ExploreLimitsBoundary, LimitBeforeViolationReportsNoViolation)
{
    const Mutant *m = findMutant("dir_grants_E_with_sharers");
    ASSERT_NE(m, nullptr);
    ModelShape shape;
    TransitionSystem ts = m->build(shape);

    ExploreLimits lim = limitsWith(GetParam());
    const ExploreResult full = run(ts, lim);
    ASSERT_EQ(full.status, VerifStatus::InvariantViolated);

    // The initial state is clean, so a one-state budget always stops
    // before any violation can be discovered.
    lim.maxStates = 1;
    const ExploreResult r = run(ts, lim);
    expectNoSpuriousViolation(r);
}

TEST_P(ExploreLimitsBoundary, ViolationBeatsSimultaneousLimit)
{
    // Budget exactly at the violation frontier: whichever fires, the
    // status must be decisive — either a genuine counterexample or a
    // clean LimitExceeded — never a mix.
    const Mutant *m = findMutant("leaf_silent_upgrade");
    ASSERT_NE(m, nullptr);
    ModelShape shape;
    TransitionSystem ts = m->build(shape);
    for (std::uint64_t cap = 2; cap <= 6; ++cap) {
        ExploreLimits lim = limitsWith(GetParam());
        lim.maxStates = cap;
        const ExploreResult r = run(ts, lim);
        if (r.status == VerifStatus::InvariantViolated) {
            EXPECT_FALSE(r.violatedInvariant.empty());
            EXPECT_FALSE(r.trace.empty());
        } else {
            expectNoSpuriousViolation(r);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    SequentialAndParallelAllTiers, ExploreLimitsBoundary,
    ::testing::Values(1u, 2u, 4u),
    // The `_plain` suffix keeps the instance names stable from when
    // the store had more than one tier.
    [](const auto &info) {
        return "threads" + std::to_string(info.param) + "_plain";
    });
