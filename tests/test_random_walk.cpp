/**
 * @file
 * Differential falsification suite (ctest label: fuzz).
 *
 * The mutation corpus is the oracle's oracle: every deliberately
 * broken protocol variant must be caught — by the random-walk
 * falsifier within its documented seed/budget, by exhaustive
 * sequential BFS, and by the parallel explorer — and the
 * violated invariant must match the mutant's tag in all three
 * engines. Conversely, no unmutated bundled model may be flagged
 * under the same walk budget. On top of that: raw and shrunk
 * counterexamples must replay to the tagged violation, shrinking must
 * cut the corpus-average trace length by at least half, walk results
 * must be bit-identical across repeat runs and thread counts, and two
 * golden mutants lock their shrunk length + invariant under the
 * documented seed so silent walker/shrinker drift is caught.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/cli_parse.hpp"
#include "verif/explorer.hpp"
#include "verif/models/mutants.hpp"
#include "verif/parallel_explorer.hpp"
#include "verif/random_walk.hpp"
#include "verif/shrink.hpp"

using namespace neo;
using neo::verif::BundledModel;
using neo::verif::bundledModels;
using neo::verif::findMutant;
using neo::verif::Mutant;
using neo::verif::mutantRegistry;

namespace
{

WalkOptions
budgetOf(const Mutant &m)
{
    WalkOptions w;
    w.walks = m.budgetWalks;
    w.depth = m.budgetDepth;
    w.seed = m.budgetSeed;
    return w;
}

/** The walk budget unmutated models must survive: the corpus-wide
 *  default budget (every mutant's documented budget is at least
 *  this). */
WalkOptions
cleanBudget()
{
    WalkOptions w;
    w.walks = 64;
    w.depth = 256;
    w.seed = 1;
    return w;
}

ExploreLimits
bfsLimits(unsigned threads)
{
    ExploreLimits lim;
    lim.maxStates = 2'000'000;
    lim.maxSeconds = 60.0;
    lim.threads = threads;
    return lim;
}

} // namespace

TEST(MutantCorpus, HasAtLeastEightMutants)
{
    EXPECT_GE(mutantRegistry().size(), 8u);
}

TEST(MutantCorpus, NamesAreUniqueAndTagsExist)
{
    for (const Mutant &m : mutantRegistry()) {
        SCOPED_TRACE(m.name);
        EXPECT_EQ(findMutant(m.name), &m);
        ModelShape shape;
        TransitionSystem ts = m.build(shape);
        bool tagged = false;
        for (const auto &inv : ts.invariants())
            tagged = tagged || inv.name == m.violates;
        EXPECT_TRUE(tagged)
            << "mutant tags invariant '" << m.violates
            << "' which the mutated model does not declare";
    }
    EXPECT_EQ(findMutant("no_such_mutant"), nullptr);
}

/** Every mutant is caught by the walker within its documented budget,
 *  and the violated invariant matches the tag. */
TEST(MutantCorpus, WalkerCatchesEveryMutantWithinBudget)
{
    for (const Mutant &m : mutantRegistry()) {
        SCOPED_TRACE(m.name);
        ModelShape shape;
        TransitionSystem ts = m.build(shape);
        const WalkResult w = walkExplore(ts, budgetOf(m));
        ASSERT_EQ(w.status, VerifStatus::InvariantViolated);
        EXPECT_EQ(w.violatedInvariant, m.violates);
        EXPECT_FALSE(w.trace.empty());
        EXPECT_EQ(w.trace.size(), w.traceNames.size());

        // The raw counterexample replays from the initial state and
        // lands in a state violating the tagged invariant.
        const ReplayResult rr = replayTrace(ts, w.trace);
        EXPECT_TRUE(rr.valid);
        EXPECT_EQ(rr.stepsApplied, w.trace.size());
        EXPECT_EQ(rr.violatedInvariant, m.violates);
    }
}

/** Exhaustive BFS agrees: same mutants, same violated invariant. */
TEST(MutantCorpus, SequentialBfsCatchesEveryMutant)
{
    for (const Mutant &m : mutantRegistry()) {
        SCOPED_TRACE(m.name);
        ModelShape shape;
        TransitionSystem ts = m.build(shape);
        const ExploreResult r = explore(ts, bfsLimits(1));
        ASSERT_EQ(r.status, VerifStatus::InvariantViolated);
        EXPECT_EQ(r.violatedInvariant, m.violates);
        EXPECT_FALSE(r.trace.empty());
    }
}

/** The parallel explorer agrees too. */
TEST(MutantCorpus, ParallelExplorerCatchesEveryMutant)
{
    for (const Mutant &m : mutantRegistry()) {
        SCOPED_TRACE(m.name);
        ModelShape shape;
        TransitionSystem ts = m.build(shape);
        const ExploreResult r = exploreParallel(ts, bfsLimits(2));
        ASSERT_EQ(r.status, VerifStatus::InvariantViolated);
        EXPECT_EQ(r.violatedInvariant, m.violates);
    }
}

/** No false alarms: every unmutated bundled model survives the
 *  corpus walk budget clean. */
TEST(MutantCorpus, BundledModelsSurviveWalkBudgetClean)
{
    ASSERT_GE(bundledModels().size(), 4u);
    for (const BundledModel &b : bundledModels()) {
        SCOPED_TRACE(b.name);
        ModelShape shape;
        TransitionSystem ts = b.build(shape);
        const WalkResult w = walkExplore(ts, cleanBudget());
        EXPECT_EQ(w.status, VerifStatus::Verified)
            << "false alarm: " << w.violatedInvariant;
        EXPECT_EQ(w.walksRun, cleanBudget().walks);
    }
}

/** Shrunk traces still replay to the tagged violation, and shrinking
 *  removes at least half the raw firings on corpus average. */
TEST(MutantCorpus, ShrinkingHalvesTracesAndPreservesViolation)
{
    double ratioSum = 0.0;
    std::size_t counted = 0;
    for (const Mutant &m : mutantRegistry()) {
        SCOPED_TRACE(m.name);
        ModelShape shape;
        TransitionSystem ts = m.build(shape);
        const WalkResult w = walkExplore(ts, budgetOf(m));
        ASSERT_EQ(w.status, VerifStatus::InvariantViolated);

        const ShrinkResult s =
            shrinkTrace(ts, w.trace, w.violatedInvariant);
        EXPECT_EQ(s.rawLength, w.trace.size());
        EXPECT_LE(s.shrunkLength, s.rawLength);
        EXPECT_GE(s.shrunkLength, 1u);

        const ReplayResult rr = replayTrace(ts, s.trace);
        EXPECT_TRUE(rr.valid);
        EXPECT_EQ(rr.stepsApplied, s.trace.size());
        EXPECT_EQ(rr.violatedInvariant, m.violates);

        ratioSum += 1.0 - static_cast<double>(s.shrunkLength) /
                              static_cast<double>(s.rawLength);
        ++counted;
    }
    ASSERT_GT(counted, 0u);
    EXPECT_GE(ratioSum / static_cast<double>(counted), 0.5)
        << "mean shrink reduction fell below 50%";
}

/** Golden-trace regression: two representative mutants lock their
 *  shrunk counterexample length and violated invariant under the
 *  documented seed. A change here means the walker's rule selection,
 *  the seed derivation, or the shrinker changed behaviour — bump
 *  deliberately, never silently. */
TEST(MutantCorpus, GoldenShrunkTraces)
{
    struct Golden
    {
        const char *mutant;
        const char *invariant;
        std::size_t shrunkLength;
    };
    const Golden goldens[] = {
        // §4.2 reject: O-state owner supplies data without ownership
        // transfer (MOESI, N=2), seed 1, 64 walks x depth 256.
        {"owner_supplies_without_transfer", "DirTracksHolders", 7},
        // German-protocol control property, seed 1, same budget.
        {"german_grant_E_with_sharers", "CtrlProp", 8},
    };
    for (const Golden &g : goldens) {
        SCOPED_TRACE(g.mutant);
        const Mutant *m = findMutant(g.mutant);
        ASSERT_NE(m, nullptr);
        ModelShape shape;
        TransitionSystem ts = m->build(shape);
        const WalkResult w = walkExplore(ts, budgetOf(*m));
        ASSERT_EQ(w.status, VerifStatus::InvariantViolated);
        EXPECT_EQ(w.violatedInvariant, g.invariant);
        const ShrinkResult s =
            shrinkTrace(ts, w.trace, w.violatedInvariant);
        EXPECT_EQ(s.shrunkLength, g.shrunkLength);
        EXPECT_EQ(s.violatedInvariant, g.invariant);
    }
}

/** Same seed, same budget -> bit-identical result; and the reported
 *  violation is thread-count independent (lowest walk wins). */
TEST(RandomWalk, DeterministicAcrossRunsAndThreads)
{
    const Mutant *m = findMutant("dir_grants_E_with_sharers");
    ASSERT_NE(m, nullptr);
    ModelShape shape;
    TransitionSystem ts = m->build(shape);

    const WalkResult a = walkExplore(ts, budgetOf(*m));
    const WalkResult b = walkExplore(ts, budgetOf(*m));
    ASSERT_EQ(a.status, VerifStatus::InvariantViolated);
    EXPECT_EQ(a.walkIndex, b.walkIndex);
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.violatedInvariant, b.violatedInvariant);

    WalkOptions threaded = budgetOf(*m);
    threaded.threads = 4;
    const WalkResult c = walkExplore(ts, threaded);
    ASSERT_EQ(c.status, VerifStatus::InvariantViolated);
    EXPECT_EQ(a.walkIndex, c.walkIndex);
    EXPECT_EQ(a.trace, c.trace);
    EXPECT_EQ(a.violatedInvariant, c.violatedInvariant);
}

/** Different master seeds give independent walks (they may both catch
 *  the bug, but the budget bookkeeping must reflect real work). */
TEST(RandomWalk, BudgetBookkeeping)
{
    const Mutant *m = findMutant("leaf_silent_upgrade");
    ASSERT_NE(m, nullptr);
    ModelShape shape;
    TransitionSystem ts = m->build(shape);
    const WalkResult w = walkExplore(ts, budgetOf(*m));
    ASSERT_EQ(w.status, VerifStatus::InvariantViolated);
    EXPECT_LT(w.walkIndex, m->budgetWalks);
    EXPECT_GE(w.walksRun, 1u);
    EXPECT_LE(w.walksRun, m->budgetWalks);
    EXPECT_GE(w.stepsTaken, w.trace.size());
}

/** replayTrace refuses traces whose guards do not hold in sequence —
 *  the shrinker's validity oracle must not silently skip steps. */
TEST(RandomWalk, ReplayRejectsInvalidTrace)
{
    const BundledModel &b = bundledModels().front();
    ModelShape shape;
    TransitionSystem ts = b.build(shape);
    // Find a rule disabled in the initial state; replaying it first
    // must come back invalid with zero steps applied.
    VState init = ts.initialState();
    if (ts.canonicalizer())
        ts.canonicalizer()(init);
    for (std::uint32_t r = 0; r < ts.rules().size(); ++r) {
        if (ts.rules()[r].guard(init))
            continue;
        const ReplayResult rr = replayTrace(ts, {r});
        EXPECT_FALSE(rr.valid);
        EXPECT_EQ(rr.stepsApplied, 0u);
        return;
    }
    GTEST_SKIP() << "model has no initially disabled rule";
}

// ---- strict CLI numeric parsing (the neoverify bugfix) ----

TEST(CliParse, AcceptsPlainDecimals)
{
    std::uint64_t u = 0;
    std::string err;
    EXPECT_TRUE(parseU64("0", u, err));
    EXPECT_EQ(u, 0u);
    EXPECT_TRUE(parseU64("18446744073709551615", u, err));
    EXPECT_EQ(u, UINT64_MAX);
    double d = 0.0;
    EXPECT_TRUE(parseF64("2.5", d, err));
    EXPECT_DOUBLE_EQ(d, 2.5);
    EXPECT_TRUE(parseF64("120", d, err));
    EXPECT_DOUBLE_EQ(d, 120.0);
}

TEST(CliParse, RejectsJunkSignsHexAndOverflow)
{
    std::uint64_t u = 0;
    double d = 0.0;
    std::string err;
    const char *badInts[] = {"",   "abc", "3x",  "-1",  "+1",
                             " 1", "0x10", "1e3", "9.5",
                             "18446744073709551616"};
    for (const char *t : badInts) {
        SCOPED_TRACE(t);
        err.clear();
        EXPECT_FALSE(parseU64(t, u, err));
        EXPECT_FALSE(err.empty());
    }
    const char *badFloats[] = {"", "abc", "1.2.3", "-1.0", "1e3",
                               "nan", "inf"};
    for (const char *t : badFloats) {
        SCOPED_TRACE(t);
        err.clear();
        EXPECT_FALSE(parseF64(t, d, err));
        EXPECT_FALSE(err.empty());
    }
}
