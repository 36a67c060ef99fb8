/**
 * @file
 * The parametric view layer against its reference projection.
 *
 * ViewSet keeps each size-<=2 view as an integer key over two
 * dictionaries; the oracle (view_oracle.hpp) keeps the same views as
 * byte strings in a std::set. Over every reachable state of every
 * bundled parametric model, and over hand-built states at the edges
 * (one leaf, equal leaves, saturated ack counters, unsorted blocks,
 * widths that change with N), both must hold the same views and
 * agree on convergence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "verif/explorer.hpp"
#include "verif/models/flat_closed.hpp"
#include "verif/models/flat_open.hpp"
#include "verif/models/german.hpp"
#include "verif/parametric.hpp"
#include "view_oracle.hpp"

using namespace neo;
using namespace neo::verif;
using neo::test::asSorted;
using neo::test::collectViews;
using neo::test::OracleViews;
using neo::test::ViewBytes;

namespace
{

/**
 * Explore instances from..to as verifyParametric does, one ViewSet
 * per N chained to the previous one, with the oracle beside it: the
 * views must match at every N, and so must "N equals N-1".
 */
void
expectMatchesOracle(const ModelFactory &factory, std::size_t from,
                    std::size_t to)
{
    constexpr unsigned kSaturation = 2;
    std::optional<ViewSet> prev;
    OracleViews prevOracle;
    for (std::size_t n = from; n <= to; ++n) {
        SCOPED_TRACE("N=" + std::to_string(n));
        ModelShape shape;
        const TransitionSystem ts = factory(n, shape);
        ViewSet views(shape, kSaturation, prev ? &*prev : nullptr);
        OracleViews oracle;
        const ExploreResult r =
            explore(ts, ExploreLimits{2'000'000, 120.0}, false, true,
                    [&](const VState &s) {
                        views.add(s);
                        collectViews(s, shape, kSaturation, oracle);
                    });
        ASSERT_EQ(r.status, VerifStatus::Verified);
        EXPECT_EQ(views.size(), oracle.size());
        EXPECT_EQ(views.sortedViews(), asSorted(oracle));
        if (prev) {
            EXPECT_EQ(views == *prev, oracle == prevOracle);
        }
        prev = std::move(views);
        prevOracle = std::move(oracle);
    }
}

/**
 * Parametric toy: N clients, at most one in the critical section.
 * With @p widenShared the model carries N shared variables instead of
 * one, so its shared prefix widens with every N.
 */
ModelFactory
mutexFactory(bool widenShared)
{
    return [widenShared](std::size_t n, ModelShape &shape) {
        TransitionSystem ts;
        const auto lock = ts.addVar("lock", 0);
        shape.sharedVars = widenShared ? n : 1;
        for (std::size_t i = 1; i < shape.sharedVars; ++i)
            ts.addVar("pad" + std::to_string(i), 0);
        shape.numLeaves = n;
        shape.leafBlockSize = 1;
        for (std::size_t i = 0; i < n; ++i) {
            const auto me = ts.addVar("in" + std::to_string(i), 0);
            ts.addRule(
                "enter" + std::to_string(i), ActionKind::Internal,
                [lock](const VState &s) { return s[lock] == 0; },
                [lock, me](VState &s) {
                    s[lock] = 1;
                    s[me] = 1;
                });
            ts.addRule(
                "leave" + std::to_string(i), ActionKind::Internal,
                [me](const VState &s) { return s[me] == 1; },
                [lock, me](VState &s) {
                    s[lock] = 0;
                    s[me] = 0;
                });
        }
        const std::size_t first = shape.sharedVars;
        ts.setCanonicalizer([first, n](VState &s) {
            std::sort(s.begin() + static_cast<long>(first),
                      s.begin() + static_cast<long>(first + n));
        });
        return ts;
    };
}

ModelShape
shapeOf(std::size_t sharedVars, std::size_t numLeaves,
        std::size_t leafBlockSize,
        std::vector<std::size_t> saturated = {})
{
    ModelShape shape;
    shape.sharedVars = sharedVars;
    shape.numLeaves = numLeaves;
    shape.leafBlockSize = leafBlockSize;
    shape.saturatedSharedVars = std::move(saturated);
    return shape;
}

/** Feed @p states to a fresh ViewSet and to the oracle, expect the
 *  same views, and return them. */
std::vector<ViewBytes>
project(const ModelShape &shape, const std::vector<VState> &states,
        unsigned saturation = 2)
{
    ViewSet views(shape, saturation);
    OracleViews oracle;
    for (const VState &s : states) {
        views.add(s);
        collectViews(s, shape, saturation, oracle);
    }
    EXPECT_EQ(views.size(), oracle.size());
    EXPECT_EQ(views.sortedViews(), asSorted(oracle));
    return views.sortedViews();
}

bool
contains(const std::vector<ViewBytes> &views, const ViewBytes &v)
{
    return std::find(views.begin(), views.end(), v) != views.end();
}

// ----------------------------------------------------------------
// Differential: every reachable state of the bundled models.
// ----------------------------------------------------------------

TEST(ViewSetDifferential, GermanN1To4)
{
    expectMatchesOracle(germanModelFactory(), 1, 4);
}

TEST(ViewSetDifferential, ClosedNeoMESIN1To3)
{
    expectMatchesOracle(closedModelFactory(VerifFeatures::neoMESI()),
                        1, 3);
}

TEST(ViewSetDifferential, OpenNeoMESINoneN1To3)
{
    expectMatchesOracle(openModelFactory(VerifFeatures::neoMESI(),
                                         CompositionMethod::None),
                        1, 3);
}

TEST(ViewSetDifferential, OpenNeoMESIModifiedN1To3)
{
    expectMatchesOracle(openModelFactory(VerifFeatures::neoMESI(),
                                         CompositionMethod::Modified),
                        1, 3);
}

TEST(ViewSetDifferential, ToyMutexN1To5)
{
    expectMatchesOracle(mutexFactory(false), 1, 5);
}

// ----------------------------------------------------------------
// Edge units on hand-built states.
// ----------------------------------------------------------------

TEST(ViewSet, SingleLeaf)
{
    const auto views = project(shapeOf(2, 1, 2), {{7, 8, 1, 2}});
    EXPECT_EQ(views, (std::vector<ViewBytes>{{7, 8}, {7, 8, 1, 2}}));
}

TEST(ViewSet, DoubledViewNeedsTwoEqualLeaves)
{
    // Three equal leaves: the doubled view is there.
    EXPECT_EQ(project(shapeOf(1, 3, 1), {{0, 5, 5, 5}}),
              (std::vector<ViewBytes>{{0}, {0, 5}, {0, 5, 5}}));
    // One leaf: no second copy to pair with.
    EXPECT_EQ(project(shapeOf(1, 1, 1), {{0, 5}}),
              (std::vector<ViewBytes>{{0}, {0, 5}}));
    // Distinct leaves pair with each other, never with themselves.
    EXPECT_EQ(project(shapeOf(1, 2, 1), {{0, 4, 5}}),
              (std::vector<ViewBytes>{{0}, {0, 4}, {0, 4, 5}, {0, 5}}));
    // Multiplicity two among others.
    const auto views = project(shapeOf(1, 4, 1), {{0, 6, 4, 6, 5}});
    EXPECT_TRUE(contains(views, {0, 6, 6}));
    EXPECT_FALSE(contains(views, {0, 4, 4}));
    EXPECT_FALSE(contains(views, {0, 5, 5}));
}

TEST(ViewSet, AckCountersSaturate)
{
    // Shared var 1 is an ack counter; feed it 0..5.
    const ModelShape shape = shapeOf(2, 2, 1, {1});
    std::vector<VState> states;
    for (std::uint8_t acks = 0; acks <= 5; ++acks)
        states.push_back({3, acks, 1, 2});
    for (const unsigned sat : {1u, 2u, 3u}) {
        SCOPED_TRACE("saturation " + std::to_string(sat));
        const auto views = project(shape, states, sat);
        // Every view of a state with acks >= sat reads sat; the
        // counter never exceeds it.
        std::set<std::uint8_t> seen;
        for (const ViewBytes &v : views)
            seen.insert(v[1]);
        EXPECT_EQ(seen.size(), sat + 1);
        EXPECT_EQ(*seen.rbegin(), sat);
        EXPECT_EQ(views.size(), 4 * (sat + 1));
    }
}

TEST(ViewSet, PairOrderComesFromBlockBytes)
{
    // The first state interns block {9,9} first, so its id is the
    // smallest; the second has its blocks out of byte order. Pairs
    // must still be laid out smaller block (by bytes) first.
    const auto views = project(
        shapeOf(1, 3, 2), {{0, 9, 9, 9, 9, 9, 9}, {0, 3, 1, 9, 9, 1, 7}});
    EXPECT_TRUE(contains(views, {0, 3, 1, 9, 9}));
    EXPECT_FALSE(contains(views, {0, 9, 9, 3, 1}));
    EXPECT_TRUE(contains(views, {0, 1, 7, 3, 1}));
    EXPECT_TRUE(contains(views, {0, 1, 7, 9, 9}));
}

TEST(ViewSet, AddViewRoundTripsAndRejectsBadLengths)
{
    const ModelShape shape = shapeOf(2, 3, 3, {1});
    ViewSet views(shape, 2);
    views.add({1, 4, 9, 9, 9, 0, 1, 2, 5, 5, 5});
    views.add({1, 0, 0, 0, 0, 9, 9, 9, 9, 9, 9});

    // A fresh set with fresh dictionaries rebuilds the same views.
    ViewSet rebuilt(shape, 2);
    for (const ViewBytes &v : views.sortedViews())
        EXPECT_TRUE(rebuilt.addView(v));
    EXPECT_EQ(rebuilt.sortedViews(), views.sortedViews());

    EXPECT_FALSE(rebuilt.addView({1}));
    EXPECT_FALSE(rebuilt.addView({1, 2, 3, 4}));
    EXPECT_FALSE(rebuilt.addView(ViewBytes(2 + 3 * 3, 0)));
    EXPECT_EQ(rebuilt.size(), views.size());
}

TEST(ViewSet, EqualityNeedsMatchingWidths)
{
    ViewSet a(shapeOf(1, 1, 1), 2);
    // Same widths, more leaves: shares a's dictionaries.
    ViewSet b(shapeOf(1, 2, 1), 2, &a);
    // A wider shared prefix: fresh dictionaries.
    ViewSet c(shapeOf(2, 1, 1), 2, &a);
    EXPECT_TRUE(b == a);
    EXPECT_FALSE(c == a);

    a.add({0, 1});
    EXPECT_FALSE(b == a);
    EXPECT_TRUE(b.addView({0}));
    EXPECT_TRUE(b.addView({0, 1}));
    EXPECT_TRUE(b == a);
    b.add({0, 1, 1});
    EXPECT_FALSE(b == a);
}

TEST(ViewSet, WideningSharedPrefixNeverConverges)
{
    const ExploreLimits lim{10'000, 10.0};
    const ParametricResult fixed =
        verifyParametric(mutexFactory(false), 1, 5, lim);
    ASSERT_TRUE(fixed.converged) << fixed.detail;

    const ParametricResult widening =
        verifyParametric(mutexFactory(true), 1, 5, lim);
    EXPECT_EQ(widening.status, VerifStatus::Verified);
    EXPECT_FALSE(widening.converged) << widening.detail;
    EXPECT_EQ(widening.abstractSetSizes.size(), 5u);
}

// ----------------------------------------------------------------
// Parallel sweeps feed the set through the serialized callback.
// ----------------------------------------------------------------

TEST(ViewSetParallel, FourThreadSweepMatchesSequential)
{
    const ModelFactory factory = openModelFactory(
        VerifFeatures::neoMESI(), CompositionMethod::Modified);
    ExploreLimits lim{2'000'000, 300.0};
    const ParametricResult seq = verifyParametric(factory, 1, 3, lim);
    lim.threads = 4;
    const ParametricResult par = verifyParametric(factory, 1, 3, lim);
    ASSERT_EQ(seq.status, VerifStatus::Verified) << seq.detail;
    ASSERT_EQ(par.status, VerifStatus::Verified) << par.detail;
    EXPECT_EQ(seq.abstractSetSizes,
              (std::vector<std::size_t>{1'093, 14'886, 29'569}));
    EXPECT_EQ(par.abstractSetSizes, seq.abstractSetSizes);
    EXPECT_EQ(par.converged, seq.converged);
}

} // namespace
