/**
 * @file
 * Unit tests for the model-checker engine itself: reachability,
 * invariant violation with trace reconstruction, deadlock detection,
 * bounds, canonicalization-based symmetry reduction, and the
 * parametric view-abstraction machinery on toy systems.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "verif/explorer.hpp"
#include "verif/models/german.hpp"
#include "verif/models/mutants.hpp"
#include "verif/parametric.hpp"

using namespace neo;

namespace
{

/** A counter that steps 0..max with a reset rule. */
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
        "reset", ActionKind::Internal,
        [x, max](const VState &s) { return s[x] == max; },
        [x](VState &s) { s[x] = 0; });
    return ts;
}

TEST(Explorer, ExactReachableCount)
{
    TransitionSystem ts = counterSystem(9);
    const auto r = explore(ts, ExploreLimits{1000, 10.0});
    EXPECT_EQ(r.status, VerifStatus::Verified);
    EXPECT_EQ(r.statesExplored, 10u);
}

TEST(Explorer, InvariantViolationWithShortestTrace)
{
    TransitionSystem ts = counterSystem(9);
    ts.addInvariant("below7",
                    [](const VState &s) { return s[0] < 7; });
    const auto r = explore(ts, ExploreLimits{1000, 10.0});
    EXPECT_EQ(r.status, VerifStatus::InvariantViolated);
    EXPECT_EQ(r.violatedInvariant, "below7");
    // BFS finds the shortest counterexample: seven "inc" steps.
    EXPECT_EQ(r.trace.size(), 7u);
    EXPECT_TRUE(std::all_of(r.trace.begin(), r.trace.end(),
                            [](const std::string &s) {
                                return s == "inc";
                            }));
}

TEST(Explorer, DeadlockDetection)
{
    TransitionSystem ts;
    const auto x = ts.addVar("x", 0);
    ts.addRule(
        "step", ActionKind::Internal,
        [x](const VState &s) { return s[x] < 3; },
        [x](VState &s) { ++s[x]; });
    // No rule from x==3: a deadlock when detection is on.
    auto r = explore(ts, ExploreLimits{1000, 10.0}, true);
    EXPECT_EQ(r.status, VerifStatus::Deadlock);
    r = explore(ts, ExploreLimits{1000, 10.0}, false);
    EXPECT_EQ(r.status, VerifStatus::Verified);
}

TEST(Explorer, StateBoundReported)
{
    TransitionSystem ts = counterSystem(200);
    const auto r = explore(ts, ExploreLimits{50, 10.0});
    EXPECT_EQ(r.status, VerifStatus::LimitExceeded);
    EXPECT_GE(r.statesExplored, 50u);
}

TEST(Explorer, MemoryEstimateCountsTraceStructures)
{
    // Regression: the estimate must include the predecessor arrays
    // kept for counterexamples — at the fixpoint (empty frontier) the
    // keep_trace run costs exactly one (parent id, rule) entry in the
    // flat link arrays per state more than the traceless run.
    TransitionSystem ts = counterSystem(99);
    const auto with_trace =
        explore(ts, ExploreLimits{1000, 10.0}, false, true);
    const auto without_trace =
        explore(ts, ExploreLimits{1000, 10.0}, false, false);
    EXPECT_EQ(with_trace.statesExplored, without_trace.statesExplored);
    EXPECT_GT(with_trace.memoryBytes, without_trace.memoryBytes);
    const std::uint64_t per_link = 2 * sizeof(std::uint32_t);
    EXPECT_EQ(with_trace.memoryBytes - without_trace.memoryBytes,
              with_trace.statesExplored * per_link);
}

TEST(Explorer, MemoryBoundReported)
{
    TransitionSystem ts = counterSystem(200);
    ExploreLimits lim{100000, 10.0};
    lim.maxMemoryBytes = 2000; // a couple dozen states' worth
    const auto r = explore(ts, lim);
    EXPECT_EQ(r.status, VerifStatus::LimitExceeded);
    EXPECT_LT(r.statesExplored, 201u);
    // Unbounded (the default 0) must not trip.
    const auto ok = explore(ts, ExploreLimits{1000, 10.0});
    EXPECT_EQ(ok.status, VerifStatus::Verified);
}

TEST(Explorer, CanonicalizationMergesSymmetricStates)
{
    // Two independent bits; with sorting canonicalization the states
    // (0,1) and (1,0) merge: 3 canonical states instead of 4.
    auto build = [](bool canon) {
        TransitionSystem ts;
        const auto a = ts.addVar("a", 0);
        const auto b = ts.addVar("b", 0);
        ts.addRule(
            "setA", ActionKind::Internal,
            [a](const VState &s) { return s[a] == 0; },
            [a](VState &s) { s[a] = 1; });
        ts.addRule(
            "setB", ActionKind::Internal,
            [b](const VState &s) { return s[b] == 0; },
            [b](VState &s) { s[b] = 1; });
        if (canon) {
            ts.setCanonicalizer([](VState &s) {
                if (s[0] > s[1])
                    std::swap(s[0], s[1]);
            });
        }
        return ts;
    };
    const auto plain =
        explore(build(false), ExploreLimits{100, 10.0});
    const auto reduced =
        explore(build(true), ExploreLimits{100, 10.0});
    EXPECT_EQ(plain.statesExplored, 4u);
    EXPECT_EQ(reduced.statesExplored, 3u);
}

TEST(Explorer, OnStateVisitsEveryState)
{
    TransitionSystem ts = counterSystem(5);
    unsigned visits = 0;
    explore(ts, ExploreLimits{100, 10.0}, false, true,
            [&](const VState &) { ++visits; });
    EXPECT_EQ(visits, 6u);
}

/** Parametric toy: N clients, at most one in the critical section. */
ModelFactory
mutexFactory(bool buggy)
{
    return [buggy](std::size_t n, ModelShape &shape) {
        TransitionSystem ts;
        const auto lock = ts.addVar("lock", 0);
        shape.sharedVars = 1;
        shape.numLeaves = n;
        shape.leafBlockSize = 1;
        std::vector<std::size_t> in(n);
        for (std::size_t i = 0; i < n; ++i)
            in[i] = ts.addVar("in" + std::to_string(i), 0);
        for (std::size_t i = 0; i < n; ++i) {
            const auto me = in[i];
            ts.addRule(
                "enter" + std::to_string(i), ActionKind::Internal,
                [lock, buggy](const VState &s) {
                    return buggy || s[lock] == 0;
                },
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
        ts.addInvariant("mutex", [in, n](const VState &s) {
            unsigned inside = 0;
            for (std::size_t i = 0; i < n; ++i)
                inside += s[in[i]];
            return inside <= 1;
        });
        ts.setCanonicalizer([n](VState &s) {
            std::sort(s.begin() + 1, s.begin() + 1 + n);
        });
        return ts;
    };
}

TEST(Parametric, ToyMutexConverges)
{
    const auto r = verifyParametric(mutexFactory(false), 1, 6,
                                    ExploreLimits{10000, 10.0});
    EXPECT_EQ(r.status, VerifStatus::Verified);
    EXPECT_TRUE(r.converged) << r.detail;
    EXPECT_LE(r.cutoff, 3u);
}

TEST(Parametric, ToyMutexBugFoundAtSmallestInstance)
{
    const auto r = verifyParametric(mutexFactory(true), 1, 6,
                                    ExploreLimits{10000, 10.0});
    EXPECT_EQ(r.status, VerifStatus::InvariantViolated);
    EXPECT_FALSE(r.converged);
    // The two-client instance already exposes it.
    ASSERT_GE(r.perInstance.size(), 2u);
    EXPECT_EQ(r.perInstance.back().status,
              VerifStatus::InvariantViolated);
}

TEST(Parametric, ViewSetSizesAreBoundedAcrossN)
{
    const auto r = verifyParametric(mutexFactory(false), 1, 6,
                                    ExploreLimits{10000, 10.0});
    ASSERT_GE(r.abstractSetSizes.size(), 2u);
    // Convergence means the final two view-set sizes are equal.
    const auto k = r.abstractSetSizes.size();
    EXPECT_EQ(r.abstractSetSizes[k - 1], r.abstractSetSizes[k - 2]);
}

// ---------------------------------------------------------------------
// Golden fixpoint-count regression fixtures.
//
// One row per bundled model, german N=3..5 and every corpus mutant,
// pinning the EXACT sequential-BFS state / transition / rule-fire /
// invariant-check counts (plus an FNV-1a digest of the full per-rule
// fire vector, so a shifted distribution fails even when the total
// matches). These were captured from the pre-batching engine and must
// never drift: any frontier, batching, interning or rule-compilation
// change that alters a single count is a semantic regression, not a
// perf tweak. Regenerate only for deliberate MODEL changes.
// ---------------------------------------------------------------------

struct GoldenRow
{
    const char *model;
    VerifStatus status;
    std::uint64_t states;
    std::uint64_t transitions;
    std::uint64_t firesSum;
    std::uint64_t firesFnv;
    const char *violatedInvariant;
    std::uint64_t traceLen;
    std::uint64_t invariantChecks;
};

/** Name a row by its model in test names; by default gtest prints
 *  the row's raw bytes, pointer values included. */
void
PrintTo(const GoldenRow &row, std::ostream *os)
{
    *os << '"' << row.model << '"';
}

constexpr GoldenRow kGoldenRows[] = {
    {"german_n3", VerifStatus::Verified, 5107u, 20497u, 20497u, 0x200acc64d40cd6a1ull, "", 0u, 5107u},
    {"german_n4", VerifStatus::Verified, 28499u, 153376u, 153376u, 0x7e220c86a6cb462dull, "", 0u, 28499u},
    {"german_n5", VerifStatus::Verified, 134331u, 903815u, 903815u, 0x7929d224a789ef5dull, "", 0u, 134331u},
    {"closed_msi_n2", VerifStatus::Verified, 66u, 123u, 123u, 0x6ca40f965b0b2234ull, "", 0u, 132u},
    {"closed_msi_incl_n2", VerifStatus::Verified, 432u, 988u, 988u, 0xd7b0ea0477ec6c75ull, "", 0u, 864u},
    {"closed_neomesi_n3", VerifStatus::Verified, 4735u, 14433u, 14433u, 0x612fb476879e58f9ull, "", 0u, 9470u},
    {"closed_moesi_n3", VerifStatus::Verified, 10074u, 32030u, 32030u, 0x34e740df6780ec63ull, "", 0u, 20148u},
    {"mutant:dir_forgets_sharer_on_read", VerifStatus::InvariantViolated, 64u, 109u, 109u, 0xafdea3cddaadc2e6ull, "DirTracksHolders", 7u, 128u},
    {"mutant:dir_forgets_sharers_on_evict_ack", VerifStatus::InvariantViolated, 156u, 304u, 304u, 0x71a912d1fcb701cfull, "DirTracksHolders", 10u, 312u},
    {"mutant:dir_nonblocking_read", VerifStatus::InvariantViolated, 126u, 222u, 222u, 0x12ec5b5c4c245e25ull, "NeoSafety_leafCompat", 8u, 126u},
    {"mutant:dir_nonblocking_write", VerifStatus::InvariantViolated, 1445u, 2881u, 2881u, 0xc4b5a22b597d34c6ull, "NeoSafety_leafCompat", 16u, 1445u},
    {"mutant:owner_supplies_without_transfer", VerifStatus::InvariantViolated, 72u, 122u, 122u, 0x06e564bef1d6c707ull, "DirTracksHolders", 7u, 144u},
    {"mutant:sharer_ignores_inv", VerifStatus::InvariantViolated, 42u, 69u, 69u, 0xacac523d9b339fe2ull, "DirTracksHolders", 7u, 84u},
    {"mutant:dir_grants_E_with_sharers", VerifStatus::InvariantViolated, 482u, 971u, 971u, 0x7388522227e0a98aull, "NeoSafety_leafCompat", 15u, 963u},
    {"mutant:dir_skips_invalidation", VerifStatus::InvariantViolated, 52u, 83u, 83u, 0x19542ee596cb690cull, "NeoSafety_leafCompat", 8u, 103u},
    {"mutant:dir_early_owner_fwd", VerifStatus::InvariantViolated, 894u, 2050u, 2050u, 0x17b42f48c0834db3ull, "NeoSafety_leafCompat", 13u, 1787u},
    {"mutant:leaf_silent_upgrade", VerifStatus::InvariantViolated, 58u, 97u, 97u, 0x0e06e48c94a3c608ull, "NeoSafety_leafCompat", 8u, 115u},
    {"mutant:german_grant_E_with_sharers", VerifStatus::InvariantViolated, 248u, 450u, 450u, 0xac9a94c188f70fdfull, "CtrlProp", 8u, 248u},
};

/** FNV-1a over the per-rule fire counts, 8 LE bytes per count. */
std::uint64_t
firesDigest(const std::vector<std::uint64_t> &fires)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const std::uint64_t x : fires) {
        for (int b = 0; b < 8; ++b) {
            h ^= (x >> (8 * b)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
    return h;
}

/** Resolve a golden-row model name to a built system. */
TransitionSystem
buildGoldenModel(const std::string &name)
{
    ModelShape shape;
    if (name.rfind("german_n", 0) == 0) {
        const std::size_t n = static_cast<std::size_t>(
            std::stoul(name.substr(std::string("german_n").size())));
        return verif::buildGermanModel(n, shape);
    }
    if (name.rfind("mutant:", 0) == 0) {
        const auto *m = verif::findMutant(
            name.substr(std::string("mutant:").size()));
        if (m == nullptr)
            ADD_FAILURE() << "unknown mutant in golden table: "
                          << name;
        return m->build(shape);
    }
    for (const verif::BundledModel &m : verif::bundledModels()) {
        if (m.name == name)
            return m.build(shape);
    }
    ADD_FAILURE() << "unknown model in golden table: " << name;
    return TransitionSystem{};
}

class GoldenCounts : public ::testing::TestWithParam<GoldenRow>
{
};

TEST_P(GoldenCounts, SequentialBfsMatchesPinnedCounts)
{
    const GoldenRow &row = GetParam();
    const TransitionSystem ts = buildGoldenModel(row.model);
    const ExploreResult r =
        explore(ts, ExploreLimits{20'000'000, 300.0}, false, true);

    EXPECT_EQ(r.status, row.status) << row.model;
    EXPECT_EQ(r.statesExplored, row.states) << row.model;
    EXPECT_EQ(r.transitionsFired, row.transitions) << row.model;
    std::uint64_t firesSum = 0;
    for (const std::uint64_t f : r.ruleFires)
        firesSum += f;
    EXPECT_EQ(firesSum, row.firesSum) << row.model;
    EXPECT_EQ(firesDigest(r.ruleFires), row.firesFnv) << row.model;
    EXPECT_EQ(r.violatedInvariant, row.violatedInvariant)
        << row.model;
    EXPECT_EQ(r.trace.size(), row.traceLen) << row.model;
    EXPECT_EQ(r.invariantChecks, row.invariantChecks) << row.model;
    if (row.status == VerifStatus::Verified) {
        // A verified fixpoint checks every invariant on every state.
        EXPECT_EQ(r.invariantChecks,
                  r.statesExplored * ts.invariants().size())
            << row.model;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, GoldenCounts, ::testing::ValuesIn(kGoldenRows),
    [](const ::testing::TestParamInfo<GoldenRow> &info) {
        std::string n = info.param.model;
        for (char &c : n) {
            if (c == ':' || c == '.')
                c = '_';
        }
        return n;
    });

} // namespace
