/**
 * @file
 * Model checker + protocol model tests: the §2.5 antecedents must
 * verify for the verifiable feature sets, seeded bugs must be caught
 * (a checker that cannot fail proves nothing), the theory-prohibited
 * non-sibling forwarding must fail the Safe Composition Invariant,
 * and the parametric sweep must converge to a cutoff.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <tuple>

#include "verif/explorer.hpp"
#include "verif/models/flat_closed.hpp"
#include "verif/models/flat_open.hpp"
#include "verif/parametric.hpp"

using namespace neo;
using namespace neo::verif;

namespace
{

ExploreLimits
testLimits()
{
    ExploreLimits lim;
    lim.maxStates = 5'000'000;
    lim.maxSeconds = 120.0;
    return lim;
}

// The preset is a std::string, not a const char *: gtest prints a
// pointer parameter as its address, and under ASLR that address (and
// with it every instance's full test name) changed from run to run.
class ClosedSafety
    : public ::testing::TestWithParam<std::tuple<int, std::string>>
{
};

TEST_P(ClosedSafety, Verifies)
{
    const auto [n, preset] = GetParam();
    VerifFeatures f;
    if (preset == "msi")
        f = VerifFeatures::baselineMSI();
    else if (preset == "msi_incl")
        f = VerifFeatures::inclusiveMSI();
    else
        f = VerifFeatures::neoMESI();
    ModelShape shape;
    TransitionSystem ts =
        buildClosedModel(static_cast<std::size_t>(n), f, shape);
    const ExploreResult r = explore(ts, testLimits());
    EXPECT_EQ(r.status, VerifStatus::Verified)
        << verifStatusName(r.status) << " " << r.violatedInvariant
        << "\nstate: " << r.badState << "\ntrace:\n"
        << [&] {
               std::string t;
               for (const auto &s : r.trace)
                   t += "  " + s + "\n";
               return t;
           }();
    EXPECT_GT(r.statesExplored, 10u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClosedSafety,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values("msi", "msi_incl", "neomesi")),
    [](const auto &info) {
        return std::get<1>(info.param) + "_N" +
               std::to_string(std::get<0>(info.param));
    });

TEST(ClosedSafety, StateCountGrowsWithFeatures)
{
    ModelShape shape;
    const auto msi = explore(
        buildClosedModel(2, VerifFeatures::baselineMSI(), shape),
        testLimits());
    const auto incl = explore(
        buildClosedModel(2, VerifFeatures::inclusiveMSI(), shape),
        testLimits());
    const auto mesi = explore(
        buildClosedModel(2, VerifFeatures::neoMESI(), shape),
        testLimits());
    ASSERT_EQ(msi.status, VerifStatus::Verified);
    ASSERT_EQ(incl.status, VerifStatus::Verified);
    ASSERT_EQ(mesi.status, VerifStatus::Verified);
    // Each §4.2 feature adds transitions and states.
    EXPECT_GT(incl.statesExplored, msi.statesExplored);
    EXPECT_GT(mesi.statesExplored, incl.statesExplored);
}

class OpenSafety : public ::testing::TestWithParam<int>
{
};

TEST_P(OpenSafety, NeoMESIVerifies)
{
    ModelShape shape;
    TransitionSystem ts = buildOpenModel(
        static_cast<std::size_t>(GetParam()),
        VerifFeatures::neoMESI(), CompositionMethod::None, shape);
    const ExploreResult r = explore(ts, testLimits());
    EXPECT_EQ(r.status, VerifStatus::Verified)
        << verifStatusName(r.status) << " " << r.violatedInvariant
        << "\nstate: " << r.badState << "\ntrace:\n"
        << [&] {
               std::string t;
               for (const auto &s : r.trace)
                   t += "  " + s + "\n";
               return t;
           }();
}

TEST_P(OpenSafety, CompositionModifiedVerifies)
{
    ModelShape shape;
    TransitionSystem ts = buildOpenModel(
        static_cast<std::size_t>(GetParam()),
        VerifFeatures::neoMESI(), CompositionMethod::Modified, shape);
    const ExploreResult r = explore(ts, testLimits());
    EXPECT_EQ(r.status, VerifStatus::Verified)
        << verifStatusName(r.status) << " " << r.violatedInvariant
        << "\nstate: " << r.badState << "\ntrace:\n"
        << [&] {
               std::string t;
               for (const auto &s : r.trace)
                   t += "  " + s + "\n";
               return t;
           }();
}

INSTANTIATE_TEST_SUITE_P(Sweep, OpenSafety, ::testing::Values(1, 2, 3),
                         [](const auto &info) {
                             std::string name = "N";
                             name += std::to_string(info.param);
                             return name;
                         });

TEST(Composition, NonSiblingForwardingFailsTheInvariant)
{
    // §4.2.1: non-sibling communication is prohibited by the theory —
    // the Omega output it introduces has no matching leaf transition.
    VerifFeatures f = VerifFeatures::neoMESI();
    f.nonSiblingFwd = true;
    ModelShape shape;
    TransitionSystem ts =
        buildOpenModel(2, f, CompositionMethod::Modified, shape);
    const ExploreResult r = explore(ts, testLimits());
    EXPECT_EQ(r.status, VerifStatus::InvariantViolated);
    EXPECT_EQ(r.violatedInvariant, "SafeComposition_LcouldFire");
    EXPECT_FALSE(r.trace.empty());
}

TEST(Composition, OriginalMethodologyAgreesButCostsMore)
{
    ModelShape shape;
    const auto modified = explore(
        buildOpenModel(2, VerifFeatures::neoMESI(),
                       CompositionMethod::Modified, shape),
        testLimits());
    const auto original = explore(
        buildOpenModel(2, VerifFeatures::neoMESI(),
                       CompositionMethod::Original, shape),
        testLimits());
    ASSERT_EQ(modified.status, VerifStatus::Verified);
    ASSERT_EQ(original.status, VerifStatus::Verified)
        << original.violatedInvariant << "\n"
        << original.badState;
    // §4.1.2: the alternating product explores a much larger space.
    EXPECT_GT(original.statesExplored, modified.statesExplored);
}

TEST(MutationTesting, DroppedInvalidationIsCaught)
{
    // Push-button means nothing if the oracle cannot fail: seed the
    // classic bug — grant M without invalidating sharers — and the
    // checker must produce a counterexample.
    ModelShape shape;
    TransitionSystem ts =
        buildClosedModel(2, VerifFeatures::neoMESI(), shape);
    // A rogue rule: grant M to a leaf in IM_D without any protocol.
    // The first variable of the first leaf block is its cache state.
    const std::size_t leaf0_c = shape.sharedVars;
    ts.addRule(
        "BUG_grant_without_inv", ActionKind::Internal,
        [leaf0_c](const VState &s) { return s[leaf0_c] == C_IMD; },
        [leaf0_c](VState &s) { s[leaf0_c] = C_M; });
    const ExploreResult r = explore(ts, testLimits());
    EXPECT_EQ(r.status, VerifStatus::InvariantViolated);
    // Either the safety sum or the bookkeeping invariant trips first.
    EXPECT_FALSE(r.violatedInvariant.empty());
    EXPECT_FALSE(r.trace.empty());
}

TEST(Parametric, ClosedNeoMESIConverges)
{
    const ParametricResult r = verifyParametric(
        closedModelFactory(VerifFeatures::neoMESI()), 1, 6,
        testLimits());
    EXPECT_EQ(r.status, VerifStatus::Verified);
    EXPECT_TRUE(r.converged) << r.detail;
    if (r.converged) {
        EXPECT_LE(r.cutoff, 5u);
    }
}

TEST(Parametric, OpenNeoMESIConverges)
{
    // The safety-only open model (the composition variants add spec
    // dimensions and are swept by the sec4 bench with bigger bounds).
    // Convergence is detected at N=6, which needs ~6.2M states.
    ExploreLimits lim;
    lim.maxStates = 8'000'000;
    lim.maxSeconds = 400.0;
    const ParametricResult r = verifyParametric(
        openModelFactory(VerifFeatures::neoMESI(),
                         CompositionMethod::None),
        1, 6, lim);
    EXPECT_EQ(r.status, VerifStatus::Verified) << r.detail;
    EXPECT_TRUE(r.converged) << r.detail;
    // Per-N counts, N=6 included: a successor-generation shortcut that
    // is exact up to N=5 but drops a firing at N=6 would otherwise
    // still pass on the verdict alone.
    struct Pin
    {
        std::uint64_t states, transitions;
        std::size_t views;
    };
    const Pin pins[] = {{941, 1997, 1093},
                        {11734, 33274, 14886},
                        {79429, 287006, 29569},
                        {402101, 1782617, 33222},
                        {1690862, 8951147, 33717},
                        {6216459, 38485101, 33717}};
    ASSERT_EQ(r.perInstance.size(), std::size(pins));
    ASSERT_EQ(r.abstractSetSizes.size(), std::size(pins));
    for (std::size_t i = 0; i < std::size(pins); ++i) {
        EXPECT_EQ(r.perInstance[i].statesExplored, pins[i].states)
            << "N=" << i + 1;
        EXPECT_EQ(r.perInstance[i].transitionsFired,
                  pins[i].transitions)
            << "N=" << i + 1;
        EXPECT_EQ(r.abstractSetSizes[i], pins[i].views) << "N=" << i + 1;
    }
}

} // namespace
