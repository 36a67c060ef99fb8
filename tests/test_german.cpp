/**
 * @file
 * Tests for the German protocol model — the toy the paper contrasts
 * NeoMESI against (§2: NeoGerman's simplicity "belies the actual
 * verification scalability").
 */

#include <gtest/gtest.h>

#include "verif/explorer.hpp"
#include "verif/models/flat_open.hpp"
#include "verif/models/german.hpp"

using namespace neo;
using namespace neo::verif;

namespace
{

class German : public ::testing::TestWithParam<int>
{
};

TEST_P(German, ControlPropertyHolds)
{
    ModelShape shape;
    TransitionSystem ts =
        buildGermanModel(static_cast<std::size_t>(GetParam()), shape);
    const ExploreResult r =
        explore(ts, ExploreLimits{5'000'000, 120.0});
    EXPECT_EQ(r.status, VerifStatus::Verified)
        << r.violatedInvariant << "\n"
        << r.badState;
}

INSTANTIATE_TEST_SUITE_P(Sweep, German, ::testing::Values(1, 2, 3, 4),
                         [](const auto &info) {
                             std::string name = "N";
                             name += std::to_string(info.param);
                             return name;
                         });

TEST(German, ParametricConvergesAtTinyCutoff)
{
    const ParametricResult r = verifyParametric(
        germanModelFactory(), 1, 6, ExploreLimits{5'000'000, 120.0});
    EXPECT_EQ(r.status, VerifStatus::Verified) << r.detail;
    EXPECT_TRUE(r.converged) << r.detail;
    EXPECT_LE(r.cutoff, 4u);
}

TEST(German, ToyIsOrdersOfMagnitudeSmallerThanNeoMESI)
{
    ModelShape shape;
    const auto german =
        explore(buildGermanModel(4, shape),
                ExploreLimits{5'000'000, 120.0}, false, false);
    const auto neomesi = explore(
        buildOpenModel(4, VerifFeatures::neoMESI(),
                       CompositionMethod::None, shape),
        ExploreLimits{5'000'000, 120.0}, false, false);
    ASSERT_EQ(german.status, VerifStatus::Verified);
    ASSERT_EQ(neomesi.status, VerifStatus::Verified);
    // §2's point: realistic features (transients, forwarding,
    // evictions) multiply the interleavings to be checked.
    EXPECT_GT(neomesi.statesExplored, 5 * german.statesExplored);
}

TEST(German, SeededBugIsCaught)
{
    // Drop the exclusivity check from the E grant: the checker must
    // find the classic two-writers counterexample.
    ModelShape shape;
    TransitionSystem ts = buildGermanModel(2, shape);
    const std::size_t c0_st = shape.sharedVars; // first client's state
    ts.addRule(
        "BUG_grant_E_unconditionally", ActionKind::Internal,
        [c0_st](const VState &s) { return s[c0_st] == 0; /* I */ },
        [c0_st](VState &s) { s[c0_st] = 2; /* E */ });
    const ExploreResult r =
        explore(ts, ExploreLimits{5'000'000, 60.0});
    EXPECT_EQ(r.status, VerifStatus::InvariantViolated);
    EXPECT_EQ(r.violatedInvariant, "CtrlProp");
    EXPECT_FALSE(r.trace.empty());
}

} // namespace
