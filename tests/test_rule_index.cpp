/**
 * @file
 * Dependency-indexed successor generation: RuleDepIndex construction
 * unit tests, differential fixpoint equality with the index on vs off
 * (sequential, parallel, the random walker)
 * across every bundled model and corpus mutant, identity-gate fallback
 * behavior when the canonicalizer has no exactness predicate, and
 * counter sanity.
 *
 * The contract under test: `--no-rule-index` (ExploreLimits/
 * WalkOptions::ruleIndex = false) is a pure perf baseline — status,
 * states, transitions, per-rule fire digests, invariant-check counts,
 * traces and walker picks are bit-identical either way. guardEvals is
 * deliberately NOT compared: it counts PHYSICAL evaluations, so the
 * on/off difference (and, in the parallel explorer, run-to-run
 * jitter from racy frontier interning) is the index working.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "verif/explorer.hpp"
#include "verif/models/german.hpp"
#include "verif/models/mutants.hpp"
#include "verif/random_walk.hpp"
#include "verif/transition_system.hpp"

using namespace neo;

namespace
{

std::uint16_t
v16(std::size_t x)
{
    return static_cast<std::uint16_t>(x);
}

GuardTerm
geq(std::size_t var, std::uint8_t imm)
{
    return GuardTerm{v16(var), GuardTerm::Op::Eq, imm};
}

EffectTerm
eset(std::size_t dst, std::uint8_t imm)
{
    return EffectTerm{v16(dst), EffectTerm::Op::Set, 0, imm};
}

/** FNV-1a over the per-rule fire counts (same digest the golden
 *  fixpoint fixtures pin). */
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

// ---------------------------------------------------------------------
// RuleDepIndex construction.
// ---------------------------------------------------------------------

/** Three flat rules over {x, y, z}:
 *    incX: guard x==0, effect x:=1        (reads {x}, writes {x})
 *    onX : guard x==1, effect y:=1        (reads {x}, writes {y})
 *    onY : guard y==1, effect z:=1        (reads {y}, writes {z}) */
TransitionSystem
flatToy()
{
    TransitionSystem ts;
    const auto x = ts.addVar("x", 0);
    const auto y = ts.addVar("y", 0);
    ts.addVar("z", 0);
    ts.addRule("incX", ActionKind::Internal, {geq(x, 0)},
               {eset(x, 1)});
    ts.addRule("onX", ActionKind::Internal, {geq(x, 1)},
               {eset(y, 1)});
    ts.addRule("onY", ActionKind::Internal, {geq(y, 1)},
               {eset(2, 1)});
    return ts;
}

TEST(RuleDepIndex, FlatRulesGetExactSets)
{
    const TransitionSystem ts = flatToy();
    const RuleDepIndex idx(ts);
    ASSERT_EQ(idx.numRules(), 3u);

    // incX writes x: re-evaluate the readers of x (incX, onX) only.
    EXPECT_TRUE(idx.ruleAffectsRule(0, 0));
    EXPECT_TRUE(idx.ruleAffectsRule(0, 1));
    EXPECT_FALSE(idx.ruleAffectsRule(0, 2));
    EXPECT_EQ(idx.affectedRuleCount(0), 2u);

    // onX writes y: only onY reads y.
    EXPECT_FALSE(idx.ruleAffectsRule(1, 0));
    EXPECT_FALSE(idx.ruleAffectsRule(1, 1));
    EXPECT_TRUE(idx.ruleAffectsRule(1, 2));
    EXPECT_EQ(idx.affectedRuleCount(1), 1u);

    // onY writes z: nobody reads z.
    EXPECT_EQ(idx.affectedRuleCount(2), 0u);

    for (std::size_t r = 0; r < 3; ++r) {
        EXPECT_FALSE(idx.readSetUnknown(r));
        EXPECT_FALSE(idx.writeSetUnknown(r));
    }
}

TEST(RuleDepIndex, LambdaGuardIsConservativeUntilDeclared)
{
    TransitionSystem ts = flatToy();
    const auto w = ts.addVar("w", 0);
    // Lambda guard, no declared reads: must be re-evaluated after
    // EVERY firing — it lands in every rule's affected set.
    ts.addRule(
        "opaque", ActionKind::Internal,
        TransitionSystem::Guard(
            [w](const VState &s) { return s[w] == 0; }),
        {eset(w, 1)});
    {
        const RuleDepIndex idx(ts);
        EXPECT_TRUE(idx.readSetUnknown(3));
        for (std::size_t r = 0; r < idx.numRules(); ++r)
            EXPECT_TRUE(idx.ruleAffectsRule(r, 3))
                << "rule " << r << " must affect the opaque guard";
        // The flat rules' sets are unchanged by the opaque PEER
        // (read-unknown pollutes column 3, not their rows' width).
        EXPECT_FALSE(idx.ruleAffectsRule(1, 0));
    }
    // Declaring the exact read-set shrinks it back: only writers of
    // w re-enable it.
    ts.declareGuardReads("opaque", {v16(w)});
    {
        const RuleDepIndex idx(ts);
        EXPECT_FALSE(idx.readSetUnknown(3));
        EXPECT_FALSE(idx.ruleAffectsRule(0, 3)); // incX writes x
        EXPECT_TRUE(idx.ruleAffectsRule(3, 3));  // opaque writes w
    }
}

TEST(RuleDepIndex, LambdaEffectInvalidatesEverything)
{
    TransitionSystem ts = flatToy();
    const auto w = ts.addVar("w", 0);
    ts.addRule(
        "opaqueEff", ActionKind::Internal,
        TransitionSystem::Guard(
            [w](const VState &s) { return s[w] == 0; }),
        TransitionSystem::Effect([w](VState &s) { s[w] = 1; }));
    ts.declareGuardReads("opaqueEff", {v16(w)});
    const RuleDepIndex idx(ts);
    EXPECT_TRUE(idx.writeSetUnknown(3));
    EXPECT_FALSE(idx.readSetUnknown(3)); // reads are declared
    // Unknown write-set: conservatively re-evaluate every guard and
    // every invariant after it fires.
    EXPECT_EQ(idx.affectedRuleCount(3), idx.numRules());
}

TEST(RuleDepIndex, OverrideGuardDropsDeclaredReads)
{
    TransitionSystem ts = flatToy();
    const auto x = 0;
    // Mutant-style surgical rewrite: overrideGuard must clear both
    // the flat terms and any declared read-set, reverting the rule
    // to read-unknown (the index must not reason about the
    // pre-mutation guard).
    TransitionSystem::Rule *r = ts.findRule("onX");
    ASSERT_NE(r, nullptr);
    r->overrideGuard([x](const VState &s) { return s[x] == 1; });
    const RuleDepIndex idx(ts);
    EXPECT_TRUE(idx.readSetUnknown(1));
    for (std::size_t q = 0; q < idx.numRules(); ++q)
        EXPECT_TRUE(idx.ruleAffectsRule(q, 1));
}

TEST(RuleDepIndex, OverrideEffectDropsFlatWrites)
{
    TransitionSystem ts = flatToy();
    TransitionSystem::Rule *r = ts.findRule("onY");
    ASSERT_NE(r, nullptr);
    r->overrideEffect([](VState &s) { s[2] = 1; });
    const RuleDepIndex idx(ts);
    EXPECT_TRUE(idx.writeSetUnknown(2));
    EXPECT_EQ(idx.affectedRuleCount(2), idx.numRules());
}

TEST(RuleDepIndex, InvariantReadSets)
{
    TransitionSystem ts = flatToy();
    // Flat invariant over z: only writers of z re-check it.
    ts.addInvariant("zLow", {GuardTerm{2, GuardTerm::Op::Le, 1}});
    // Lambda invariant with declared reads {y}.
    ts.addInvariant(
        "yLow", [](const VState &s) { return s[1] <= 1; },
        {v16(1)});
    // Lambda invariant, no declared reads: conservative.
    ts.addInvariant("opaqueInv",
                    [](const VState &s) { return s[0] <= 1; });
    const RuleDepIndex idx(ts);
    ASSERT_EQ(idx.numInvariants(), 3u);
    // incX writes x: neither zLow nor yLow depend on x, opaqueInv
    // conservatively depends on everything.
    EXPECT_FALSE(idx.ruleAffectsInvariant(0, 0));
    EXPECT_FALSE(idx.ruleAffectsInvariant(0, 1));
    EXPECT_TRUE(idx.ruleAffectsInvariant(0, 2));
    // onX writes y -> yLow; onY writes z -> zLow.
    EXPECT_TRUE(idx.ruleAffectsInvariant(1, 1));
    EXPECT_FALSE(idx.ruleAffectsInvariant(1, 0));
    EXPECT_TRUE(idx.ruleAffectsInvariant(2, 0));
    EXPECT_FALSE(idx.ruleAffectsInvariant(2, 1));
}

TEST(RuleDepIndex, GermanAvgAffectedWellBelowFullScan)
{
    ModelShape shape;
    const TransitionSystem ts = verif::buildGermanModel(4, shape);
    const RuleDepIndex idx(ts);
    // The point of the index: a firing's delta re-evaluation must be
    // much cheaper than the full R-rule scan. (sendInv's declared
    // read-set is what keeps this below R — see german.cpp.)
    EXPECT_LT(idx.avgAffectedRules(),
              0.8 * double(idx.numRules()));
    for (std::size_t r = 0; r < idx.numRules(); ++r)
        EXPECT_FALSE(idx.writeSetUnknown(r));
}

// ---------------------------------------------------------------------
// Differential: index on == index off, everywhere.
// ---------------------------------------------------------------------

struct Fix
{
    VerifStatus status;
    std::uint64_t states, transitions, invChecks, digest, traceLen;
    std::string violated;
};

Fix
runFix(const TransitionSystem &ts, bool index, unsigned threads = 1)
{
    ExploreLimits lim;
    lim.maxSeconds = 300.0;
    lim.threads = threads;
    lim.ruleIndex = index;
    const ExploreResult r = explore(ts, lim, false, threads == 1);
    return Fix{r.status,           r.statesExplored,
               r.transitionsFired, r.invariantChecks,
               firesDigest(r.ruleFires), r.trace.size(),
               r.violatedInvariant};
}

void
expectSameFix(const Fix &on, const Fix &off, const std::string &what)
{
    EXPECT_EQ(int(on.status), int(off.status)) << what;
    EXPECT_EQ(on.states, off.states) << what;
    EXPECT_EQ(on.transitions, off.transitions) << what;
    EXPECT_EQ(on.invChecks, off.invChecks) << what;
    EXPECT_EQ(on.digest, off.digest) << what;
    EXPECT_EQ(on.violated, off.violated) << what;
    EXPECT_EQ(on.traceLen, off.traceLen) << what;
}

class IndexDifferential
    : public ::testing::TestWithParam<std::string>
{
  protected:
    TransitionSystem
    build() const
    {
        ModelShape shape;
        const std::string &name = GetParam();
        if (name.rfind("mutant:", 0) == 0) {
            const verif::Mutant *m = verif::findMutant(
                name.substr(std::string("mutant:").size()));
            EXPECT_NE(m, nullptr) << name;
            return m->build(shape);
        }
        if (name.rfind("german_n", 0) == 0)
            return verif::buildGermanModel(
                std::stoul(name.substr(8)), shape);
        for (const verif::BundledModel &m : verif::bundledModels())
            if (m.name == name)
                return m.build(shape);
        ADD_FAILURE() << "unknown model " << name;
        return TransitionSystem{};
    }
};

TEST_P(IndexDifferential, SequentialFixpointIdentical)
{
    const TransitionSystem ts = build();
    expectSameFix(runFix(ts, true), runFix(ts, false), GetParam());
}

TEST_P(IndexDifferential, WalkerOutcomeIdentical)
{
    const TransitionSystem ts = build();
    WalkOptions opt;
    opt.walks = 64;
    opt.depth = 256;
    opt.seed = 1;
    opt.ruleIndex = true;
    const WalkResult on = walkExplore(ts, opt);
    opt.ruleIndex = false;
    const WalkResult off = walkExplore(ts, opt);
    // Same picks, same traces, same verdicts — bit for bit.
    EXPECT_EQ(int(on.status), int(off.status)) << GetParam();
    EXPECT_EQ(on.stepsTaken, off.stepsTaken) << GetParam();
    EXPECT_EQ(on.deadEnds, off.deadEnds) << GetParam();
    EXPECT_EQ(on.walkIndex, off.walkIndex) << GetParam();
    EXPECT_EQ(on.trace, off.trace) << GetParam();
    EXPECT_EQ(on.violatedInvariant, off.violatedInvariant)
        << GetParam();
    // No skip-count assertion here: corpus mutants rewritten via
    // overrideEffect are write-unknown, so their delta legitimately
    // re-evaluates every guard (see WalkerSkipsOnCleanModel).
}

TEST(WalkerCounters, WalkerSkipsOnCleanModel)
{
    ModelShape shape;
    const TransitionSystem ts = verif::buildGermanModel(4, shape);
    WalkOptions opt;
    opt.walks = 32;
    opt.depth = 512;
    opt.seed = 3;
    const WalkResult on = walkExplore(ts, opt);
    ASSERT_GT(on.stepsTaken, 0u);
    EXPECT_GT(on.guardEvalsSkipped, 0u);
    EXPECT_GT(on.canonIdentityHits, 0u);
    opt.ruleIndex = false;
    const WalkResult off = walkExplore(ts, opt);
    EXPECT_EQ(off.guardEvalsSkipped, 0u);
    EXPECT_EQ(off.canonIdentityHits, 0u);
    EXPECT_LT(on.guardEvals, off.guardEvals);
}

std::vector<std::string>
differentialModels()
{
    std::vector<std::string> names;
    for (const verif::BundledModel &m : verif::bundledModels())
        names.push_back(m.name);
    names.push_back("german_n4");
    for (const verif::Mutant &m : verif::mutantRegistry())
        names.push_back("mutant:" + m.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsAndMutants, IndexDifferential,
    ::testing::ValuesIn(differentialModels()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string n = info.param;
        for (char &c : n)
            if (c == ':' || c == '.' || c == '-')
                c = '_';
        return n;
    });

TEST(IndexDifferentialParallel, GermanThreadsAgree)
{
    ModelShape shape;
    const TransitionSystem ts = verif::buildGermanModel(4, shape);
    const Fix seqOn = runFix(ts, true);
    for (unsigned threads : {2u, 4u}) {
        expectSameFix(runFix(ts, true, threads), seqOn,
                      "threads=" + std::to_string(threads) + " on");
        expectSameFix(runFix(ts, false, threads), seqOn,
                      "threads=" + std::to_string(threads) + " off");
    }
}

// ---------------------------------------------------------------------
// Counters and the identity gate.
// ---------------------------------------------------------------------

TEST(IndexCounters, OnPathCountsOffPathZeros)
{
    ModelShape shape;
    const TransitionSystem ts = verif::buildGermanModel(4, shape);

    ExploreLimits lim;
    lim.maxSeconds = 300.0;
    const ExploreResult on = explore(ts, lim, false, false);
    EXPECT_GT(on.guardEvals, 0u);
    EXPECT_GT(on.guardEvalsSkipped, 0u);
    EXPECT_GT(on.inPlaceFirings, 0u);
    EXPECT_GT(on.canonIdentityHits, 0u);

    lim.ruleIndex = false;
    const ExploreResult off = explore(ts, lim, false, false);
    // Off: every expanded state pays the full R-rule scan...
    EXPECT_EQ(off.guardEvals,
              off.statesExplored * ts.rules().size());
    // ...and none of the index machinery runs.
    EXPECT_EQ(off.guardEvalsSkipped, 0u);
    EXPECT_EQ(off.inPlaceFirings, 0u);
    EXPECT_EQ(off.canonIdentityHits, 0u);
    // The index never evaluates MORE guards than the full scan.
    EXPECT_LT(on.guardEvals, off.guardEvals);
    EXPECT_EQ(on.guardEvals + on.guardEvalsSkipped, off.guardEvals);
}

/** Two symmetric one-var leaves with a sort canonicalizer but NO
 *  exactness predicate: the engines must fall back to the
 *  copy-canonicalize-compare identity test, stay bit-identical, and
 *  still score identity hits (plus genuine misses — the toy swaps
 *  blocks on some firings). */
TransitionSystem
permutingToy(bool withCheck)
{
    TransitionSystem ts;
    const auto a = ts.addVar("a", 0);
    const auto b = ts.addVar("b", 0);
    for (std::uint8_t v = 0; v < 3; ++v) {
        ts.addRule("bumpA" + std::to_string(v),
                   ActionKind::Internal, {geq(a, v)},
                   {eset(a, std::uint8_t(v + 1))});
        ts.addRule("bumpB" + std::to_string(v),
                   ActionKind::Internal, {geq(b, v)},
                   {eset(b, std::uint8_t(v + 1))});
    }
    TransitionSystem::Canonicalizer canon = [](VState &s) {
        if (s[0] > s[1])
            std::swap(s[0], s[1]);
    };
    if (withCheck) {
        ts.setCanonicalizer(canon, [](const VState &s) {
            return s[0] <= s[1];
        });
    } else {
        ts.setCanonicalizer(canon);
    }
    ts.addInvariant("bounded",
                    {GuardTerm{0, GuardTerm::Op::Le, 3},
                     GuardTerm{1, GuardTerm::Op::Le, 3}});
    return ts;
}

TEST(IdentityGate, FallbackCompareMatchesPredicate)
{
    ExploreLimits lim;
    lim.maxSeconds = 60.0;
    const ExploreResult pred =
        explore(permutingToy(true), lim, false, false);
    const ExploreResult cmp =
        explore(permutingToy(false), lim, false, false);
    lim.ruleIndex = false;
    const ExploreResult off =
        explore(permutingToy(false), lim, false, false);

    // Same fixpoint all three ways.
    EXPECT_EQ(pred.statesExplored, off.statesExplored);
    EXPECT_EQ(cmp.statesExplored, off.statesExplored);
    EXPECT_EQ(cmp.transitionsFired, off.transitionsFired);
    EXPECT_EQ(cmp.invariantChecks, off.invariantChecks);
    EXPECT_EQ(firesDigest(cmp.ruleFires),
              firesDigest(off.ruleFires));

    // The fallback and the predicate agree on what "identity" is.
    EXPECT_EQ(cmp.canonIdentityHits, pred.canonIdentityHits);
    // This toy genuinely permutes sometimes: hits < transitions.
    EXPECT_GT(cmp.canonIdentityHits, 0u);
    EXPECT_LT(cmp.canonIdentityHits, cmp.transitionsFired);
}

} // namespace
