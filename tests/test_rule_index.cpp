/**
 * @file
 * Candidate-scan successor generation: guard keys and the RuleDepIndex
 * candidate table (unit tests), key soundness at every reachable state
 * of the bundled models, German, open and closed NeoMESI and every
 * corpus mutant, and differential fixpoint equality against an opaque
 * copy of each model.
 *
 * The opaque copy rewrites every guard through Rule::overrideGuard,
 * which drops its key and its flat terms: every rule is a candidate on
 * every state, so the engines fall back to the full guard scan. The
 * contract under test is that the candidate table is a pure perf
 * device — status, states, transitions, per-rule fire digests,
 * invariant-check counts, traces and walker picks are bit-identical
 * either way. guardEvals is compared only where it is deterministic:
 * it counts PHYSICAL evaluations, and under the parallel explorer
 * which racing parent interns a state first is not.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "verif/explorer.hpp"
#include "verif/models/flat_closed.hpp"
#include "verif/models/flat_open.hpp"
#include "verif/models/german.hpp"
#include "verif/models/mutants.hpp"
#include "verif/random_walk.hpp"
#include "verif/transition_system.hpp"

using namespace neo;
using namespace neo::verif;

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

/** Candidate rule indices of @p s, ascending. */
std::vector<std::size_t>
candidatesOf(const RuleDepIndex &idx, const VState &s)
{
    std::vector<std::uint64_t> bits(idx.ruleWords());
    idx.candidates(s, bits.data());
    std::vector<std::size_t> out;
    for (std::size_t r = 0; r < idx.numRules(); ++r) {
        if ((bits[r >> 6] >> (r & 63)) & 1)
            out.push_back(r);
    }
    return out;
}

/** Rules of @p ts that carry a guard key. */
std::size_t
keyedRules(const TransitionSystem &ts)
{
    return static_cast<std::size_t>(
        std::count_if(ts.rules().begin(), ts.rules().end(),
                      [](const auto &r) { return r.key.keyed; }));
}

/** @p ts with every guard made opaque: no key, no flat terms. */
TransitionSystem
opaqueCopy(TransitionSystem ts)
{
    for (std::size_t r = 0; r < ts.rules().size(); ++r) {
        TransitionSystem::Rule *rule = ts.findRule(ts.rules()[r].name);
        rule->overrideGuard(rule->guard);
    }
    return ts;
}

// ---------------------------------------------------------------------
// Guard keys and the candidate table.
// ---------------------------------------------------------------------

/** Three flat rules over {x, y, z}:
 *    incX: guard x==0, effect x:=1
 *    onX : guard x==1, effect y:=1
 *    onY : guard y==1, effect z:=1 */
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
    TransitionSystem ts = flatToy();
    // The key is the term admitting the fewest values: x <= 2 admits
    // three, z == 0 one.
    ts.addRule("narrow", ActionKind::Internal,
               {GuardTerm{0, GuardTerm::Op::Le, 2}, geq(2, 0)},
               {eset(2, 1)});
    // No terms, no key: a candidate everywhere.
    ts.addRule("always", ActionKind::Internal,
               std::vector<GuardTerm>{}, {eset(2, 0)});
    const auto &rules = ts.rules();
    EXPECT_TRUE(rules[0].key.keyed);
    EXPECT_EQ(rules[0].key.var, 0u);
    EXPECT_EQ(rules[0].key.count(), 1);
    EXPECT_TRUE(rules[0].key.admits(0));
    EXPECT_EQ(rules[3].key.var, 2u);
    EXPECT_FALSE(rules[4].key.keyed);

    const RuleDepIndex idx(ts);
    ASSERT_EQ(idx.numRules(), 5u);
    using V = std::vector<std::size_t>;
    EXPECT_EQ(candidatesOf(idx, {0, 0, 0}), (V{0, 3, 4}));
    EXPECT_EQ(candidatesOf(idx, {1, 0, 1}), (V{1, 4}));
    EXPECT_EQ(candidatesOf(idx, {1, 1, 1}), (V{1, 2, 4}));
    // A value past the last row selects no rule keyed on that var.
    EXPECT_EQ(candidatesOf(idx, {7, 9, 9}), (V{4}));
}

TEST(RuleDepIndex, LambdaGuardIsConservativeUntilDeclared)
{
    TransitionSystem ts = flatToy();
    const auto w = ts.addVar("w", 0);
    const TransitionSystem::Guard g = [w](const VState &s) {
        return s[w] == 0 || s[w] == 2;
    };
    // Lambda guard, no key: a candidate on every state.
    ts.addRule("opaque", ActionKind::Internal, g, {eset(w, 1)});
    {
        const RuleDepIndex idx(ts);
        EXPECT_EQ(keyedRules(ts), 3u);
        for (std::uint8_t v = 0; v < 4; ++v) {
            const auto c = candidatesOf(idx, {1, 1, 1, v});
            EXPECT_NE(std::find(c.begin(), c.end(), 3u), c.end());
        }
    }
    // Declared with a key, it is a candidate only where the key
    // admits the state.
    ts.addRule("keyed", ActionKind::Internal, g, {eset(w, 1)},
               GuardKey(w, {0, 2}));
    const RuleDepIndex idx(ts);
    EXPECT_EQ(keyedRules(ts), 4u);
    for (std::uint8_t v = 0; v < 4; ++v) {
        const auto c = candidatesOf(idx, {1, 1, 1, v});
        const bool cand = std::find(c.begin(), c.end(), 4u) != c.end();
        EXPECT_EQ(cand, v == 0 || v == 2) << int(v);
    }
}

TEST(RuleDepIndex, OverrideGuardDropsDeclaredReads)
{
    TransitionSystem ts = flatToy();
    // Mutant-style surgical rewrite: overrideGuard must clear both the
    // flat terms and the key, which the new guard need not imply.
    TransitionSystem::Rule *r = ts.findRule("onX");
    ASSERT_NE(r, nullptr);
    r->overrideGuard([](const VState &s) { return s[0] == 0; });
    EXPECT_FALSE(r->key.keyed);
    EXPECT_FALSE(r->guardFlat);
    const RuleDepIndex idx(ts);
    EXPECT_EQ(keyedRules(ts), 2u);
    const auto c = candidatesOf(idx, {0, 0, 0});
    EXPECT_EQ(c, (std::vector<std::size_t>{0, 1}));
}

TEST(RuleDepIndex, OverrideEffectDropsFlatWrites)
{
    TransitionSystem ts = flatToy();
    TransitionSystem::Rule *r = ts.findRule("onY");
    ASSERT_NE(r, nullptr);
    r->overrideEffect([](VState &s) { s[2] = 7; });
    EXPECT_FALSE(r->effectFlat);
    EXPECT_TRUE(r->effectTerms.empty());
    // The key describes the guard alone; an effect rewrite keeps it.
    EXPECT_TRUE(r->key.keyed);
    // The compiled table fires the rewrite, not the old z := 1.
    const CompiledRules comp(ts);
    VState s{1, 1, 0};
    comp.effect(2, s);
    EXPECT_EQ(s[2], 7);
}

TEST(RuleDepIndex, GermanAvgAffectedWellBelowFullScan)
{
    ModelShape shape;
    const TransitionSystem ts = buildGermanModel(4, shape);
    EXPECT_EQ(keyedRules(ts), ts.rules().size());
    const RuleDepIndex idx(ts);
    ExploreLimits lim;
    lim.maxSeconds = 300.0;
    const ExploreResult r = explore(ts, lim, false, false);
    ASSERT_EQ(r.status, VerifStatus::Verified);
    // The point of the table: a state's candidate scan must cost far
    // less than the full R-rule scan.
    EXPECT_LT(double(r.guardEvals),
              0.5 * double(r.statesExplored * idx.numRules()));
}

TEST(RuleDepIndex, OpenModelPastTheOldBitsetWidth)
{
    // Open NeoMESI at N=8 has more than 256 rules; candidate scratch
    // is sized from the rule count, so the scan covers every rule.
    ModelShape shape;
    const TransitionSystem ts = buildOpenModel(
        8, VerifFeatures::neoMESI(), CompositionMethod::Modified, shape);
    ASSERT_GT(ts.rules().size(), 256u);
    WalkOptions opt;
    opt.walks = 8;
    opt.depth = 512;
    const WalkResult keyed = walkExplore(ts, opt);
    const WalkResult full = walkExplore(opaqueCopy(ts), opt);
    EXPECT_EQ(int(keyed.status), int(full.status));
    EXPECT_EQ(keyed.stepsTaken, full.stepsTaken);
    EXPECT_EQ(keyed.deadEnds, full.deadEnds);
    EXPECT_GT(keyed.guardEvalsSkipped, 0u);
}

// ---------------------------------------------------------------------
// Key soundness: at every reachable state, every rule whose guard
// holds is a candidate.
// ---------------------------------------------------------------------

struct ModelCase
{
    std::string name;
    std::function<TransitionSystem()> build;
};

/** Test names print the model, not the parameter's raw bytes (which
 *  hold pointers, so they would change from build to build). */
void
PrintTo(const ModelCase &c, std::ostream *os)
{
    *os << '"' << c.name << '"';
}

std::vector<ModelCase>
soundnessModels()
{
    std::vector<ModelCase> cases;
    // Some instances are bundled models too; each is checked once.
    auto add = [&](const std::string &name,
                   std::function<TransitionSystem(ModelShape &)> b) {
        for (const ModelCase &c : cases)
            if (c.name == name)
                return;
        cases.push_back({name, [b] {
                             ModelShape shape;
                             return b(shape);
                         }});
    };
    for (const BundledModel &m : bundledModels())
        add(m.name, m.build);
    for (std::size_t n = 1; n <= 4; ++n) {
        add("german_n" + std::to_string(n), [n](ModelShape &shape) {
            return buildGermanModel(n, shape);
        });
    }
    const std::pair<const char *, CompositionMethod> methods[] = {
        {"none", CompositionMethod::None},
        {"original", CompositionMethod::Original},
        {"modified", CompositionMethod::Modified}};
    for (std::size_t n = 1; n <= 3; ++n) {
        add("closed_neomesi_n" + std::to_string(n),
            [n](ModelShape &shape) {
                return buildClosedModel(n, VerifFeatures::neoMESI(),
                                        shape);
            });
        for (const auto &[tag, method] : methods) {
            add(std::string("open_neomesi_") + tag + "_n" +
                    std::to_string(n),
                [n, m = method](ModelShape &shape) {
                    return buildOpenModel(n, VerifFeatures::neoMESI(), m,
                                          shape);
                });
        }
    }
    for (const Mutant &m : mutantRegistry())
        add("mutant_" + m.name, m.build);
    return cases;
}

class GuardKeySoundness : public ::testing::TestWithParam<ModelCase>
{
};

TEST_P(GuardKeySoundness, EveryEnabledRuleIsACandidate)
{
    TransitionSystem ts = GetParam().build();
    // Without invariants the search runs to the full fixpoint, so a
    // mutant's states past its first violation are checked too.
    while (!ts.invariants().empty())
        ts.dropInvariant(ts.invariants().front().name);
    const RuleDepIndex idx(ts);
    const CompiledRules comp(ts);
    std::vector<std::uint64_t> bits(idx.ruleWords());
    std::uint64_t misses = 0, enabled = 0;
    ExploreLimits lim;
    lim.maxSeconds = 300.0;
    const ExploreResult r = explore(
        ts, lim, false, false, [&](const VState &s) {
            idx.candidates(s, bits.data());
            for (std::size_t q = 0; q < comp.size(); ++q) {
                if (!comp.guard(q, s))
                    continue;
                ++enabled;
                if (((bits[q >> 6] >> (q & 63)) & 1) == 0 &&
                    misses++ == 0)
                    ADD_FAILURE() << ts.rules()[q].name
                                  << " enabled but not a candidate at "
                                  << ts.describe(s);
            }
        });
    ASSERT_EQ(r.status, VerifStatus::Verified);
    EXPECT_EQ(misses, 0u);
    EXPECT_EQ(enabled, r.transitionsFired);
}

INSTANTIATE_TEST_SUITE_P(
    Models, GuardKeySoundness, ::testing::ValuesIn(soundnessModels()),
    [](const ::testing::TestParamInfo<ModelCase> &info) {
        return info.param.name;
    });

// ---------------------------------------------------------------------
// Differential: keyed model == opaque copy, everywhere.
// ---------------------------------------------------------------------

struct Fix
{
    VerifStatus status;
    std::uint64_t states, transitions, invChecks, digest, traceLen;
    std::string violated;
};

Fix
runFix(const TransitionSystem &ts, unsigned threads = 1)
{
    ExploreLimits lim;
    lim.maxSeconds = 300.0;
    lim.threads = threads;
    const ExploreResult r = explore(ts, lim, false, threads == 1);
    return Fix{r.status,           r.statesExplored,
               r.transitionsFired, r.invariantChecks,
               firesDigest(r.ruleFires), r.trace.size(),
               r.violatedInvariant};
}

void
expectSameFix(const Fix &a, const Fix &b, const std::string &what)
{
    EXPECT_EQ(int(a.status), int(b.status)) << what;
    EXPECT_EQ(a.states, b.states) << what;
    EXPECT_EQ(a.transitions, b.transitions) << what;
    EXPECT_EQ(a.invChecks, b.invChecks) << what;
    EXPECT_EQ(a.digest, b.digest) << what;
    EXPECT_EQ(a.violated, b.violated) << what;
    EXPECT_EQ(a.traceLen, b.traceLen) << what;
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
            const Mutant *m =
                findMutant(name.substr(std::string("mutant:").size()));
            EXPECT_NE(m, nullptr) << name;
            return m->build(shape);
        }
        if (name.rfind("german_n", 0) == 0)
            return buildGermanModel(std::stoul(name.substr(8)), shape);
        for (const BundledModel &m : bundledModels())
            if (m.name == name)
                return m.build(shape);
        ADD_FAILURE() << "unknown model " << name;
        return TransitionSystem{};
    }
};

TEST_P(IndexDifferential, SequentialFixpointIdentical)
{
    const TransitionSystem ts = build();
    expectSameFix(runFix(ts), runFix(opaqueCopy(ts)), GetParam());
}

TEST_P(IndexDifferential, ParallelVerdictIdentical)
{
    // A violating run's counts depend on where the racing workers
    // stop, so only verified runs compare counts.
    const TransitionSystem ts = build();
    const TransitionSystem opaque = opaqueCopy(ts);
    const Fix seq = runFix(ts);
    for (unsigned threads : {2u, 4u}) {
        const std::string what =
            GetParam() + " threads=" + std::to_string(threads);
        for (const Fix &par :
             {runFix(ts, threads), runFix(opaque, threads)}) {
            EXPECT_EQ(int(par.status), int(seq.status)) << what;
            EXPECT_EQ(par.violated, seq.violated) << what;
            if (seq.status == VerifStatus::Verified) {
                EXPECT_EQ(par.states, seq.states) << what;
                EXPECT_EQ(par.transitions, seq.transitions) << what;
                EXPECT_EQ(par.invChecks, seq.invChecks) << what;
                EXPECT_EQ(par.digest, seq.digest) << what;
            }
        }
    }
}

TEST_P(IndexDifferential, WalkerOutcomeIdentical)
{
    const TransitionSystem ts = build();
    WalkOptions opt;
    opt.walks = 64;
    opt.depth = 256;
    opt.seed = 1;
    const WalkResult keyed = walkExplore(ts, opt);
    const WalkResult full = walkExplore(opaqueCopy(ts), opt);
    // Same picks, same traces, same verdicts — bit for bit.
    EXPECT_EQ(int(keyed.status), int(full.status)) << GetParam();
    EXPECT_EQ(keyed.stepsTaken, full.stepsTaken) << GetParam();
    EXPECT_EQ(keyed.deadEnds, full.deadEnds) << GetParam();
    EXPECT_EQ(keyed.walkIndex, full.walkIndex) << GetParam();
    EXPECT_EQ(keyed.trace, full.trace) << GetParam();
    EXPECT_EQ(keyed.violatedInvariant, full.violatedInvariant)
        << GetParam();
    EXPECT_EQ(keyed.canonIdentityHits, full.canonIdentityHits)
        << GetParam();
    EXPECT_EQ(full.guardEvalsSkipped, 0u) << GetParam();
}

std::vector<std::string>
differentialModels()
{
    std::vector<std::string> names;
    for (const BundledModel &m : bundledModels())
        names.push_back(m.name);
    names.push_back("german_n4");
    for (const Mutant &m : mutantRegistry())
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
    const TransitionSystem ts = buildGermanModel(4, shape);
    const TransitionSystem opaque = opaqueCopy(ts);
    const Fix seq = runFix(ts);
    expectSameFix(runFix(opaque), seq, "opaque threads=1");
    for (unsigned threads : {2u, 4u}) {
        expectSameFix(runFix(ts, threads), seq,
                      "threads=" + std::to_string(threads) + " keyed");
        expectSameFix(runFix(opaque, threads), seq,
                      "threads=" + std::to_string(threads) + " opaque");
    }
}

TEST(WalkerCounters, WalkerSkipsOnCleanModel)
{
    ModelShape shape;
    const TransitionSystem ts = buildGermanModel(4, shape);
    WalkOptions opt;
    opt.walks = 32;
    opt.depth = 512;
    opt.seed = 3;
    const WalkResult keyed = walkExplore(ts, opt);
    ASSERT_GT(keyed.stepsTaken, 0u);
    EXPECT_GT(keyed.guardEvalsSkipped, 0u);
    EXPECT_GT(keyed.canonIdentityHits, 0u);
    const WalkResult full = walkExplore(opaqueCopy(ts), opt);
    EXPECT_EQ(full.guardEvalsSkipped, 0u);
    EXPECT_LT(keyed.guardEvals, full.guardEvals);
    EXPECT_EQ(keyed.guardEvals + keyed.guardEvalsSkipped,
              full.guardEvals);
}

// ---------------------------------------------------------------------
// Counters and the canonical-check skip.
// ---------------------------------------------------------------------

TEST(IndexCounters, OnPathCountsOffPathZeros)
{
    ModelShape shape;
    const TransitionSystem ts = buildGermanModel(4, shape);

    ExploreLimits lim;
    lim.maxSeconds = 300.0;
    const ExploreResult keyed = explore(ts, lim, false, false);
    EXPECT_GT(keyed.guardEvals, 0u);
    EXPECT_GT(keyed.guardEvalsSkipped, 0u);
    EXPECT_GT(keyed.canonIdentityHits, 0u);

    const ExploreResult full = explore(opaqueCopy(ts), lim, false, false);
    // Opaque guards: every expanded state pays the full R-rule scan
    // and nothing is skipped...
    EXPECT_EQ(full.guardEvals, full.statesExplored * ts.rules().size());
    EXPECT_EQ(full.guardEvalsSkipped, 0u);
    // ...and the candidate scan accounts for every rule either way.
    EXPECT_LT(keyed.guardEvals, full.guardEvals);
    EXPECT_EQ(keyed.guardEvals + keyed.guardEvalsSkipped,
              full.guardEvals);
    // The same successors meet the same canonical check.
    EXPECT_EQ(keyed.canonIdentityHits, full.canonIdentityHits);
}

/** Two symmetric one-var leaves with a sort canonicalizer, with or
 *  without its exactness predicate (the toy swaps blocks on some
 *  firings, so the predicate genuinely says no sometimes). */
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
    ts.addInvariant("bounded", [](const VState &s) {
        return s[0] <= 3 && s[1] <= 3;
    });
    return ts;
}

TEST(IdentityGate, FallbackCompareMatchesPredicate)
{
    ExploreLimits lim;
    lim.maxSeconds = 60.0;
    const ExploreResult pred =
        explore(permutingToy(true), lim, false, false);
    const ExploreResult plain =
        explore(permutingToy(false), lim, false, false);

    // Skipping the canonicalizer where the predicate allows it reaches
    // the fixpoint of canonicalizing every successor.
    EXPECT_EQ(pred.statesExplored, plain.statesExplored);
    EXPECT_EQ(pred.transitionsFired, plain.transitionsFired);
    EXPECT_EQ(pred.invariantChecks, plain.invariantChecks);
    EXPECT_EQ(firesDigest(pred.ruleFires), firesDigest(plain.ruleFires));

    // Only a predicate can skip; this toy needs the canonicalizer on
    // some firings, so hits < transitions.
    EXPECT_EQ(plain.canonIdentityHits, 0u);
    EXPECT_GT(pred.canonIdentityHits, 0u);
    EXPECT_LT(pred.canonIdentityHits, pred.transitionsFired);
}

} // namespace
