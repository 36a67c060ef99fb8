/**
 * @file
 * Guarded-command transition systems for the model checker.
 *
 * This is the Murphi/Cubicle-workalike substrate the Neo verification
 * methodology runs on: a finite vector of small-domain variables, a
 * set of named guarded rules (each tagged input / output / internal in
 * the Neo sense), and a set of invariants. Protocol models (the flat
 * Closed and Open Neo Systems of §2.5) are built against this.
 */

#ifndef NEO_VERIF_TRANSITION_SYSTEM_HPP
#define NEO_VERIF_TRANSITION_SYSTEM_HPP

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "neo/execution.hpp"
#include "sim/logging.hpp"

namespace neo
{

/** A model-checker state: one byte per declared variable. */
using VState = std::vector<std::uint8_t>;

/**
 * One conjunct of a flat (declarative) guard: `s[var] OP imm`. A
 * guard expressed as a vector of these is a pure conjunction the
 * engines can evaluate as a tight table scan — no std::function
 * indirect call, no captured-lambda heap hop. Disjunctions and
 * quantified conditions stay as std::function fallbacks.
 */
struct GuardTerm
{
    enum class Op : std::uint8_t
    {
        Eq, ///< s[var] == imm
        Ne, ///< s[var] != imm
        Lt, ///< s[var] <  imm
        Le, ///< s[var] <= imm
        Gt, ///< s[var] >  imm
        Ge, ///< s[var] >= imm
    };
    std::uint16_t var = 0;
    Op op = Op::Eq;
    std::uint8_t imm = 0;

    /** Whether the value @p v of s[var] satisfies the term. */
    bool
    holds(std::uint8_t v) const
    {
        switch (op) {
          case Op::Eq: return v == imm;
          case Op::Ne: return v != imm;
          case Op::Lt: return v < imm;
          case Op::Le: return v <= imm;
          case Op::Gt: return v > imm;
          case Op::Ge: return v >= imm;
        }
        return false;
    }
};

/**
 * A rule's guard key: one necessary conjunct `s[var] ∈ values` of its
 * guard, so guard(s) implies that s[var] is one of the values. The
 * engines evaluate a keyed rule's guard only on states whose s[var]
 * the key admits (RuleDepIndex); an unkeyed rule is evaluated on
 * every state. The values live in an inline 256-bit mask, so a key
 * costs its rule no heap allocation.
 */
struct GuardKey
{
    bool keyed = false;
    std::uint16_t var = 0;
    /** Bit v set: the key admits s[var] == v. */
    std::array<std::uint64_t, 4> values{};

    GuardKey() = default;
    /** The key `s[var] ∈ vals`. */
    GuardKey(std::size_t var, std::initializer_list<std::uint8_t> vals);
    /** The values one flat term admits. */
    explicit GuardKey(const GuardTerm &t);

    bool
    admits(std::uint8_t v) const
    {
        return ((values[v >> 6] >> (v & 63)) & 1) != 0;
    }
    /** Admitted values: the fewer, the more selective the key. */
    int count() const;
};

/**
 * One step of a flat effect, applied in sequence: `s[dst] = imm`
 * (Set) or `s[dst] = s[src]` (CopyVar, reading the CURRENT, partially
 * updated state — exactly like the statement sequence in a lambda).
 */
struct EffectTerm
{
    enum class Op : std::uint8_t
    {
        Set,     ///< s[dst] = imm
        CopyVar, ///< s[dst] = s[src]
    };
    std::uint16_t dst = 0;
    Op op = Op::Set;
    std::uint16_t src = 0;
    std::uint8_t imm = 0;
};

/**
 * Declarative finite transition system.
 */
class TransitionSystem
{
  public:
    using Guard = std::function<bool(const VState &)>;
    using Effect = std::function<void(VState &)>;
    using Check = std::function<bool(const VState &)>;
    /** Maps a state to its canonical symmetry representative. */
    using Canonicalizer = std::function<void(VState &)>;
    /** Exact identity predicate for the canonicalizer: returns true
     *  IFF the canonicalizer would leave the state unchanged. Models
     *  whose canon sorts leaf blocks can answer this with one
     *  sortedness sweep — no allocation, no sort — which lets the
     *  engines skip the canonicalization call entirely on the ~40-50%
     *  of firings that land on an already-canonical successor
     *  (canonicalize()). Optional; when absent every successor is
     *  canonicalized. */
    using CanonicalCheck = std::function<bool(const VState &)>;
    /** Permission summary of a state (the Neo sumC output). */
    using Summarizer = std::function<Perm(const VState &)>;

    struct Rule
    {
        std::string name;
        ActionKind kind = ActionKind::Internal;
        Guard guard;
        Effect effect;
        /** Flat term forms, when the model declared them (guardFlat /
         *  effectFlat distinguish "flat with zero terms" from "not
         *  expressible"). The `guard`/`effect` functions above are
         *  ALWAYS valid — synthesized from the terms when the rule
         *  was declared flat — so replay, fingerprinting and the
         *  mutant registry never care which form a rule uses. */
        std::vector<GuardTerm> guardTerms;
        std::vector<EffectTerm> effectTerms;
        bool guardFlat = false;
        bool effectFlat = false;
        /** Necessary conjunct of the guard: declared with a lambda
         *  guard, derived from the most selective term of a flat one,
         *  unkeyed when neither says anything. */
        GuardKey key;

        /** Rewrite the guard/effect with an opaque function (the
         *  mutant registry's surgical rewrites). MUST be used instead
         *  of assigning the member directly: a stale flat form — or a
         *  stale key, which the new guard need not imply — would make
         *  CompiledRules or the candidate table reason about the
         *  pre-mutation behavior. */
        void
        overrideGuard(Guard g)
        {
            guard = std::move(g);
            guardTerms.clear();
            guardFlat = false;
            key = GuardKey{};
        }
        void
        overrideEffect(Effect e)
        {
            effect = std::move(e);
            effectTerms.clear();
            effectFlat = false;
        }
    };

    struct Invariant
    {
        std::string name;
        Check check;
    };

    /** Declare a variable; @return its index into the state vector. */
    std::size_t
    addVar(std::string name, std::uint8_t init = 0)
    {
        varNames_.push_back(std::move(name));
        init_.push_back(init);
        return varNames_.size() - 1;
    }

    /** Rule with function forms. @p key, when given, must be a
     *  necessary conjunct of @p guard (see GuardKey). */
    void
    addRule(std::string name, ActionKind kind, Guard guard, Effect effect,
            GuardKey key = {})
    {
        Rule r;
        r.name = std::move(name);
        r.kind = kind;
        r.guard = std::move(guard);
        r.effect = std::move(effect);
        r.key = key;
        rules_.push_back(std::move(r));
    }

    /** Declare a rule in flat term form. The function forms are
     *  synthesized from the terms, so every consumer that only knows
     *  `Rule::guard`/`Rule::effect` (trace replay, fingerprints,
     *  mutants) behaves identically; the engines' CompiledRules
     *  evaluates the terms directly, skipping the std::function
     *  dispatch on the hot path. The key is the term admitting the
     *  fewest values. */
    void addRule(std::string name, ActionKind kind,
                 std::vector<GuardTerm> guard,
                 std::vector<EffectTerm> effect);

    /** Flat rule with a fallback (non-flat) guard — for rules whose
     *  condition needs a disjunction or quantifier but whose effect
     *  is a plain assignment sequence. */
    void addRule(std::string name, ActionKind kind, Guard guard,
                 std::vector<EffectTerm> effect, GuardKey key = {});

    void
    addInvariant(std::string name, Check check)
    {
        invariants_.push_back(Invariant{std::move(name), std::move(check)});
    }

    /** Remove an invariant by name; @return whether it existed. Used
     *  by corpus mutants whose protocol change makes one bookkeeping
     *  invariant vacuous, so the remaining violation is unique. */
    bool dropInvariant(const std::string &name);

    void
    setCanonicalizer(Canonicalizer c, CanonicalCheck isCanonical = {})
    {
        canon_ = std::move(c);
        canonCheck_ = std::move(isCanonical);
    }
    void setSummarizer(Summarizer s) { sum_ = std::move(s); }

    VState initialState() const { return init_; }
    std::size_t numVars() const { return init_.size(); }
    const std::vector<Rule> &rules() const { return rules_; }
    const std::vector<Invariant> &invariants() const
    {
        return invariants_;
    }
    const Canonicalizer &canonicalizer() const { return canon_; }
    const CanonicalCheck &canonicalCheck() const { return canonCheck_; }

    /** Map @p s to its canonical representative in place, skipping
     *  the canonicalizer when the CanonicalCheck reports @p s already
     *  canonical. @return whether the check skipped it. */
    bool
    canonicalize(VState &s) const
    {
        if (!canon_)
            return false;
        if (canonCheck_ && canonCheck_(s))
            return true;
        canon_(s);
        return false;
    }
    const Summarizer &summarizer() const { return sum_; }
    const std::string &varName(std::size_t i) const
    {
        return varNames_.at(i);
    }

    /** Index of a declared variable; fatal if absent. The mutation
     *  corpus addresses variables by name so mutants survive layout
     *  changes in the model builders. */
    std::size_t varIndex(const std::string &name) const;

    /** Mutable rule lookup by exact name; nullptr if absent. Exists
     *  for the mutant registry, which surgically rewrites guards and
     *  effects of otherwise-correct models. */
    Rule *findRule(const std::string &name);

    /** Render a state for counterexample traces. */
    std::string describe(const VState &s) const;

  private:
    std::vector<std::string> varNames_;
    VState init_;
    std::vector<Rule> rules_;
    std::vector<Invariant> invariants_;
    Canonicalizer canon_;
    CanonicalCheck canonCheck_;
    Summarizer sum_;
};

/**
 * Flat guard/effect tables compiled from a TransitionSystem's rules.
 *
 * Rules declared in term form evaluate as scans over two contiguous
 * term arrays (one branch-predictable loop, no virtual or indirect
 * dispatch); rules that only have function forms fall back to calling
 * them through a raw pointer. Every engine hot loop (sequential BFS,
 * the parallel workers, the random-walk falsifier) fires rules
 * through this table, so the two forms are behaviorally
 * indistinguishable by construction — addRule's synthesized functions
 * and the term evaluation here implement the same semantics, and the
 * golden-count suite pins it.
 *
 * Lifetime: holds pointers into @p ts; the system must outlive the
 * table. Immutable after construction, so one instance is safe to
 * share across worker threads. Rules must not be mutated (e.g. by the
 * mutant registry) after compilation — compile after mutation.
 */
class CompiledRules
{
  public:
    explicit CompiledRules(const TransitionSystem &ts);

    std::size_t size() const { return rules_.size(); }

    bool
    guard(std::size_t r, const VState &s) const
    {
        const Entry &e = rules_[r];
        if (!e.guardFlat)
            return (*e.guardFn)(s);
        for (std::uint32_t i = e.gBegin; i != e.gEnd; ++i) {
            const GuardTerm &t = gterms_[i];
            if (!t.holds(s[t.var]))
                return false;
        }
        return true;
    }

    void
    effect(std::size_t r, VState &s) const
    {
        const Entry &e = rules_[r];
        if (!e.effectFlat) {
            (*e.effectFn)(s);
            return;
        }
        for (std::uint32_t i = e.eBegin; i != e.eEnd; ++i) {
            const EffectTerm &t = eterms_[i];
            s[t.dst] = t.op == EffectTerm::Op::Set ? t.imm : s[t.src];
        }
    }

  private:
    struct Entry
    {
        std::uint32_t gBegin = 0, gEnd = 0;
        std::uint32_t eBegin = 0, eEnd = 0;
        bool guardFlat = false;
        bool effectFlat = false;
        const TransitionSystem::Guard *guardFn = nullptr;
        const TransitionSystem::Effect *effectFn = nullptr;
    };

    std::vector<Entry> rules_;
    std::vector<GuardTerm> gterms_;
    std::vector<EffectTerm> eterms_;
};

/**
 * Candidate table over a TransitionSystem's guard keys.
 *
 * For every keyed variable it holds one row per value: the bitset of
 * the rules keyed on that variable whose key admits the value. A
 * state's candidates are the unkeyed rules plus, for each keyed
 * variable, the row selected by the state's value of it. Rows run up
 * to the largest value any key on the variable admits, so a state
 * value past the last row selects no keyed rule. Every rule whose
 * guard holds is a candidate, because a key is a necessary conjunct
 * of its guard; forEachEnabled() therefore sees exactly the rules a
 * full scan would, in the same ascending order.
 *
 * Immutable after construction and safe to share read-only across
 * worker threads; holds no pointers into the system.
 */
class RuleDepIndex
{
  public:
    explicit RuleDepIndex(const TransitionSystem &ts);

    std::size_t numRules() const { return nRules_; }
    /** Words in one rule bitset (at least one). */
    std::size_t ruleWords() const { return words_; }

    /** Write the candidate bitset of @p s into @p out (ruleWords()
     *  words). */
    void
    candidates(const VState &s, std::uint64_t *out) const
    {
        std::copy(always_.begin(), always_.end(), out);
        for (const KeyedVar &k : vars_) {
            const std::uint8_t v = s[k.var];
            if (v >= k.rows)
                continue;
            const std::uint64_t *row =
                rows_.data() + (k.base + v) * words_;
            for (std::size_t w = 0; w < words_; ++w)
                out[w] |= row[w];
        }
    }

    /** Evaluate the guard of every candidate of @p s in ascending rule
     *  order and call @p f(r) for each rule r whose guard holds; a
     *  false return from @p f stops the scan. @p scratch holds
     *  ruleWords() words. @return the number of guards evaluated. */
    template <class F>
    std::size_t
    forEachEnabled(const CompiledRules &comp, const VState &s,
                   std::uint64_t *scratch, F &&f) const
    {
        candidates(s, scratch);
        std::size_t evals = 0;
        for (std::size_t w = 0; w < words_; ++w) {
            for (std::uint64_t m = scratch[w]; m != 0; m &= m - 1) {
                const std::size_t r =
                    (w << 6) +
                    static_cast<std::size_t>(__builtin_ctzll(m));
                ++evals;
                if (comp.guard(r, s) && !f(r))
                    return evals;
            }
        }
        return evals;
    }

  private:
    /** A keyed variable's rows: rows_[(base + v) * words_ ...]. */
    struct KeyedVar
    {
        std::uint16_t var = 0;
        std::uint16_t rows = 0;
        std::uint32_t base = 0;
    };

    std::size_t nRules_ = 0, words_ = 1;
    std::vector<std::uint64_t> always_;
    std::vector<KeyedVar> vars_;
    std::vector<std::uint64_t> rows_;
};

} // namespace neo

#endif // NEO_VERIF_TRANSITION_SYSTEM_HPP
