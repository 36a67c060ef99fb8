#include "transition_system.hpp"

#include <algorithm>
#include <sstream>

namespace neo
{

namespace
{

/** Synthesized function forms of flat terms — the single semantic
 *  definition both the lambdas-by-synthesis and CompiledRules' table
 *  scan share (GuardTerm::holds). */
bool
evalGuardTerms(const std::vector<GuardTerm> &terms, const VState &s)
{
    for (const GuardTerm &t : terms) {
        if (!t.holds(s[t.var]))
            return false;
    }
    return true;
}

void
applyEffectTerms(const std::vector<EffectTerm> &terms, VState &s)
{
    for (const EffectTerm &t : terms)
        s[t.dst] = t.op == EffectTerm::Op::Set ? t.imm : s[t.src];
}

} // namespace

GuardKey::GuardKey(std::size_t v, std::initializer_list<std::uint8_t> vals)
    : keyed(true), var(static_cast<std::uint16_t>(v))
{
    for (const std::uint8_t x : vals)
        values[x >> 6] |= 1ULL << (x & 63);
}

GuardKey::GuardKey(const GuardTerm &t) : keyed(true), var(t.var)
{
    for (unsigned x = 0; x < 256; ++x) {
        if (t.holds(static_cast<std::uint8_t>(x)))
            values[x >> 6] |= 1ULL << (x & 63);
    }
}

int
GuardKey::count() const
{
    int n = 0;
    for (const std::uint64_t w : values)
        n += __builtin_popcountll(w);
    return n;
}

void
TransitionSystem::addRule(std::string name, ActionKind kind,
                          std::vector<GuardTerm> guard,
                          std::vector<EffectTerm> effect)
{
    Rule r;
    r.name = std::move(name);
    r.kind = kind;
    r.guardTerms = std::move(guard);
    r.effectTerms = std::move(effect);
    r.guardFlat = true;
    r.effectFlat = true;
    for (const GuardTerm &t : r.guardTerms) {
        const GuardKey k(t);
        if (!r.key.keyed || k.count() < r.key.count())
            r.key = k;
    }
    r.guard = [terms = r.guardTerms](const VState &s) {
        return evalGuardTerms(terms, s);
    };
    r.effect = [terms = r.effectTerms](VState &s) {
        applyEffectTerms(terms, s);
    };
    rules_.push_back(std::move(r));
}

void
TransitionSystem::addRule(std::string name, ActionKind kind,
                          Guard guard, std::vector<EffectTerm> effect,
                          GuardKey key)
{
    Rule r;
    r.name = std::move(name);
    r.kind = kind;
    r.guard = std::move(guard);
    r.key = key;
    r.effectTerms = std::move(effect);
    r.effectFlat = true;
    r.effect = [terms = r.effectTerms](VState &s) {
        applyEffectTerms(terms, s);
    };
    rules_.push_back(std::move(r));
}

CompiledRules::CompiledRules(const TransitionSystem &ts)
{
    const auto &rules = ts.rules();
    rules_.reserve(rules.size());
    for (const auto &r : rules) {
        Entry e;
        e.guardFlat = r.guardFlat;
        e.effectFlat = r.effectFlat;
        if (r.guardFlat) {
            e.gBegin = static_cast<std::uint32_t>(gterms_.size());
            gterms_.insert(gterms_.end(), r.guardTerms.begin(),
                           r.guardTerms.end());
            e.gEnd = static_cast<std::uint32_t>(gterms_.size());
        } else {
            e.guardFn = &r.guard;
        }
        if (r.effectFlat) {
            e.eBegin = static_cast<std::uint32_t>(eterms_.size());
            eterms_.insert(eterms_.end(), r.effectTerms.begin(),
                           r.effectTerms.end());
            e.eEnd = static_cast<std::uint32_t>(eterms_.size());
        } else {
            e.effectFn = &r.effect;
        }
        rules_.push_back(e);
    }
}

RuleDepIndex::RuleDepIndex(const TransitionSystem &ts)
{
    const auto &rules = ts.rules();
    nRules_ = rules.size();
    words_ = nRules_ == 0 ? 1 : (nRules_ + 63) / 64;
    always_.assign(words_, 0);

    // Pass 1: size each keyed variable's rows to one past the largest
    // value a key on it admits.
    std::vector<std::uint16_t> rowsOf(ts.numVars(), 0);
    for (std::size_t r = 0; r < nRules_; ++r) {
        const GuardKey &k = rules[r].key;
        if (!k.keyed) {
            always_[r >> 6] |= 1ULL << (r & 63);
            continue;
        }
        for (int w = 3; w >= 0; --w) {
            if (k.values[w] != 0) {
                const auto top = static_cast<std::uint16_t>(
                    64 * w + 64 - __builtin_clzll(k.values[w]));
                rowsOf[k.var] = std::max(rowsOf[k.var], top);
                break;
            }
        }
    }
    std::vector<std::uint32_t> baseOf(ts.numVars(), 0);
    std::uint32_t total = 0;
    for (std::size_t v = 0; v < rowsOf.size(); ++v) {
        if (rowsOf[v] == 0)
            continue;
        baseOf[v] = total;
        vars_.push_back(KeyedVar{static_cast<std::uint16_t>(v),
                                 rowsOf[v], total});
        total += rowsOf[v];
    }

    // Pass 2: each keyed rule sets its bit in the row of every value
    // its key admits.
    rows_.assign(static_cast<std::size_t>(total) * words_, 0);
    for (std::size_t r = 0; r < nRules_; ++r) {
        const GuardKey &k = rules[r].key;
        if (!k.keyed)
            continue;
        for (std::size_t w = 0; w < k.values.size(); ++w) {
            for (std::uint64_t m = k.values[w]; m != 0; m &= m - 1) {
                const std::size_t v =
                    64 * w +
                    static_cast<std::size_t>(__builtin_ctzll(m));
                rows_[(baseOf[k.var] + v) * words_ + (r >> 6)] |=
                    1ULL << (r & 63);
            }
        }
    }
}

std::size_t
TransitionSystem::varIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < varNames_.size(); ++i) {
        if (varNames_[i] == name)
            return i;
    }
    neo_fatal("no such model variable: ", name);
}

bool
TransitionSystem::dropInvariant(const std::string &name)
{
    for (auto it = invariants_.begin(); it != invariants_.end(); ++it) {
        if (it->name == name) {
            invariants_.erase(it);
            return true;
        }
    }
    return false;
}

TransitionSystem::Rule *
TransitionSystem::findRule(const std::string &name)
{
    for (auto &r : rules_) {
        if (r.name == name)
            return &r;
    }
    return nullptr;
}

std::string
TransitionSystem::describe(const VState &s) const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (i)
            os << " ";
        os << varNames_[i] << "=" << static_cast<int>(s[i]);
    }
    return os.str();
}

} // namespace neo
