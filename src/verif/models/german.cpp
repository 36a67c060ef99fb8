#include "german.hpp"

#include <string>

#include "leaf_canon.hpp"

namespace neo::verif
{

namespace
{

// Client cache states.
enum GermanSt : std::uint8_t { G_I = 0, G_S, G_E };

// Channel-1 (request) contents.
enum GermanReq : std::uint8_t { GR_None = 0, GR_ReqS, GR_ReqE };

// Channel-2 (grant/invalidate) contents.
enum GermanGnt : std::uint8_t
{
    GG_None = 0,
    GG_GntS,
    GG_GntE,
    GG_Inv
};

// Channel-3 (invalidate-ack) contents.
enum GermanAck : std::uint8_t { GA_None = 0, GA_InvAck };

constexpr std::size_t leafBlockVars = 7;

} // namespace

TransitionSystem
buildGermanModel(std::size_t n, ModelShape &shape)
{
    neo_assert(n >= 1 && n <= 12, "german model supports 1..12 clients");
    TransitionSystem ts;

    // Home (directory) state.
    const auto exGntd = ts.addVar("exGntd", 0); // exclusive granted
    const auto curCmd = ts.addVar("curCmd", GR_None);
    const auto curPtrValid = ts.addVar("curPtrValid", 0);

    shape.sharedVars = ts.numVars();
    shape.numLeaves = n;
    shape.leafBlockSize = leafBlockVars;

    struct LV
    {
        std::size_t st, ch1, ch2, ch3, shrSet, invSet, curPtr;
    };
    std::vector<LV> L(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::string p = "c" + std::to_string(i) + ".";
        L[i].st = ts.addVar(p + "st", G_I);
        L[i].ch1 = ts.addVar(p + "ch1", GR_None);
        L[i].ch2 = ts.addVar(p + "ch2", GG_None);
        L[i].ch3 = ts.addVar(p + "ch3", GA_None);
        L[i].shrSet = ts.addVar(p + "shr", 0);
        L[i].invSet = ts.addVar(p + "inv", 0);
        // curPtr folded into the leaf block for symmetry.
        L[i].curPtr = ts.addVar(p + "cur", 0);
    }

    const std::size_t shared_count = shape.sharedVars;
    ts.setCanonicalizer(
        makeLeafSortCanonicalizer(shared_count, n, leafBlockVars),
        makeLeafSortedCheck(shared_count, n, leafBlockVars));

    // Rules are declared in flat term form (transition_system.hpp)
    // wherever the condition is a pure conjunction and the effect a
    // plain assignment sequence, so the engines' CompiledRules tables
    // fire them without std::function dispatch, and each derives its
    // guard key from its most selective term. Only sendInv keeps a
    // lambda guard: its condition is a genuine disjunction.
    using GOp = GuardTerm::Op;
    auto v16 = [](std::size_t x) {
        return static_cast<std::uint16_t>(x);
    };
    auto geq = [&](std::size_t var, std::uint8_t imm) {
        return GuardTerm{v16(var), GOp::Eq, imm};
    };
    auto gne = [&](std::size_t var, std::uint8_t imm) {
        return GuardTerm{v16(var), GOp::Ne, imm};
    };
    auto gle = [&](std::size_t var, std::uint8_t imm) {
        return GuardTerm{v16(var), GOp::Le, imm};
    };
    auto eset = [&](std::size_t dst, std::uint8_t imm) {
        return EffectTerm{v16(dst), EffectTerm::Op::Set, 0, imm};
    };
    auto ecopy = [&](std::size_t dst, std::size_t src) {
        return EffectTerm{v16(dst), EffectTerm::Op::CopyVar, v16(src),
                          0};
    };

    for (std::size_t i = 0; i < n; ++i) {
        const LV me = L[i];

        // Client requests. I-or-S collapses to st <= G_S (the enum is
        // ordered I < S < E), so sendReqE stays flat too.
        ts.addRule("sendReqS_" + std::to_string(i),
                   ActionKind::Internal,
                   {geq(me.st, G_I), geq(me.ch1, GR_None)},
                   {eset(me.ch1, GR_ReqS)});
        ts.addRule("sendReqE_" + std::to_string(i),
                   ActionKind::Internal,
                   {gle(me.st, G_S), geq(me.ch1, GR_None)},
                   {eset(me.ch1, GR_ReqE)});

        // Home picks a request when idle. The effect sequence mirrors
        // the statement order the lambda form had: latch the command
        // BEFORE clearing the channel (CopyVar reads the current,
        // partially updated state), clear every curPtr and snapshot
        // the sharer set into the invalidate set — only those clients
        // are invalidated for THIS command (real German's InvSet;
        // without it stale acks poison Exgntd) — then point at me.
        {
            std::vector<EffectTerm> eff;
            eff.push_back(ecopy(curCmd, me.ch1));
            eff.push_back(eset(me.ch1, GR_None));
            for (std::size_t j = 0; j < n; ++j) {
                eff.push_back(eset(L[j].curPtr, 0));
                eff.push_back(ecopy(L[j].invSet, L[j].shrSet));
            }
            eff.push_back(eset(me.curPtr, 1));
            eff.push_back(eset(curPtrValid, 1));
            ts.addRule("recvReq_" + std::to_string(i),
                       ActionKind::Internal,
                       {geq(curCmd, GR_None), gne(me.ch1, GR_None)},
                       std::move(eff));
        }

        // Home sends invalidates to sharers when needed. The guard is
        // a disjunction, so it stays a lambda, keyed on its
        // invalidate-set conjunct; the effect is flat.
        ts.addRule(
            "sendInv_" + std::to_string(i), ActionKind::Internal,
            TransitionSystem::Guard(
                [me, curCmd, exGntd](const VState &s) {
                    if (s[me.ch2] != GG_None || !s[me.invSet])
                        return false;
                    return s[curCmd] == GR_ReqE ||
                           (s[curCmd] == GR_ReqS && s[exGntd] == 1);
                }),
            {eset(me.ch2, GG_Inv), eset(me.invSet, 0)},
            GuardKey(gne(me.invSet, 0)));

        // Client acknowledges the invalidate.
        ts.addRule("recvInv_" + std::to_string(i),
                   ActionKind::Internal,
                   {geq(me.ch2, GG_Inv), geq(me.ch3, GA_None)},
                   {eset(me.ch2, GG_None), eset(me.st, G_I),
                    eset(me.ch3, GA_InvAck)});

        // Home collects the ack.
        ts.addRule("recvInvAck_" + std::to_string(i),
                   ActionKind::Internal,
                   {geq(me.ch3, GA_InvAck), gne(curCmd, GR_None)},
                   {eset(me.ch3, GA_None), eset(me.shrSet, 0),
                    eset(exGntd, 0)});

        // Home grants. sendGntE's "no sharers anywhere" quantifier
        // unrolls into one Eq-zero term per leaf (n is fixed at build
        // time), keeping the guard flat.
        ts.addRule("sendGntS_" + std::to_string(i),
                   ActionKind::Internal,
                   {geq(curCmd, GR_ReqS), gne(me.curPtr, 0),
                    geq(exGntd, 0), geq(me.ch2, GG_None)},
                   {eset(me.ch2, GG_GntS), eset(me.shrSet, 1),
                    eset(curCmd, GR_None), eset(curPtrValid, 0)});
        {
            std::vector<GuardTerm> g{
                geq(curCmd, GR_ReqE), gne(me.curPtr, 0),
                geq(exGntd, 0), geq(me.ch2, GG_None)};
            for (std::size_t j = 0; j < n; ++j)
                g.push_back(geq(L[j].shrSet, 0));
            ts.addRule("sendGntE_" + std::to_string(i),
                       ActionKind::Internal, std::move(g),
                       {eset(me.ch2, GG_GntE), eset(me.shrSet, 1),
                        eset(exGntd, 1), eset(curCmd, GR_None),
                        eset(curPtrValid, 0)});
        }

        // Client receives grants.
        ts.addRule("recvGntS_" + std::to_string(i),
                   ActionKind::Internal, {geq(me.ch2, GG_GntS)},
                   {eset(me.ch2, GG_None), eset(me.st, G_S)});
        ts.addRule("recvGntE_" + std::to_string(i),
                   ActionKind::Internal, {geq(me.ch2, GG_GntE)},
                   {eset(me.ch2, GG_None), eset(me.st, G_E)});
    }

    // The canonical German control property.
    ts.addInvariant("CtrlProp", [L, n](const VState &s) {
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                if (i == j)
                    continue;
                if (s[L[i].st] == G_E && s[L[j].st] != G_I)
                    return false;
            }
        }
        return true;
    });

    ts.setSummarizer([L, n](const VState &s) {
        std::vector<Perm> sums;
        for (std::size_t i = 0; i < n; ++i) {
            sums.push_back(s[L[i].st] == G_E
                               ? Perm::E
                               : (s[L[i].st] == G_S ? Perm::S
                                                    : Perm::I));
        }
        return composeSum(Perm::M, sums);
    });

    return ts;
}

ModelFactory
germanModelFactory()
{
    return [](std::size_t n, ModelShape &shape) {
        return buildGermanModel(n, shape);
    };
}

} // namespace neo::verif
