#include "flat_open.hpp"

#include <algorithm>
#include <array>
#include <sstream>

#include "leaf_canon.hpp"
#include "verif/models/flat_closed.hpp"

namespace neo::verif
{

const char *
compositionMethodName(CompositionMethod m)
{
    switch (m) {
      case CompositionMethod::None:
        return "safety-only";
      case CompositionMethod::Original:
        return "original(alternating)";
      case CompositionMethod::Modified:
        return "modified(embedded)";
    }
    return "?";
}

namespace
{

/** The statically matched spec-leaf behaviors (see header). */
enum SpecBehavior : std::uint8_t
{
    SB_Stutter = 0, ///< leaf stutters on Omega-internal actions
    SB_InInv,       ///< buffer an incoming Inv
    SB_InFwdS,
    SB_InFwdM,
    SB_InPutAck,
    SB_InDataS,
    SB_InDataE,
    SB_InDataM,
    SB_OutGetS,     ///< issue GetS (I -> IS_D)
    SB_OutGetM,     ///< issue GetM (I/S/O -> *M_D)
    SB_PopDataS,    ///< consume data, perm -> S, owe Unblock
    SB_PopDataE,
    SB_PopDataM,
    SB_OutUnblock,  ///< send the owed Unblock
    SB_OutInvAck,   ///< answer the buffered Inv, perm -> I
    SB_OutDataSExt, ///< answer the buffered Fwd_GetS
    SB_OutDataMExt, ///< answer the buffered Fwd_GetM, perm -> I
    SB_OutPutS,     ///< evict: S -> SI_A + PutS
    SB_OutPutE,
    SB_OutPutM,
    SB_OutPutO,
    SB_PopPutAck,   ///< consume the PutAck, perm -> I
    SB_SilentEM,    ///< silent E -> M upgrade
    SB_NoMatch,     ///< no leaf transition exists (must fail)
    numSpecBehaviors
};

struct LeafLayout
{
    std::size_t c, rq, fw, rs, ak, sh, ow, rqst, tg;
};

constexpr std::size_t leafBlockVars = 9;

/** Everything the builder's lambdas need to share. */
struct Ctx
{
    VerifFeatures f;
    CompositionMethod method = CompositionMethod::None;
    std::size_t n = 0;
    // shared vars
    std::size_t busy, acks, grantPend, fwdPend, hasData, dirDirty;
    std::size_t dirPerm;
    std::size_t pOut, pIn, pData, relayUp, subInv, evicting, extData;
    // spec vars (composition only)
    std::size_t sc, sfw, srs, sub, lcf, turn, lastMatch;
    std::vector<LeafLayout> L;

    int
    ownerOf(const VState &s) const
    {
        for (std::size_t j = 0; j < n; ++j)
            if (s[L[j].ow])
                return static_cast<int>(j);
        return -1;
    }

    int
    requesterOf(const VState &s) const
    {
        for (std::size_t j = 0; j < n; ++j)
            if (s[L[j].rqst])
                return static_cast<int>(j);
        return -1;
    }
};

/** Spec-leaf guard for a behavior. */
bool
specGuard(const Ctx &cx, SpecBehavior b, const VState &s)
{
    const auto c = s[cx.sc];
    switch (b) {
      case SB_Stutter:
        return true;
      case SB_InInv:
        return s[cx.sfw] == FW_None;
      case SB_InFwdS:
        return s[cx.sfw] == FW_None;
      case SB_InFwdM:
        return s[cx.sfw] == FW_None;
      case SB_InPutAck:
        return s[cx.sfw] == FW_None;
      case SB_InDataS:
        return s[cx.srs] == RS_None && c == C_ISD;
      case SB_InDataE:
        return s[cx.srs] == RS_None && c == C_ISD;
      case SB_InDataM:
        return s[cx.srs] == RS_None &&
               (c == C_IMD || c == C_SMD || c == C_OMD);
      case SB_OutGetS:
        return c == C_I;
      case SB_OutGetM:
        return c == C_I || c == C_S || c == C_O;
      case SB_PopDataS:
        return s[cx.srs] == RS_DataS && c == C_ISD && !s[cx.sub];
      case SB_PopDataE:
        return s[cx.srs] == RS_DataE && c == C_ISD && !s[cx.sub];
      case SB_PopDataM:
        return s[cx.srs] == RS_DataM && !s[cx.sub] &&
               (c == C_IMD || c == C_SMD || c == C_OMD);
      case SB_OutUnblock:
        return s[cx.sub] == 1;
      case SB_OutInvAck:
        return s[cx.sfw] == FW_Inv &&
               (c == C_S || c == C_E || c == C_M || c == C_O ||
                c == C_SMD || c == C_OMD || c == C_SIA ||
                c == C_EIA || c == C_MIA || c == C_OIA);
      case SB_OutDataSExt:
        return s[cx.sfw] == FW_FwdGetS &&
               (c == C_E || c == C_M || c == C_O || c == C_MIA ||
                c == C_EIA || c == C_OIA);
      case SB_OutDataMExt:
        return s[cx.sfw] == FW_FwdGetM &&
               (c == C_E || c == C_M || c == C_O || c == C_MIA ||
                c == C_EIA || c == C_OIA);
      case SB_OutPutS:
        return c == C_S;
      case SB_OutPutE:
        return c == C_E;
      case SB_OutPutM:
        return c == C_M;
      case SB_OutPutO:
        return c == C_O;
      case SB_PopPutAck:
        return s[cx.sfw] == FW_PutAck &&
               (c == C_SIA || c == C_EIA || c == C_MIA ||
                c == C_OIA || c == C_IIA);
      case SB_SilentEM:
        return c == C_E;
      case SB_NoMatch:
        return false;
      default:
        return false;
    }
}

/** Spec-leaf effect for a behavior (guard known to hold). */
void
specEffect(const Ctx &cx, SpecBehavior b, VState &s)
{
    auto &c = s[cx.sc];
    switch (b) {
      case SB_Stutter:
        break;
      case SB_InInv:
        s[cx.sfw] = FW_Inv;
        break;
      case SB_InFwdS:
        s[cx.sfw] = FW_FwdGetS;
        break;
      case SB_InFwdM:
        s[cx.sfw] = FW_FwdGetM;
        break;
      case SB_InPutAck:
        s[cx.sfw] = FW_PutAck;
        break;
      case SB_InDataS:
        s[cx.srs] = RS_DataS;
        break;
      case SB_InDataE:
        s[cx.srs] = RS_DataE;
        break;
      case SB_InDataM:
        s[cx.srs] = RS_DataM;
        break;
      case SB_OutGetS:
        c = C_ISD;
        break;
      case SB_OutGetM:
        c = (c == C_I) ? C_IMD : (c == C_S ? C_SMD : C_OMD);
        break;
      case SB_PopDataS:
        s[cx.srs] = RS_None;
        c = C_S;
        s[cx.sub] = 1;
        break;
      case SB_PopDataE:
        s[cx.srs] = RS_None;
        c = C_E;
        s[cx.sub] = 1;
        break;
      case SB_PopDataM:
        s[cx.srs] = RS_None;
        c = C_M;
        s[cx.sub] = 1;
        break;
      case SB_OutUnblock:
        s[cx.sub] = 0;
        break;
      case SB_OutInvAck:
        s[cx.sfw] = FW_None;
        switch (c) {
          case C_SMD:
          case C_OMD:
            c = C_IMD;
            break;
          case C_SIA:
          case C_EIA:
          case C_MIA:
          case C_OIA:
            c = C_IIA;
            break;
          default:
            c = C_I;
            break;
        }
        break;
      case SB_OutDataSExt:
        s[cx.sfw] = FW_None;
        switch (c) {
          case C_E:
          case C_M:
          case C_O:
            c = cx.f.ownedState ? C_O : C_S;
            break;
          case C_MIA:
            c = C_SIA;
            break;
          case C_EIA:
            if (!cx.f.ownedState)
                c = C_SIA;
            break;
          default:
            break; // OIA stays
        }
        break;
      case SB_OutDataMExt:
        s[cx.sfw] = FW_None;
        switch (c) {
          case C_E:
          case C_M:
          case C_O:
            c = C_I;
            break;
          default:
            c = C_IIA;
            break;
        }
        break;
      case SB_OutPutS:
        c = C_SIA;
        break;
      case SB_OutPutE:
        c = C_EIA;
        break;
      case SB_OutPutM:
        c = C_MIA;
        break;
      case SB_OutPutO:
        c = C_OIA;
        break;
      case SB_PopPutAck:
        s[cx.sfw] = FW_None;
        c = C_I;
        break;
      case SB_SilentEM:
        c = C_M;
        break;
      default:
        break;
    }
}

/**
 * Wraps rule registration with the composition machinery: Modified
 * embeds the matched spec transition; Original alternates turns.
 * Every rule names its guard key, a necessary conjunct of its Omega
 * guard; the composed guards only strengthen it, so the key holds
 * under every method.
 */
class OpenBuilder
{
  public:
    OpenBuilder(TransitionSystem &ts, Ctx &cx) : ts_(ts), cx_(cx) {}

    void
    add(const std::string &name, ActionKind kind,
        TransitionSystem::Guard guard, TransitionSystem::Effect effect,
        SpecBehavior match, GuardKey key)
    {
        const Ctx &cx = cx_;
        switch (cx_.method) {
          case CompositionMethod::None:
            ts_.addRule(name, kind, std::move(guard), std::move(effect),
                        key);
            break;
          case CompositionMethod::Modified:
            // §4.1.3: the Omega transition body performs the Omega
            // updates, conditionally applies the matched leaf updates,
            // and records L_could_fire.
            ts_.addRule(
                name, kind, std::move(guard),
                [cx, effect = std::move(effect), match](VState &s) {
                    effect(s);
                    const bool could = specGuard(cx, match, s);
                    if (could)
                        specEffect(cx, match, s);
                    s[cx.lcf] = could ? 1 : 0;
                },
                key);
            break;
          case CompositionMethod::Original:
            // §4.1.1: strictly alternate Omega / leaf transitions;
            // the spec rules are registered once at finalize().
            ts_.addRule(
                name, kind,
                [cx, guard = std::move(guard)](const VState &s) {
                    return s[cx.turn] == 0 && guard(s);
                },
                [cx, effect = std::move(effect), match](VState &s) {
                    effect(s);
                    s[cx.turn] = 1;
                    s[cx.lastMatch] = match;
                },
                key);
            break;
        }
    }

    /** Register the alternating spec rules (Original method only). */
    void
    finalize()
    {
        if (cx_.method != CompositionMethod::Original)
            return;
        const Ctx &cx = cx_;
        for (std::uint8_t b = 0; b < numSpecBehaviors; ++b) {
            const auto behavior = static_cast<SpecBehavior>(b);
            ts_.addRule(
                std::string("spec_") + std::to_string(b),
                ActionKind::Internal,
                [cx, behavior](const VState &s) {
                    return s[cx.turn] == 1 &&
                           s[cx.lastMatch] == behavior &&
                           specGuard(cx, behavior, s);
                },
                [cx, behavior](VState &s) {
                    specEffect(cx, behavior, s);
                    s[cx.turn] = 0;
                }, GuardKey(cx.lastMatch, {behavior}));
        }
    }

  private:
    TransitionSystem &ts_;
    Ctx &cx_;
};

} // namespace

TransitionSystem
buildOpenModel(std::size_t n, const VerifFeatures &features,
               CompositionMethod method, ModelShape &shape)
{
    neo_assert(n >= 1 && n <= 8, "open model supports 1..8 leaves");
    TransitionSystem ts;
    Ctx cx;
    cx.f = features;
    cx.method = method;
    cx.n = n;
    const VerifFeatures f = features;

    // ---- shared variables ----
    cx.busy = ts.addVar("busy", DB_Idle);
    cx.acks = ts.addVar("acks", 0);
    cx.grantPend = ts.addVar("grantPend", 0);
    cx.fwdPend = ts.addVar("fwdPend", 0);
    cx.hasData = ts.addVar("hasData", 0);
    cx.dirDirty = ts.addVar("dirDirty", 0);
    cx.dirPerm = ts.addVar("dirPerm",
                           static_cast<std::uint8_t>(Perm::I));
    cx.pOut = ts.addVar("pOut", RQ_None);
    cx.pIn = ts.addVar("pIn", FW_None);
    cx.pData = ts.addVar("pData", RS_None);
    cx.relayUp = ts.addVar("relayUp", 0);
    cx.subInv = ts.addVar("subInv", 0);
    cx.evicting = ts.addVar("evicting", 0);
    cx.extData = ts.addVar("extData", 0);
    if (method != CompositionMethod::None) {
        cx.sc = ts.addVar("spec.c", C_I);
        cx.sfw = ts.addVar("spec.fw", FW_None);
        cx.srs = ts.addVar("spec.rs", RS_None);
        cx.sub = ts.addVar("spec.ub", 0);
        cx.lcf = ts.addVar("L_could_fire", 1);
        if (method == CompositionMethod::Original) {
            cx.turn = ts.addVar("turn", 0);
            cx.lastMatch = ts.addVar("lastMatch", SB_Stutter);
        }
    }

    shape.sharedVars = ts.numVars();
    shape.saturatedSharedVars = {cx.acks};
    shape.numLeaves = n;
    shape.leafBlockSize = leafBlockVars;

    cx.L.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::ostringstream p;
        p << "l" << i << ".";
        cx.L[i].c = ts.addVar(p.str() + "c", C_I);
        cx.L[i].rq = ts.addVar(p.str() + "rq", RQ_None);
        cx.L[i].fw = ts.addVar(p.str() + "fw", FW_None);
        cx.L[i].rs = ts.addVar(p.str() + "rs", RS_None);
        cx.L[i].ak = ts.addVar(p.str() + "ak", AK_None);
        cx.L[i].sh = ts.addVar(p.str() + "sh", 0);
        cx.L[i].ow = ts.addVar(p.str() + "ow", 0);
        cx.L[i].rqst = ts.addVar(p.str() + "rqst", 0);
        cx.L[i].tg = ts.addVar(p.str() + "tg", 0);
    }

    const std::size_t shared_count = shape.sharedVars;
    ts.setCanonicalizer(
        makeLeafSortCanonicalizer(shared_count, n, leafBlockVars),
        makeLeafSortedCheck(shared_count, n, leafBlockVars));

    OpenBuilder B(ts, cx);
    const std::vector<LeafLayout> &L = cx.L;

    // ================= leaf rules (identical to the closed model,
    // all internal to Omega => matched by stuttering) ===============
    for (std::size_t i = 0; i < n; ++i) {
        const LeafLayout &me = L[i];

        B.add("load_" + std::to_string(i), ActionKind::Internal,
              [me](const VState &s) {
                  return s[me.c] == C_I && s[me.rq] == RQ_None;
              },
              [me](VState &s) {
                  s[me.c] = C_ISD;
                  s[me.rq] = RQ_GetS;
              },
              SB_Stutter, GuardKey(me.c, {C_I}));

        B.add("store_I_" + std::to_string(i), ActionKind::Internal,
              [me](const VState &s) {
                  return s[me.c] == C_I && s[me.rq] == RQ_None;
              },
              [me](VState &s) {
                  s[me.c] = C_IMD;
                  s[me.rq] = RQ_GetM;
              },
              SB_Stutter, GuardKey(me.c, {C_I}));

        B.add("store_S_" + std::to_string(i), ActionKind::Internal,
              [me](const VState &s) {
                  return s[me.c] == C_S && s[me.rq] == RQ_None;
              },
              [me](VState &s) {
                  s[me.c] = C_SMD;
                  s[me.rq] = RQ_GetM;
              },
              SB_Stutter, GuardKey(me.c, {C_S}));

        if (f.exclusiveState) {
            B.add("store_E_" + std::to_string(i), ActionKind::Internal,
                  [me](const VState &s) { return s[me.c] == C_E; },
                  [me](VState &s) { s[me.c] = C_M; }, SB_Stutter,
                  GuardKey(me.c, {C_E}));
        }
        if (f.ownedState) {
            B.add("store_O_" + std::to_string(i), ActionKind::Internal,
                  [me](const VState &s) {
                      return s[me.c] == C_O && s[me.rq] == RQ_None;
                  },
                  [me](VState &s) {
                      s[me.c] = C_OMD;
                      s[me.rq] = RQ_GetM;
                  },
                  SB_Stutter, GuardKey(me.c, {C_O}));
        }

        if (f.inclusiveEvictions) {
            struct EvictCase
            {
                std::uint8_t from, to, put;
                bool enabled;
            };
            const EvictCase cases[] = {
                {C_S, C_SIA, RQ_PutS, true},
                {C_E, C_EIA, RQ_PutE, f.exclusiveState},
                {C_M, C_MIA, RQ_PutM, true},
                {C_O, C_OIA, RQ_PutO, f.ownedState},
            };
            for (const auto &ec : cases) {
                if (!ec.enabled)
                    continue;
                B.add("evict_" +
                          std::string(permName(cacheStPerm(ec.from))) +
                          "_" + std::to_string(i),
                      ActionKind::Internal,
                      [me, ec](const VState &s) {
                          return s[me.c] == ec.from &&
                                 s[me.rq] == RQ_None;
                      },
                      [me, ec](VState &s) {
                          s[me.c] = ec.to;
                          s[me.rq] = ec.put;
                      },
                      SB_Stutter, GuardKey(me.c, {ec.from}));
            }
        }

        B.add("recv_inv_" + std::to_string(i), ActionKind::Internal,
              [me](const VState &s) {
                  if (s[me.fw] != FW_Inv || s[me.ak] != AK_None)
                      return false;
                  switch (s[me.c]) {
                    case C_S:
                    case C_E:
                    case C_M:
                    case C_O:
                    case C_SMD:
                    case C_OMD:
                    case C_SIA:
                    case C_EIA:
                    case C_MIA:
                    case C_OIA:
                      return true;
                    default:
                      return false;
                  }
              },
              [me](VState &s) {
                  s[me.fw] = FW_None;
                  bool dirty = false;
                  switch (s[me.c]) {
                    case C_M:
                    case C_O:
                      dirty = true;
                      s[me.c] = C_I;
                      break;
                    case C_S:
                    case C_E:
                      s[me.c] = C_I;
                      break;
                    case C_SMD:
                      s[me.c] = C_IMD;
                      break;
                    case C_OMD:
                      dirty = true;
                      s[me.c] = C_IMD;
                      break;
                    case C_MIA:
                    case C_OIA:
                      dirty = true;
                      s[me.c] = C_IIA;
                      break;
                    case C_SIA:
                    case C_EIA:
                      s[me.c] = C_IIA;
                      break;
                    default:
                      break;
                  }
                  s[me.ak] = dirty ? AK_InvAckD : AK_InvAck;
              },
              SB_Stutter, GuardKey(me.fw, {FW_Inv}));

        // Sibling-to-sibling data forwards (internal).
        for (std::size_t j = 0; j < n; ++j) {
            if (j == i)
                continue;
            const LeafLayout &tgt = L[j];
            B.add("recv_fwdS_" + std::to_string(i) + "_to_" +
                      std::to_string(j),
                  ActionKind::Internal,
                  [me, tgt](const VState &s) {
                      if (s[me.fw] != FW_FwdGetS || !s[tgt.tg] ||
                          s[tgt.rs] != RS_None)
                          return false;
                      switch (s[me.c]) {
                        case C_M:
                        case C_E:
                        case C_O:
                        case C_MIA:
                        case C_EIA:
                        case C_OIA:
                          return true;
                        default:
                          return false;
                      }
                  },
                  [me, tgt, f](VState &s) {
                      s[me.fw] = FW_None;
                      s[tgt.tg] = 0;
                      s[tgt.rs] = RS_DataS;
                      switch (s[me.c]) {
                        case C_M:
                        case C_E:
                          s[me.c] = f.ownedState ? C_O : C_S;
                          break;
                        case C_MIA:
                          s[me.c] = C_SIA;
                          break;
                        case C_EIA:
                          if (!f.ownedState)
                              s[me.c] = C_SIA;
                          break;
                        default:
                          break;
                      }
                  },
                  SB_Stutter, GuardKey(me.fw, {FW_FwdGetS}));

            B.add("recv_fwdM_" + std::to_string(i) + "_to_" +
                      std::to_string(j),
                  ActionKind::Internal,
                  [me, tgt](const VState &s) {
                      if (s[me.fw] != FW_FwdGetM || !s[tgt.tg] ||
                          s[tgt.rs] != RS_None)
                          return false;
                      switch (s[me.c]) {
                        case C_M:
                        case C_E:
                        case C_O:
                        case C_MIA:
                        case C_EIA:
                        case C_OIA:
                          return true;
                        default:
                          return false;
                      }
                  },
                  [me, tgt](VState &s) {
                      s[me.fw] = FW_None;
                      s[tgt.tg] = 0;
                      s[tgt.rs] = RS_DataM;
                      switch (s[me.c]) {
                        case C_M:
                        case C_E:
                        case C_O:
                          s[me.c] = C_I;
                          break;
                        default:
                          s[me.c] = C_IIA;
                          break;
                      }
                  },
                  SB_Stutter, GuardKey(me.fw, {FW_FwdGetM}));
        }

        // Owner answers an external demand by sending the data UP to
        // the directory, which relays it outward (Fig. 4 times 5-6).
        B.add("recv_fwdS_up_" + std::to_string(i),
              ActionKind::Internal,
              [me, cx](const VState &s) {
                  if (s[me.fw] != FW_FwdGetS || s[cx.extData])
                      return false;
                  bool any_tg = false;
                  for (std::size_t j = 0; j < cx.n; ++j)
                      if (s[cx.L[j].tg])
                          any_tg = true;
                  if (any_tg)
                      return false; // a sibling fwd, not an up fwd
                  switch (s[me.c]) {
                    case C_M:
                    case C_E:
                    case C_O:
                    case C_MIA:
                    case C_EIA:
                    case C_OIA:
                      return true;
                    default:
                      return false;
                  }
              },
              [me, cx, f](VState &s) {
                  s[me.fw] = FW_None;
                  s[cx.extData] = 1;
                  switch (s[me.c]) {
                    case C_M:
                      s[cx.dirDirty] = 1;
                      s[me.c] = f.ownedState ? C_O : C_S;
                      break;
                    case C_E:
                      s[me.c] = f.ownedState ? C_O : C_S;
                      break;
                    case C_O:
                      break;
                    case C_MIA:
                      s[cx.dirDirty] = 1;
                      s[me.c] = C_SIA;
                      break;
                    case C_EIA:
                      if (!f.ownedState)
                          s[me.c] = C_SIA;
                      break;
                    default:
                      break;
                  }
              },
              SB_Stutter, GuardKey(me.fw, {FW_FwdGetS}));

        B.add("recv_fwdM_up_" + std::to_string(i),
              ActionKind::Internal,
              [me, cx](const VState &s) {
                  if (s[me.fw] != FW_FwdGetM || s[cx.extData])
                      return false;
                  bool any_tg = false;
                  for (std::size_t j = 0; j < cx.n; ++j)
                      if (s[cx.L[j].tg])
                          any_tg = true;
                  if (any_tg)
                      return false;
                  switch (s[me.c]) {
                    case C_M:
                    case C_E:
                    case C_O:
                    case C_MIA:
                    case C_EIA:
                    case C_OIA:
                      return true;
                    default:
                      return false;
                  }
              },
              [me, cx](VState &s) {
                  s[me.fw] = FW_None;
                  s[cx.extData] = 1;
                  switch (s[me.c]) {
                    case C_M:
                    case C_O:
                      s[cx.dirDirty] = 1;
                      s[me.c] = C_I;
                      break;
                    case C_E:
                      s[me.c] = C_I;
                      break;
                    case C_MIA:
                    case C_OIA:
                      s[cx.dirDirty] = 1;
                      s[me.c] = C_IIA;
                      break;
                    default:
                      s[me.c] = C_IIA;
                      break;
                  }
              },
              SB_Stutter, GuardKey(me.fw, {FW_FwdGetM}));

        if (f.inclusiveEvictions) {
            B.add("recv_putack_" + std::to_string(i),
                  ActionKind::Internal,
                  [me](const VState &s) {
                      if (s[me.fw] != FW_PutAck)
                          return false;
                      switch (s[me.c]) {
                        case C_SIA:
                        case C_EIA:
                        case C_MIA:
                        case C_OIA:
                        case C_IIA:
                          return true;
                        default:
                          return false;
                      }
                  },
                  [me](VState &s) {
                      s[me.fw] = FW_None;
                      s[me.c] = C_I;
                  },
                  SB_Stutter, GuardKey(me.fw, {FW_PutAck}));
        }

        B.add("recv_dataS_" + std::to_string(i), ActionKind::Internal,
              [me](const VState &s) {
                  return s[me.rs] == RS_DataS && s[me.c] == C_ISD &&
                         s[me.ak] == AK_None;
              },
              [me](VState &s) {
                  s[me.rs] = RS_None;
                  s[me.c] = C_S;
                  s[me.ak] = AK_Unblock;
              },
              SB_Stutter, GuardKey(me.rs, {RS_DataS}));

        if (f.exclusiveState) {
            B.add("recv_dataE_" + std::to_string(i),
                  ActionKind::Internal,
                  [me](const VState &s) {
                      return s[me.rs] == RS_DataE &&
                             s[me.c] == C_ISD && s[me.ak] == AK_None;
                  },
                  [me](VState &s) {
                      s[me.rs] = RS_None;
                      s[me.c] = C_E;
                      s[me.ak] = AK_Unblock;
                  },
                  SB_Stutter, GuardKey(me.rs, {RS_DataE}));
        }

        B.add("recv_dataM_" + std::to_string(i), ActionKind::Internal,
              [me](const VState &s) {
                  return s[me.rs] == RS_DataM && s[me.ak] == AK_None &&
                         (s[me.c] == C_IMD || s[me.c] == C_SMD ||
                          s[me.c] == C_OMD);
              },
              [me](VState &s) {
                  s[me.rs] = RS_None;
                  s[me.c] = C_M;
                  s[me.ak] = AK_UnblockD;
              },
              SB_Stutter, GuardKey(me.rs, {RS_DataM}));
    }

    // ================= directory rules ===============

    auto fwd_channels_free = [L, n = cx.n](const VState &s,
                                           std::size_t except) {
        for (std::size_t j = 0; j < n; ++j) {
            if (j == except)
                continue;
            if ((s[L[j].sh] || s[L[j].ow]) && s[L[j].fw] != FW_None)
                return false;
        }
        return true;
    };

    for (std::size_t i = 0; i < n; ++i) {
        const LeafLayout &me = L[i];

        // --- local read: Permission suffices.
        B.add("d_getS_local_" + std::to_string(i),
              ActionKind::Internal,
              [me, cx](const VState &s) {
                  if (s[cx.busy] != DB_Idle || s[me.rq] != RQ_GetS ||
                      s[me.rs] != RS_None ||
                      s[cx.dirPerm] ==
                          static_cast<std::uint8_t>(Perm::I))
                      return false;
                  const int o = cx.ownerOf(s);
                  if (o >= 0)
                      return s[cx.L[o].fw] == FW_None;
                  return s[cx.hasData] == 1;
              },
              [me, cx, f](VState &s) {
                  s[me.rq] = RQ_None;
                  s[cx.busy] = DB_Read;
                  s[me.rqst] = 1;
                  const int o = cx.ownerOf(s);
                  if (o >= 0) {
                      s[cx.L[o].fw] = FW_FwdGetS;
                      s[me.tg] = 1;
                      s[me.sh] = 1;
                      if (!f.ownedState) {
                          s[cx.L[o].ow] = 0;
                          s[cx.hasData] = 0;
                      }
                  } else {
                      bool sole = true;
                      for (std::size_t j = 0; j < cx.n; ++j)
                          if (s[cx.L[j].sh])
                              sole = false;
                      s[me.sh] = 1;
                      const auto dp = static_cast<Perm>(s[cx.dirPerm]);
                      if (sole && f.exclusiveState &&
                          permRank(dp) >= permRank(Perm::E)) {
                          s[me.rs] = RS_DataE;
                          s[me.ow] = 1;
                      } else {
                          s[me.rs] = RS_DataS;
                      }
                  }
              },
              SB_Stutter, GuardKey(me.rq, {RQ_GetS}));

        // --- read relay: Permission insufficient (output GetS).
        B.add("d_getS_fetch_" + std::to_string(i), ActionKind::Output,
              [me, cx](const VState &s) {
                  return s[cx.busy] == DB_Idle &&
                         s[me.rq] == RQ_GetS &&
                         s[cx.dirPerm] ==
                             static_cast<std::uint8_t>(Perm::I) &&
                         s[cx.pOut] == RQ_None;
              },
              [me, cx](VState &s) {
                  s[me.rq] = RQ_None;
                  s[cx.busy] = DB_FetchR;
                  s[me.rqst] = 1;
                  s[cx.relayUp] = 1;
                  s[cx.pOut] = RQ_GetS;
              },
              SB_OutGetS, GuardKey(me.rq, {RQ_GetS}));

        // --- local write: E/M Permission. Split by the pre-state
        // Permission so the matched leaf transition is static: from E
        // the directory silently upgrades (leaf analog: E -> M); from
        // M the Permission is unchanged (leaf stutters).
        for (const Perm from : {Perm::E, Perm::M}) {
            if (from == Perm::E && !f.exclusiveState)
                continue;
            B.add("d_getM_local_" + std::string(permName(from)) + "_" +
                      std::to_string(i),
                  ActionKind::Internal,
                  [me, cx, fwd_channels_free, from, i](const VState &s) {
                      if (s[cx.busy] != DB_Idle ||
                          s[me.rq] != RQ_GetM || s[me.rs] != RS_None ||
                          s[cx.dirPerm] !=
                              static_cast<std::uint8_t>(from))
                          return false;
                      return fwd_channels_free(s, i);
                  },
                  [me, cx, i](VState &s) {
                      s[me.rq] = RQ_None;
                      s[cx.busy] = DB_Write;
                      s[me.rqst] = 1;
                      const int o = cx.ownerOf(s);
                      for (std::size_t j = 0; j < cx.n; ++j) {
                          if (j == i || static_cast<int>(j) == o)
                              continue;
                          if (s[cx.L[j].sh]) {
                              s[cx.L[j].fw] = FW_Inv;
                              s[cx.L[j].sh] = 0;
                              ++s[cx.acks];
                          }
                      }
                      if (o >= 0 && o != static_cast<int>(i)) {
                          // The owner's Fwd may only go out after the
                          // sharer acks (single-writer safety).
                          s[me.tg] = 1;
                          if (s[cx.acks] == 0) {
                              s[cx.L[o].fw] = FW_FwdGetM;
                              s[cx.L[o].ow] = 0;
                              s[cx.L[o].sh] = 0;
                          } else {
                              s[cx.fwdPend] = 1;
                          }
                      } else {
                          s[cx.grantPend] = 1;
                      }
                      s[me.sh] = 1;
                      s[me.ow] = 1;
                      s[cx.hasData] = 0;
                      // silent E->M at the directory level
                      s[cx.dirPerm] =
                          static_cast<std::uint8_t>(Perm::M);
                  },
                  from == Perm::E ? SB_SilentEM : SB_Stutter,
                  GuardKey(me.rq, {RQ_GetM}));
        }

        // --- write relay: Permission I/S/O (output GetM).
        B.add("d_getM_fetch_" + std::to_string(i), ActionKind::Output,
              [me, cx](const VState &s) {
                  const auto dp = static_cast<Perm>(s[cx.dirPerm]);
                  return s[cx.busy] == DB_Idle &&
                         s[me.rq] == RQ_GetM &&
                         (dp == Perm::I || dp == Perm::S ||
                          dp == Perm::O) &&
                         s[cx.pOut] == RQ_None;
              },
              [me, cx](VState &s) {
                  s[me.rq] = RQ_None;
                  s[cx.busy] = DB_FetchW;
                  s[me.rqst] = 1;
                  s[cx.relayUp] = 1;
                  s[cx.pOut] = RQ_GetM;
              },
              SB_OutGetM, GuardKey(me.rq, {RQ_GetM}));

        // --- completion of local transactions.
        B.add("d_unblock_" + std::to_string(i), ActionKind::Internal,
              [me, cx](const VState &s) {
                  return (s[me.ak] == AK_Unblock ||
                          s[me.ak] == AK_UnblockD) &&
                         s[me.rqst] && s[cx.acks] == 0 &&
                         !s[cx.grantPend] && !s[cx.fwdPend] &&
                         (s[cx.busy] == DB_Read ||
                          s[cx.busy] == DB_Write);
              },
              [me, cx](VState &s) {
                  if (s[me.ak] == AK_UnblockD)
                      s[cx.dirDirty] = 1;
                  s[me.ak] = AK_None;
                  s[me.rqst] = 0;
                  s[cx.busy] = DB_Idle;
                  if (cx.ownerOf(s) < 0)
                      s[cx.hasData] = 1;
              },
              SB_Stutter, GuardKey(me.ak, {AK_Unblock, AK_UnblockD}));

        // --- completion of relayed transactions (output Unblock).
        B.add("d_unblock_up_" + std::to_string(i), ActionKind::Output,
              [me, cx](const VState &s) {
                  return (s[me.ak] == AK_Unblock ||
                          s[me.ak] == AK_UnblockD) &&
                         s[me.rqst] && s[cx.acks] == 0 &&
                         !s[cx.grantPend] && !s[cx.fwdPend] &&
                         s[cx.relayUp] &&
                         (s[cx.busy] == DB_FetchR ||
                          s[cx.busy] == DB_FetchW);
              },
              [me, cx](VState &s) {
                  if (s[me.ak] == AK_UnblockD)
                      s[cx.dirDirty] = 1;
                  s[me.ak] = AK_None;
                  s[me.rqst] = 0;
                  s[cx.relayUp] = 0;
                  s[cx.busy] = DB_Idle;
                  if (cx.ownerOf(s) < 0)
                      s[cx.hasData] = 1;
              },
              SB_OutUnblock, GuardKey(me.ak, {AK_Unblock, AK_UnblockD}));

        B.add("d_invack_" + std::to_string(i), ActionKind::Internal,
              [me, cx](const VState &s) {
                  return (s[me.ak] == AK_InvAck ||
                          s[me.ak] == AK_InvAckD) &&
                         s[cx.acks] > 0;
              },
              [me, cx](VState &s) {
                  if (s[me.ak] == AK_InvAckD) {
                      s[cx.dirDirty] = 1;
                      s[cx.hasData] = 1;
                  }
                  s[me.ak] = AK_None;
                  --s[cx.acks];
              },
              SB_Stutter, GuardKey(me.ak, {AK_InvAck, AK_InvAckD}));

        if (f.inclusiveEvictions) {
            B.add("d_put_" + std::to_string(i), ActionKind::Internal,
                  [me, cx](const VState &s) {
                      return s[cx.busy] == DB_Idle &&
                             (s[me.rq] == RQ_PutS ||
                              s[me.rq] == RQ_PutE ||
                              s[me.rq] == RQ_PutM ||
                              s[me.rq] == RQ_PutO) &&
                             s[me.fw] == FW_None;
                  },
                  [me, cx](VState &s) {
                      const bool owner_put =
                          s[me.ow] && (s[me.rq] == RQ_PutM ||
                                       s[me.rq] == RQ_PutE ||
                                       s[me.rq] == RQ_PutO);
                      if (owner_put) {
                          s[cx.hasData] = 1;
                          if (s[me.rq] == RQ_PutM ||
                              s[me.rq] == RQ_PutO)
                              s[cx.dirDirty] = 1;
                      }
                      s[me.rq] = RQ_None;
                      s[me.sh] = 0;
                      s[me.ow] = 0;
                      s[me.fw] = FW_PutAck;
                  },
                  SB_Stutter,
                  GuardKey(me.rq, {RQ_PutS, RQ_PutE, RQ_PutM, RQ_PutO}));
        }
    }

    // --- deferred owner-forward once the sharer acks are in.
    B.add("d_fwdM_dispatch", ActionKind::Internal,
          [cx](const VState &s) {
              if ((s[cx.busy] != DB_Write &&
                   s[cx.busy] != DB_FetchW) ||
                  s[cx.acks] != 0 || !s[cx.fwdPend])
                  return false;
              for (std::size_t j = 0; j < cx.n; ++j) {
                  if (s[cx.L[j].ow] && !s[cx.L[j].rqst])
                      return s[cx.L[j].fw] == FW_None;
              }
              return false;
          },
          [cx](VState &s) {
              for (std::size_t j = 0; j < cx.n; ++j) {
                  if (s[cx.L[j].ow] && !s[cx.L[j].rqst]) {
                      s[cx.L[j].fw] = FW_FwdGetM;
                      s[cx.L[j].ow] = 0;
                      s[cx.L[j].sh] = 0;
                      break;
                  }
              }
              s[cx.fwdPend] = 0;
          },
          SB_Stutter, GuardKey(cx.busy, {DB_Write, DB_FetchW}));

    // --- grant-after-acks for local writes.
    B.add("d_grantM", ActionKind::Internal,
          [cx](const VState &s) {
              if (s[cx.busy] != DB_Write && s[cx.busy] != DB_FetchW)
                  return false;
              if (s[cx.acks] != 0 || !s[cx.grantPend])
                  return false;
              const int r = cx.requesterOf(s);
              return r >= 0 && s[cx.L[r].rs] == RS_None;
          },
          [cx](VState &s) {
              const int r = cx.requesterOf(s);
              s[cx.L[r].rs] = RS_DataM;
              s[cx.grantPend] = 0;
          },
          SB_Stutter, GuardKey(cx.busy, {DB_Write, DB_FetchW}));

    // ================= parent environment (input actions) ==========

    // A blocking parent grants only when it is not demanding anything
    // of this subtree (its transactions are serialized per block).
    auto parent_may_grant = [cx](const VState &s) {
        return s[cx.pData] == RS_None && s[cx.pIn] == FW_None &&
               !s[cx.subInv];
    };

    B.add("env_grant_S", ActionKind::Input,
          [cx, parent_may_grant](const VState &s) {
              return s[cx.pOut] == RQ_GetS && parent_may_grant(s);
          },
          [cx](VState &s) {
              s[cx.pOut] = RQ_None;
              s[cx.pData] = RS_DataS;
          },
          SB_InDataS, GuardKey(cx.pOut, {RQ_GetS}));

    if (f.exclusiveState) {
        B.add("env_grant_E", ActionKind::Input,
              [cx, parent_may_grant](const VState &s) {
                  return s[cx.pOut] == RQ_GetS && parent_may_grant(s);
              },
              [cx](VState &s) {
                  s[cx.pOut] = RQ_None;
                  s[cx.pData] = RS_DataE;
              },
              SB_InDataE, GuardKey(cx.pOut, {RQ_GetS}));
    }

    B.add("env_grant_M", ActionKind::Input,
          [cx, parent_may_grant](const VState &s) {
              return s[cx.pOut] == RQ_GetM && parent_may_grant(s);
          },
          [cx](VState &s) {
              s[cx.pOut] = RQ_None;
              s[cx.pData] = RS_DataM;
          },
          SB_InDataM, GuardKey(cx.pOut, {RQ_GetM}));

    // The parent is blocking: it has at most one demand outstanding
    // against this subtree (pIn slot + no demand mid-service), and
    // once it granted our relayed request it is blocked on our
    // Unblock, so no demand can arrive in that window.
    auto parent_may_demand = [cx](const VState &s) {
        if (s[cx.pIn] != FW_None || s[cx.subInv])
            return false;
        if (s[cx.busy] == DB_ExtInv || s[cx.busy] == DB_ExtRead ||
            s[cx.busy] == DB_ExtWrite)
            return false;
        if ((s[cx.busy] == DB_FetchR || s[cx.busy] == DB_FetchW) &&
            s[cx.pOut] == RQ_None) {
            return false; // grant issued; parent awaits our Unblock
        }
        return true;
    };

    // The parent's view of our Permission: live dirPerm normally, the
    // stale pre-Put view while our writeback is in flight.
    auto parent_view = [cx](const VState &s) -> Perm {
        if (s[cx.busy] == DB_EvictWB && s[cx.evicting] > 0)
            return static_cast<Perm>(s[cx.evicting] - 1);
        return static_cast<Perm>(s[cx.dirPerm]);
    };

    B.add("env_inv", ActionKind::Input,
          [cx, parent_may_demand, parent_view](const VState &s) {
              return parent_may_demand(s) &&
                     parent_view(s) != Perm::I;
          },
          [cx](VState &s) { s[cx.pIn] = FW_Inv; }, SB_InInv,
          GuardKey(cx.pIn, {FW_None}));

    B.add("env_fwdS", ActionKind::Input,
          [cx, parent_may_demand, parent_view](const VState &s) {
              const Perm dp = parent_view(s);
              return parent_may_demand(s) &&
                     (dp == Perm::E || dp == Perm::M || dp == Perm::O);
          },
          [cx](VState &s) { s[cx.pIn] = FW_FwdGetS; }, SB_InFwdS,
          GuardKey(cx.pIn, {FW_None}));

    B.add("env_fwdM", ActionKind::Input,
          [cx, parent_may_demand, parent_view](const VState &s) {
              const Perm dp = parent_view(s);
              return parent_may_demand(s) &&
                     (dp == Perm::E || dp == Perm::M || dp == Perm::O);
          },
          [cx](VState &s) { s[cx.pIn] = FW_FwdGetM; }, SB_InFwdM,
          GuardKey(cx.pIn, {FW_None}));

    if (f.inclusiveEvictions) {
        B.add("env_putack", ActionKind::Input,
              [cx](const VState &s) {
                  return (s[cx.pOut] == RQ_PutS ||
                          s[cx.pOut] == RQ_PutE ||
                          s[cx.pOut] == RQ_PutM ||
                          s[cx.pOut] == RQ_PutO) &&
                         s[cx.pIn] == FW_None;
              },
              [cx](VState &s) {
                  s[cx.pOut] = RQ_None;
                  s[cx.pIn] = FW_PutAck;
              },
              SB_InPutAck,
              GuardKey(cx.pOut, {RQ_PutS, RQ_PutE, RQ_PutM, RQ_PutO}));
    }

    // ================= parent-facing directory rules ===============

    // --- grant arrives for a relayed read.
    B.add("d_pdata_S", ActionKind::Internal,
          [cx](const VState &s) {
              if (s[cx.busy] != DB_FetchR || s[cx.pData] != RS_DataS)
                  return false;
              const int r = cx.requesterOf(s);
              return r >= 0 && s[cx.L[r].rs] == RS_None;
          },
          [cx](VState &s) {
              s[cx.pData] = RS_None;
              s[cx.dirPerm] = static_cast<std::uint8_t>(Perm::S);
              s[cx.hasData] = 1;
              const int r = cx.requesterOf(s);
              s[cx.L[r].rs] = RS_DataS;
              s[cx.L[r].sh] = 1;
          },
          SB_PopDataS, GuardKey(cx.pData, {RS_DataS}));

    if (f.exclusiveState) {
        B.add("d_pdata_E", ActionKind::Internal,
              [cx](const VState &s) {
                  if (s[cx.busy] != DB_FetchR ||
                      s[cx.pData] != RS_DataE)
                      return false;
                  const int r = cx.requesterOf(s);
                  return r >= 0 && s[cx.L[r].rs] == RS_None;
              },
              [cx](VState &s) {
                  s[cx.pData] = RS_None;
                  s[cx.dirPerm] = static_cast<std::uint8_t>(Perm::E);
                  s[cx.hasData] = 1;
                  const int r = cx.requesterOf(s);
                  s[cx.L[r].rs] = RS_DataE;
                  s[cx.L[r].sh] = 1;
                  s[cx.L[r].ow] = 1;
              },
              SB_PopDataE, GuardKey(cx.pData, {RS_DataE}));
    }

    // --- grant arrives for a relayed write: run the local phase.
    B.add("d_pdata_M", ActionKind::Internal,
          [cx, fwd_channels_free](const VState &s) {
              if (s[cx.busy] != DB_FetchW || s[cx.pData] != RS_DataM)
                  return false;
              const int r = cx.requesterOf(s);
              if (r < 0)
                  return false;
              return fwd_channels_free(s,
                                       static_cast<std::size_t>(r));
          },
          [cx](VState &s) {
              s[cx.pData] = RS_None;
              s[cx.dirPerm] = static_cast<std::uint8_t>(Perm::M);
              const int r = cx.requesterOf(s);
              const int o = cx.ownerOf(s);
              for (std::size_t j = 0; j < cx.n; ++j) {
                  if (static_cast<int>(j) == r ||
                      static_cast<int>(j) == o)
                      continue;
                  if (s[cx.L[j].sh]) {
                      s[cx.L[j].fw] = FW_Inv;
                      s[cx.L[j].sh] = 0;
                      ++s[cx.acks];
                  }
              }
              if (o >= 0 && o != r) {
                  s[cx.L[r].tg] = 1;
                  if (s[cx.acks] == 0) {
                      s[cx.L[o].fw] = FW_FwdGetM;
                      s[cx.L[o].ow] = 0;
                      s[cx.L[o].sh] = 0;
                  } else {
                      s[cx.fwdPend] = 1;
                  }
              } else {
                  s[cx.grantPend] = 1;
              }
              s[cx.L[r].sh] = 1;
              s[cx.L[r].ow] = 1;
              s[cx.hasData] = 0;
          },
          SB_PopDataM, GuardKey(cx.pData, {RS_DataM}));

    // --- parent Inv while idle: recursive invalidation.
    B.add("d_inv_idle", ActionKind::Internal,
          [cx, fwd_channels_free](const VState &s) {
              return s[cx.busy] == DB_Idle && s[cx.pIn] == FW_Inv &&
                     fwd_channels_free(s, cx.n);
          },
          [cx](VState &s) {
              s[cx.pIn] = FW_None;
              s[cx.busy] = DB_ExtInv;
              for (std::size_t j = 0; j < cx.n; ++j) {
                  if (s[cx.L[j].sh] || s[cx.L[j].ow]) {
                      s[cx.L[j].fw] = FW_Inv;
                      s[cx.L[j].sh] = 0;
                      s[cx.L[j].ow] = 0;
                      ++s[cx.acks];
                  }
              }
          },
          SB_Stutter, GuardKey(cx.pIn, {FW_Inv}));

    // --- InvAck up once the subtree is clean (output InvAck).
    B.add("d_extinv_done", ActionKind::Output,
          [cx](const VState &s) {
              return s[cx.busy] == DB_ExtInv && s[cx.acks] == 0;
          },
          [cx](VState &s) {
              s[cx.busy] = DB_Idle;
              s[cx.dirPerm] = static_cast<std::uint8_t>(Perm::I);
              s[cx.hasData] = 0;
              s[cx.dirDirty] = 0;
          },
          SB_OutInvAck, GuardKey(cx.busy, {DB_ExtInv}));

    // --- parent Inv during a fetch: must not wait (deadlock).
    B.add("d_inv_during_fetch", ActionKind::Internal,
          [cx, fwd_channels_free](const VState &s) {
              return (s[cx.busy] == DB_FetchR ||
                      s[cx.busy] == DB_FetchW) &&
                     s[cx.pIn] == FW_Inv && !s[cx.subInv] &&
                     s[cx.acks] == 0 && fwd_channels_free(s, cx.n);
          },
          [cx](VState &s) {
              s[cx.pIn] = FW_None;
              s[cx.subInv] = 1;
              for (std::size_t j = 0; j < cx.n; ++j) {
                  if (s[cx.L[j].sh] || s[cx.L[j].ow]) {
                      s[cx.L[j].fw] = FW_Inv;
                      s[cx.L[j].sh] = 0;
                      s[cx.L[j].ow] = 0;
                      ++s[cx.acks];
                  }
              }
          },
          SB_Stutter, GuardKey(cx.pIn, {FW_Inv}));

    B.add("d_subinv_done", ActionKind::Output,
          [cx](const VState &s) {
              return s[cx.subInv] == 1 && s[cx.acks] == 0;
          },
          [cx](VState &s) {
              s[cx.subInv] = 0;
              s[cx.dirPerm] = static_cast<std::uint8_t>(Perm::I);
              s[cx.hasData] = 0;
              s[cx.dirDirty] = 0;
          },
          SB_OutInvAck, GuardKey(cx.subInv, {1}));

    // --- parent Fwd_GetS: gather the data, then reply externally.
    B.add("d_fwdS_start", ActionKind::Internal,
          [cx](const VState &s) {
              const auto dp = static_cast<Perm>(s[cx.dirPerm]);
              if (s[cx.busy] != DB_Idle || s[cx.pIn] != FW_FwdGetS ||
                  !(dp == Perm::E || dp == Perm::M || dp == Perm::O))
                  return false;
              const int o = cx.ownerOf(s);
              if (o >= 0)
                  return s[cx.L[o].fw] == FW_None;
              return s[cx.hasData] == 1;
          },
          [cx](VState &s) {
              s[cx.pIn] = FW_None;
              s[cx.busy] = DB_ExtRead;
              const int o = cx.ownerOf(s);
              if (o >= 0) {
                  s[cx.L[o].fw] = FW_FwdGetS; // answered via _up rule
                  if (!cx.f.ownedState)
                      s[cx.L[o].ow] = 0;
              } else {
                  s[cx.extData] = 1;
              }
          },
          SB_Stutter, GuardKey(cx.pIn, {FW_FwdGetS}));

    B.add("d_extread_done", ActionKind::Output,
          [cx](const VState &s) {
              return s[cx.busy] == DB_ExtRead && s[cx.extData] == 1;
          },
          [cx, f](VState &s) {
              s[cx.busy] = DB_Idle;
              s[cx.extData] = 0;
              s[cx.hasData] = 1;
              if (f.ownedState) {
                  s[cx.dirPerm] = static_cast<std::uint8_t>(Perm::O);
              } else {
                  s[cx.dirPerm] = static_cast<std::uint8_t>(Perm::S);
                  s[cx.dirDirty] = 0; // dirtiness passed across
              }
          },
          f.nonSiblingFwd ? SB_NoMatch : SB_OutDataSExt,
          GuardKey(cx.busy, {DB_ExtRead}));

    // --- parent Fwd_GetM: invalidate, gather, reply externally.
    B.add("d_fwdM_start", ActionKind::Internal,
          [cx, fwd_channels_free](const VState &s) {
              const auto dp = static_cast<Perm>(s[cx.dirPerm]);
              if (s[cx.busy] != DB_Idle || s[cx.pIn] != FW_FwdGetM ||
                  !(dp == Perm::E || dp == Perm::M || dp == Perm::O))
                  return false;
              const int o = cx.ownerOf(s);
              if (o < 0 && s[cx.hasData] != 1)
                  return false;
              return fwd_channels_free(s, cx.n);
          },
          [cx](VState &s) {
              s[cx.pIn] = FW_None;
              s[cx.busy] = DB_ExtWrite;
              const int o = cx.ownerOf(s);
              for (std::size_t j = 0; j < cx.n; ++j) {
                  if (static_cast<int>(j) == o)
                      continue;
                  if (s[cx.L[j].sh]) {
                      s[cx.L[j].fw] = FW_Inv;
                      s[cx.L[j].sh] = 0;
                      ++s[cx.acks];
                  }
              }
              if (o >= 0) {
                  s[cx.L[o].fw] = FW_FwdGetM;
                  s[cx.L[o].ow] = 0;
                  s[cx.L[o].sh] = 0;
              } else {
                  s[cx.extData] = 1;
              }
          },
          SB_Stutter, GuardKey(cx.pIn, {FW_FwdGetM}));

    B.add("d_extwrite_done", ActionKind::Output,
          [cx](const VState &s) {
              return s[cx.busy] == DB_ExtWrite && s[cx.acks] == 0 &&
                     s[cx.extData] == 1;
          },
          [cx](VState &s) {
              s[cx.busy] = DB_Idle;
              s[cx.extData] = 0;
              s[cx.dirPerm] = static_cast<std::uint8_t>(Perm::I);
              s[cx.hasData] = 0;
              s[cx.dirDirty] = 0;
          },
          f.nonSiblingFwd ? SB_NoMatch : SB_OutDataMExt,
          GuardKey(cx.busy, {DB_ExtWrite}));

    // --- directory eviction (inclusive): recall, write back, drop.
    if (f.inclusiveEvictions) {
        B.add("d_evict_recall", ActionKind::Internal,
              [cx, fwd_channels_free](const VState &s) {
                  return s[cx.busy] == DB_Idle &&
                         s[cx.dirPerm] !=
                             static_cast<std::uint8_t>(Perm::I) &&
                         s[cx.pOut] == RQ_None && s[cx.pIn] == FW_None &&
                         fwd_channels_free(s, cx.n);
              },
              [cx](VState &s) {
                  s[cx.busy] = DB_Recall;
                  s[cx.evicting] = 1;
                  for (std::size_t j = 0; j < cx.n; ++j) {
                      if (s[cx.L[j].sh] || s[cx.L[j].ow]) {
                          s[cx.L[j].fw] = FW_Inv;
                          s[cx.L[j].sh] = 0;
                          s[cx.L[j].ow] = 0;
                          ++s[cx.acks];
                      }
                  }
              },
              SB_Stutter, GuardKey(cx.busy, {DB_Idle}));

        struct PutCase
        {
            Perm perm;
            std::uint8_t put;
            SpecBehavior match;
            bool enabled;
        };
        const PutCase put_cases[] = {
            {Perm::S, RQ_PutS, SB_OutPutS, true},
            {Perm::E, RQ_PutE, SB_OutPutE, f.exclusiveState},
            {Perm::M, RQ_PutM, SB_OutPutM, true},
            {Perm::O, RQ_PutO, SB_OutPutO, f.ownedState},
        };
        for (const auto &pc : put_cases) {
            if (!pc.enabled)
                continue;
            B.add(std::string("d_evict_put") + permName(pc.perm),
                  ActionKind::Output,
                  [cx, pc](const VState &s) {
                      return s[cx.busy] == DB_Recall &&
                             s[cx.evicting] == 1 && s[cx.acks] == 0 &&
                             s[cx.dirPerm] ==
                                 static_cast<std::uint8_t>(pc.perm) &&
                             s[cx.pOut] == RQ_None;
                  },
                  [cx, pc](VState &s) {
                      s[cx.busy] = DB_EvictWB;
                      s[cx.pOut] = pc.put;
                      // Permission is relinquished when the Put leaves
                      // (matching the leaf's S -> SI_A etc.); the
                      // parent's stale view is kept for env gating.
                      s[cx.evicting] =
                          1 + static_cast<std::uint8_t>(pc.perm);
                      s[cx.dirPerm] =
                          static_cast<std::uint8_t>(Perm::I);
                  },
                  pc.match, GuardKey(cx.busy, {DB_Recall}));
        }

        B.add("d_evict_ack", ActionKind::Internal,
              [cx](const VState &s) {
                  return s[cx.busy] == DB_EvictWB &&
                         s[cx.pIn] == FW_PutAck;
              },
              [cx](VState &s) {
                  s[cx.pIn] = FW_None;
                  s[cx.busy] = DB_Idle;
                  s[cx.evicting] = 0;
                  s[cx.hasData] = 0;
                  s[cx.dirDirty] = 0;
              },
              SB_PopPutAck, GuardKey(cx.pIn, {FW_PutAck}));

        // Races against the in-flight writeback (the EvictWB cases);
        // `evicting` carries the parent's stale view of our
        // Permission (1 + the perm the Put relinquished).
        B.add("d_evictwb_inv", ActionKind::Output,
              [cx](const VState &s) {
                  return s[cx.busy] == DB_EvictWB &&
                         s[cx.pIn] == FW_Inv;
              },
              [cx](VState &s) {
                  s[cx.pIn] = FW_None;
                  s[cx.evicting] =
                      1 + static_cast<std::uint8_t>(Perm::I);
                  s[cx.dirDirty] = 0;
              },
              SB_OutInvAck, GuardKey(cx.pIn, {FW_Inv}));

        B.add("d_evictwb_fwdS", ActionKind::Output,
              [cx](const VState &s) {
                  return s[cx.busy] == DB_EvictWB &&
                         s[cx.pIn] == FW_FwdGetS;
              },
              [cx](VState &s) {
                  s[cx.pIn] = FW_None;
                  s[cx.evicting] =
                      1 + static_cast<std::uint8_t>(Perm::S);
              },
              f.nonSiblingFwd ? SB_NoMatch : SB_OutDataSExt,
              GuardKey(cx.pIn, {FW_FwdGetS}));

        B.add("d_evictwb_fwdM", ActionKind::Output,
              [cx](const VState &s) {
                  return s[cx.busy] == DB_EvictWB &&
                         s[cx.pIn] == FW_FwdGetM;
              },
              [cx](VState &s) {
                  s[cx.pIn] = FW_None;
                  s[cx.evicting] =
                      1 + static_cast<std::uint8_t>(Perm::I);
              },
              f.nonSiblingFwd ? SB_NoMatch : SB_OutDataMExt,
              GuardKey(cx.pIn, {FW_FwdGetM}));
    }

    B.finalize();

    // ================= invariants ===============

    // Neo safety (§2.4): the subtree summary must never be bad — the
    // permission principle plus pairwise compatibility.
    ts.addInvariant("NeoSafety_sum", [cx](const VState &s) {
        std::vector<Perm> sums;
        sums.reserve(cx.n);
        for (std::size_t i = 0; i < cx.n; ++i)
            sums.push_back(cacheStPerm(s[cx.L[i].c]));
        return composeSum(static_cast<Perm>(s[cx.dirPerm]), sums) !=
               Perm::Bad;
    });

    if (method == CompositionMethod::Modified) {
        // §4.1.3 expression (3): L_could_fire, plus the permission
        // equality from expression (1).
        ts.addInvariant("SafeComposition_LcouldFire",
                        [cx](const VState &s) {
                            return s[cx.lcf] == 1;
                        });
        ts.addInvariant("SafeComposition_permMatch",
                        [cx](const VState &s) {
                            return cacheStPerm(s[cx.sc]) ==
                                   static_cast<Perm>(s[cx.dirPerm]);
                        });
    } else if (method == CompositionMethod::Original) {
        // §4.1.1 expression (2): after each Omega transition, the
        // disjunction of every leaf guard must hold.
        ts.addInvariant(
            "SafeComposition_guardDisjunction",
            [cx](const VState &s) {
                if (s[cx.turn] != 1)
                    return true;
                for (std::uint8_t b = 0; b < numSpecBehaviors; ++b) {
                    if (b == SB_NoMatch)
                        continue;
                    if (s[cx.lastMatch] == b &&
                        specGuard(cx, static_cast<SpecBehavior>(b), s))
                        return true;
                }
                return false;
            });
        ts.addInvariant("SafeComposition_permMatch",
                        [cx](const VState &s) {
                            if (s[cx.turn] != 0)
                                return true;
                            return cacheStPerm(s[cx.sc]) ==
                                   static_cast<Perm>(s[cx.dirPerm]);
                        });
    }

    ts.setSummarizer([cx](const VState &s) {
        return static_cast<Perm>(s[cx.dirPerm]);
    });

    return ts;
}

ModelFactory
openModelFactory(const VerifFeatures &features, CompositionMethod method)
{
    return [features, method](std::size_t n, ModelShape &shape) {
        return buildOpenModel(n, features, method, shape);
    };
}

} // namespace neo::verif
