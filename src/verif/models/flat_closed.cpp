#include "flat_closed.hpp"

#include <algorithm>
#include <sstream>

#include "leaf_canon.hpp"

namespace neo::verif
{

Perm
cacheStPerm(std::uint8_t c)
{
    // Eviction transients (*I_A) relinquished their permission when
    // the Put was issued: their effective permission is I even though
    // they still answer demands from the stale copy.
    switch (c) {
      case C_S:
      case C_SMD:
        return Perm::S;
      case C_E:
        return Perm::E;
      case C_M:
        return Perm::M;
      case C_O:
      case C_OMD:
        return Perm::O;
      default:
        return Perm::I;
    }
}

namespace
{

/** Variable offsets of one leaf block. */
struct LeafLayout
{
    std::size_t c;    ///< cache state
    std::size_t rq;   ///< leaf -> dir request channel
    std::size_t fw;   ///< dir -> leaf demand channel
    std::size_t rs;   ///< data channel into the leaf
    std::size_t ak;   ///< leaf -> dir completion channel
    std::size_t sh;   ///< dir's sharer bit for this leaf
    std::size_t ow;   ///< dir's owner bit for this leaf
    std::size_t rqst; ///< this leaf is the transaction requester
    std::size_t tg;   ///< this leaf is the pending Fwd data target
};

constexpr std::size_t leafBlockVars = 9;

} // namespace

TransitionSystem
buildClosedModel(std::size_t n, const VerifFeatures &features,
                 ModelShape &shape)
{
    neo_assert(n >= 1 && n <= 8, "closed model supports 1..8 leaves");
    TransitionSystem ts;
    const VerifFeatures f = features;

    // ---- shared (directory) variables ----
    const std::size_t busy = ts.addVar("busy", DB_Idle);
    const std::size_t acks = ts.addVar("acks", 0);
    const std::size_t grantPend = ts.addVar("grantPend", 0);
    const std::size_t fwdPend = ts.addVar("fwdPend", 0);
    const std::size_t hasData = ts.addVar("hasData", 1);

    shape.sharedVars = ts.numVars();
    shape.saturatedSharedVars = {acks};
    shape.numLeaves = n;
    shape.leafBlockSize = leafBlockVars;

    // ---- per-leaf variables ----
    std::vector<LeafLayout> L(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::ostringstream p;
        p << "l" << i << ".";
        L[i].c = ts.addVar(p.str() + "c", C_I);
        L[i].rq = ts.addVar(p.str() + "rq", RQ_None);
        L[i].fw = ts.addVar(p.str() + "fw", FW_None);
        L[i].rs = ts.addVar(p.str() + "rs", RS_None);
        L[i].ak = ts.addVar(p.str() + "ak", AK_None);
        L[i].sh = ts.addVar(p.str() + "sh", 0);
        L[i].ow = ts.addVar(p.str() + "ow", 0);
        L[i].rqst = ts.addVar(p.str() + "rqst", 0);
        L[i].tg = ts.addVar(p.str() + "tg", 0);
    }

    // Canonical form: sort the leaf blocks lexicographically (leaves
    // are identical and interchangeable — Neo's symmetry). The exact
    // sortedness predicate lets the explorers skip canonicalizing
    // successors that are already sorted (leaf_canon.hpp).
    const std::size_t shared_count = shape.sharedVars;
    ts.setCanonicalizer(
        makeLeafSortCanonicalizer(shared_count, n, leafBlockVars),
        makeLeafSortedCheck(shared_count, n, leafBlockVars));

    auto owner_of = [L, n](const VState &s) -> int {
        for (std::size_t j = 0; j < n; ++j)
            if (s[L[j].ow])
                return static_cast<int>(j);
        return -1;
    };

    // ---- leaf rules ----
    for (std::size_t i = 0; i < n; ++i) {
        const LeafLayout &me = L[i];

        ts.addRule(
            "load_" + std::to_string(i), ActionKind::Internal,
            [me](const VState &s) {
                return s[me.c] == C_I && s[me.rq] == RQ_None;
            },
            [me](VState &s) {
                s[me.c] = C_ISD;
                s[me.rq] = RQ_GetS;
            },
            GuardKey(me.c, {C_I}));

        ts.addRule(
            "store_I_" + std::to_string(i), ActionKind::Internal,
            [me](const VState &s) {
                return s[me.c] == C_I && s[me.rq] == RQ_None;
            },
            [me](VState &s) {
                s[me.c] = C_IMD;
                s[me.rq] = RQ_GetM;
            },
            GuardKey(me.c, {C_I}));

        ts.addRule(
            "store_S_" + std::to_string(i), ActionKind::Internal,
            [me](const VState &s) {
                return s[me.c] == C_S && s[me.rq] == RQ_None;
            },
            [me](VState &s) {
                s[me.c] = C_SMD;
                s[me.rq] = RQ_GetM;
            },
            GuardKey(me.c, {C_S}));

        if (f.exclusiveState) {
            ts.addRule(
                "store_E_" + std::to_string(i), ActionKind::Internal,
                [me](const VState &s) { return s[me.c] == C_E; },
                [me](VState &s) { s[me.c] = C_M; },
                GuardKey(me.c, {C_E}));
        }
        if (f.ownedState) {
            ts.addRule(
                "store_O_" + std::to_string(i), ActionKind::Internal,
                [me](const VState &s) {
                    return s[me.c] == C_O && s[me.rq] == RQ_None;
                },
                [me](VState &s) {
                    s[me.c] = C_OMD;
                    s[me.rq] = RQ_GetM;
                },
                GuardKey(me.c, {C_O}));
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
                ts.addRule(
                    "evict_" + std::string(permName(cacheStPerm(ec.from))) +
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
                    GuardKey(me.c, {ec.from}));
            }
        }

        // Inv: ack from every state that can legally see one.
        ts.addRule(
            "recv_inv_" + std::to_string(i), ActionKind::Internal,
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
            GuardKey(me.fw, {FW_Inv}));

        // Fwd_GetS: supply the target sibling.
        for (std::size_t j = 0; j < n; ++j) {
            if (j == i)
                continue;
            const LeafLayout &tgt = L[j];
            ts.addRule(
                "recv_fwdS_" + std::to_string(i) + "_to_" +
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
                        break; // O / OIA stay owners
                    }
                },
                GuardKey(me.fw, {FW_FwdGetS}));

            ts.addRule(
                "recv_fwdM_" + std::to_string(i) + "_to_" +
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
                GuardKey(me.fw, {FW_FwdGetM}));
        }

        if (f.inclusiveEvictions) {
            ts.addRule(
                "recv_putack_" + std::to_string(i),
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
                GuardKey(me.fw, {FW_PutAck}));
        }

        ts.addRule(
            "recv_dataS_" + std::to_string(i), ActionKind::Internal,
            [me](const VState &s) {
                return s[me.rs] == RS_DataS && s[me.c] == C_ISD &&
                       s[me.ak] == AK_None;
            },
            [me](VState &s) {
                s[me.rs] = RS_None;
                s[me.c] = C_S;
                s[me.ak] = AK_Unblock;
            },
            GuardKey(me.rs, {RS_DataS}));

        if (f.exclusiveState) {
            ts.addRule(
                "recv_dataE_" + std::to_string(i), ActionKind::Internal,
                [me](const VState &s) {
                    return s[me.rs] == RS_DataE && s[me.c] == C_ISD &&
                           s[me.ak] == AK_None;
                },
                [me](VState &s) {
                    s[me.rs] = RS_None;
                    s[me.c] = C_E;
                    s[me.ak] = AK_Unblock;
                },
                GuardKey(me.rs, {RS_DataE}));
        }

        ts.addRule(
            "recv_dataM_" + std::to_string(i), ActionKind::Internal,
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
            GuardKey(me.rs, {RS_DataM}));
    }

    // ---- directory rules ----
    for (std::size_t i = 0; i < n; ++i) {
        const LeafLayout &me = L[i];

        // GetS: forward to the owner or grant from the root's copy.
        ts.addRule(
            "d_getS_" + std::to_string(i), ActionKind::Internal,
            [me, L, n, busy, owner_of](const VState &s) {
                if (s[busy] != DB_Idle || s[me.rq] != RQ_GetS ||
                    s[me.rs] != RS_None)
                    return false;
                const int o = owner_of(s);
                if (o >= 0 && s[L[o].fw] != FW_None)
                    return false;
                return true;
            },
            [me, L, n, busy, hasData, owner_of, f](VState &s) {
                s[me.rq] = RQ_None;
                s[busy] = DB_Read;
                s[me.rqst] = 1;
                const int o = owner_of(s);
                if (o >= 0) {
                    s[L[o].fw] = FW_FwdGetS;
                    s[me.tg] = 1;
                    s[me.sh] = 1;
                    if (!f.ownedState) {
                        s[L[o].ow] = 0;
                        s[hasData] = 0; // refreshed by the Unblock
                    }
                } else {
                    bool sole = true;
                    for (std::size_t j = 0; j < n; ++j)
                        if (s[L[j].sh])
                            sole = false;
                    s[me.sh] = 1;
                    if (sole && f.exclusiveState) {
                        s[me.rs] = RS_DataE;
                        s[me.ow] = 1;
                    } else {
                        s[me.rs] = RS_DataS;
                    }
                }
            },
            GuardKey(me.rq, {RQ_GetS}));

        // GetM: invalidate other sharers, route data, grant after acks.
        ts.addRule(
            "d_getM_" + std::to_string(i), ActionKind::Internal,
            [me, L, n, busy](const VState &s) {
                if (s[busy] != DB_Idle || s[me.rq] != RQ_GetM ||
                    s[me.rs] != RS_None)
                    return false;
                for (std::size_t j = 0; j < n; ++j) {
                    if (L[j].fw == me.fw)
                        continue; // the requester needs no demand
                    if ((s[L[j].sh] || s[L[j].ow]) &&
                        s[L[j].fw] != FW_None)
                        return false;
                }
                return true;
            },
            [me, L, n, busy, acks, grantPend, fwdPend, hasData,
             owner_of](VState &s) {
                s[me.rq] = RQ_None;
                s[busy] = DB_Write;
                s[me.rqst] = 1;
                const int o = owner_of(s);
                for (std::size_t j = 0; j < n; ++j) {
                    if (L[j].c == me.c)
                        continue; // the requester keeps its copy
                    if (static_cast<int>(j) == o)
                        continue; // the owner gets the Fwd instead
                    if (s[L[j].sh]) {
                        s[L[j].fw] = FW_Inv;
                        s[L[j].sh] = 0;
                        ++s[acks];
                    }
                }
                if (o >= 0 && L[o].c != me.c) {
                    // Single-writer safety: the owner's Fwd may only
                    // go out after the sharers have acked.
                    s[me.tg] = 1;
                    if (s[acks] == 0) {
                        s[L[o].fw] = FW_FwdGetM;
                        s[L[o].ow] = 0;
                        s[L[o].sh] = 0;
                    } else {
                        s[fwdPend] = 1;
                    }
                } else {
                    s[grantPend] = 1;
                }
                s[me.sh] = 1;
                s[me.ow] = 1;
                s[hasData] = 0;
            },
            GuardKey(me.rq, {RQ_GetM}));

        // Completion: the requester's Unblock retires the transaction
        // (all invalidation acks must already be in).
        ts.addRule(
            "d_unblock_" + std::to_string(i), ActionKind::Internal,
            [me, busy, acks, grantPend, fwdPend](const VState &s) {
                return (s[me.ak] == AK_Unblock ||
                        s[me.ak] == AK_UnblockD) &&
                       s[me.rqst] && s[acks] == 0 && !s[grantPend] &&
                       !s[fwdPend] &&
                       (s[busy] == DB_Read || s[busy] == DB_Write);
            },
            [me, busy, hasData, owner_of, L, n](VState &s) {
                s[me.ak] = AK_None;
                s[me.rqst] = 0;
                s[busy] = DB_Idle;
                if (owner_of(s) < 0)
                    s[hasData] = 1;
            },
            GuardKey(me.ak, {AK_Unblock, AK_UnblockD}));

        ts.addRule(
            "d_invack_" + std::to_string(i), ActionKind::Internal,
            [me, acks](const VState &s) {
                return (s[me.ak] == AK_InvAck ||
                        s[me.ak] == AK_InvAckD) &&
                       s[acks] > 0;
            },
            [me, acks](VState &s) {
                s[me.ak] = AK_None;
                --s[acks];
            },
            GuardKey(me.ak, {AK_InvAck, AK_InvAckD}));

        if (f.inclusiveEvictions) {
            ts.addRule(
                "d_put_" + std::to_string(i), ActionKind::Internal,
                [me, busy](const VState &s) {
                    return s[busy] == DB_Idle &&
                           (s[me.rq] == RQ_PutS ||
                            s[me.rq] == RQ_PutE ||
                            s[me.rq] == RQ_PutM ||
                            s[me.rq] == RQ_PutO) &&
                           s[me.fw] == FW_None;
                },
                [me, hasData](VState &s) {
                    const bool owner_put =
                        s[me.ow] &&
                        (s[me.rq] == RQ_PutM || s[me.rq] == RQ_PutE ||
                         s[me.rq] == RQ_PutO);
                    s[me.rq] = RQ_None;
                    s[me.sh] = 0;
                    s[me.ow] = 0;
                    if (owner_put)
                        s[hasData] = 1;
                    s[me.fw] = FW_PutAck;
                },
                GuardKey(me.rq, {RQ_PutS, RQ_PutE, RQ_PutM, RQ_PutO}));
        }
    }

    // Deferred owner-forward: dispatched once the sharer acks are in.
    ts.addRule(
        "d_fwdM_dispatch", ActionKind::Internal,
        [busy, acks, fwdPend, L, n](const VState &s) {
            if (s[busy] != DB_Write || s[acks] != 0 || !s[fwdPend])
                return false;
            for (std::size_t j = 0; j < n; ++j) {
                if (s[L[j].ow] && !s[L[j].rqst])
                    return s[L[j].fw] == FW_None;
            }
            return false;
        },
        [fwdPend, L, n](VState &s) {
            for (std::size_t j = 0; j < n; ++j) {
                if (s[L[j].ow] && !s[L[j].rqst]) {
                    s[L[j].fw] = FW_FwdGetM;
                    s[L[j].ow] = 0;
                    s[L[j].sh] = 0;
                    break;
                }
            }
            s[fwdPend] = 0;
        },
        GuardKey(busy, {DB_Write}));

    // Grant-after-acks for writes served from the root's copy.
    ts.addRule(
        "d_grantM", ActionKind::Internal,
        [busy, acks, grantPend, L, n](const VState &s) {
            if (s[busy] != DB_Write || s[acks] != 0 || !s[grantPend])
                return false;
            for (std::size_t j = 0; j < n; ++j)
                if (s[L[j].rqst])
                    return s[L[j].rs] == RS_None;
            return false;
        },
        [grantPend, L, n](VState &s) {
            for (std::size_t j = 0; j < n; ++j) {
                if (s[L[j].rqst]) {
                    s[L[j].rs] = RS_DataM;
                    break;
                }
            }
            s[grantPend] = 0;
        },
        GuardKey(busy, {DB_Write}));

    // Inclusive recall: the root evicts the block, pulling every copy
    // home first (models directory eviction pressure).
    if (f.inclusiveEvictions) {
        ts.addRule(
            "d_recall", ActionKind::Internal,
            [busy, L, n](const VState &s) {
                if (s[busy] != DB_Idle)
                    return false;
                bool holder = false;
                for (std::size_t j = 0; j < n; ++j) {
                    if (s[L[j].sh] || s[L[j].ow]) {
                        holder = true;
                        if (s[L[j].fw] != FW_None)
                            return false;
                    }
                }
                return holder;
            },
            [busy, acks, L, n](VState &s) {
                s[busy] = DB_Recall;
                for (std::size_t j = 0; j < n; ++j) {
                    if (s[L[j].sh] || s[L[j].ow]) {
                        s[L[j].fw] = FW_Inv;
                        s[L[j].sh] = 0;
                        s[L[j].ow] = 0;
                        ++s[acks];
                    }
                }
            },
            GuardKey(busy, {DB_Idle}));

        ts.addRule(
            "d_recall_done", ActionKind::Internal,
            [busy, acks](const VState &s) {
                return s[busy] == DB_Recall && s[acks] == 0;
            },
            [busy, hasData](VState &s) {
                s[busy] = DB_Idle;
                s[hasData] = 1;
            },
            GuardKey(busy, {DB_Recall}));
    }

    // ---- Neo safety: the closed system's summary must never be bad.
    // Root Permission is M by construction, so safety reduces to the
    // leaves' pairwise MOESI compatibility (§2.4 requirement 2).
    ts.addInvariant("NeoSafety_leafCompat", [L, n](const VState &s) {
        for (std::size_t i = 0; i < n; ++i) {
            const Perm pi = cacheStPerm(s[L[i].c]);
            for (std::size_t j = i + 1; j < n; ++j) {
                if (!permCompatible(pi, cacheStPerm(s[L[j].c])))
                    return false;
            }
        }
        return true;
    });

    // Directory bookkeeping soundness: a leaf holding any permission
    // must be tracked (metadata inclusion).
    ts.addInvariant("DirTracksHolders", [L, n](const VState &s) {
        for (std::size_t i = 0; i < n; ++i) {
            const Perm pi = cacheStPerm(s[L[i].c]);
            if (pi != Perm::I && !s[L[i].sh] && !s[L[i].ow] &&
                !s[L[i].rqst] && s[L[i].fw] == FW_None) {
                // Mid-Put states and leaves with a demand in flight
                // are legitimately untracked.
                const auto c = s[L[i].c];
                if (c != C_SIA && c != C_EIA && c != C_MIA &&
                    c != C_OIA)
                    return false;
            }
        }
        return true;
    });

    ts.setSummarizer([L, n](const VState &s) {
        std::vector<Perm> sums;
        sums.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            sums.push_back(cacheStPerm(s[L[i].c]));
        return composeSum(Perm::M, sums);
    });

    return ts;
}

ModelFactory
closedModelFactory(const VerifFeatures &features)
{
    return [features](std::size_t n, ModelShape &shape) {
        return buildClosedModel(n, features, shape);
    };
}

} // namespace neo::verif
