#include "mutants.hpp"

#include <utility>

#include "verif/models/flat_closed.hpp"
#include "verif/models/german.hpp"
#include "verif/models/verif_features.hpp"

namespace neo::verif
{

namespace
{

/** Fetch a rule that must exist. */
TransitionSystem::Rule &
ruleOf(TransitionSystem &ts, const std::string &name)
{
    auto *r = ts.findRule(name);
    if (!r)
        neo_fatal("mutant references unknown rule: ", name);
    return *r;
}

/**
 * Guard mutation: drop the conjunct over @p var by evaluating the
 * original guard on a copy of the state with @p var forced to @p val
 * (the value that satisfies the dropped conjunct).
 */
void
weakenGuard(TransitionSystem &ts, const std::string &rule,
            std::size_t var, std::uint8_t val)
{
    auto &r = ruleOf(ts, rule);
    auto orig = std::move(r.guard);
    // overrideGuard (not plain assignment) so a rule declared in flat
    // term form sheds its terms — CompiledRules must see the mutation.
    r.overrideGuard([orig, var, val](const VState &s) {
        VState t = s;
        t[var] = val;
        return orig(t);
    });
}

/** Effect mutation: run the original effect, then clear @p vars. */
void
clearAfterEffect(TransitionSystem &ts, const std::string &rule,
                 std::vector<std::size_t> vars)
{
    auto &r = ruleOf(ts, rule);
    auto orig = std::move(r.effect);
    r.overrideEffect([orig, vars](VState &s) {
        orig(s);
        for (const std::size_t v : vars)
            s[v] = 0;
    });
}

/** Effect mutation: run the original effect as if @p vars were 0
 *  (blinding it to them), then restore their old values. */
void
blindEffectTo(TransitionSystem &ts, const std::string &rule,
              std::vector<std::size_t> vars)
{
    auto &r = ruleOf(ts, rule);
    auto orig = std::move(r.effect);
    r.overrideEffect([orig, vars](VState &s) {
        std::vector<std::uint8_t> saved(vars.size());
        for (std::size_t k = 0; k < vars.size(); ++k) {
            saved[k] = s[vars[k]];
            s[vars[k]] = 0;
        }
        orig(s);
        for (std::size_t k = 0; k < vars.size(); ++k)
            s[vars[k]] = saved[k];
    });
}

/** Effect mutation: run the original effect, then restore @p var to
 *  its pre-effect value when it previously held @p when. */
void
keepVarAcrossEffect(TransitionSystem &ts, const std::string &rule,
                    std::size_t var, std::uint8_t when)
{
    auto &r = ruleOf(ts, rule);
    auto orig = std::move(r.effect);
    r.overrideEffect([orig, var, when](VState &s) {
        const std::uint8_t pre = s[var];
        orig(s);
        if (pre == when)
            s[var] = pre;
    });
}

std::string
leafVar(std::size_t i, const char *field)
{
    std::string name = "l";
    name += std::to_string(i);
    name += '.';
    name += field;
    return name;
}

/** Other leaves' indices of one per-leaf variable. */
std::vector<std::size_t>
otherLeafVars(const TransitionSystem &ts, std::size_t n,
              std::size_t me, const char *field)
{
    std::vector<std::size_t> vars;
    for (std::size_t j = 0; j < n; ++j) {
        if (j != me)
            vars.push_back(ts.varIndex(leafVar(j, field)));
    }
    return vars;
}

std::vector<Mutant>
makeRegistry()
{
    std::vector<Mutant> reg;

    // 1. Directory forgets the requester in its sharer list when a
    //    read is served through the owner (metadata-inclusion bug).
    reg.push_back(Mutant{
        "dir_forgets_sharer_on_read",
        "d_getS grants data but drops the requester from the sharer "
        "vector",
        "DirTracksHolders", 2, 64, 256, 1, [](ModelShape &shape) {
            TransitionSystem ts = buildClosedModel(
                2, VerifFeatures::neoMESI(), shape);
            for (std::size_t i = 0; i < 2; ++i) {
                clearAfterEffect(
                    ts, "d_getS_" + std::to_string(i),
                    {ts.varIndex(leafVar(i, "sh"))});
            }
            return ts;
        }});

    // 2. Directory wipes its whole sharer vector when it acks one
    //    leaf's eviction (forgets the OTHER sharers on evict-ack).
    reg.push_back(Mutant{
        "dir_forgets_sharers_on_evict_ack",
        "d_put clears every leaf's sharer bit, not just the evictor's",
        "DirTracksHolders", 2, 64, 256, 1, [](ModelShape &shape) {
            TransitionSystem ts = buildClosedModel(
                2, VerifFeatures::inclusiveMSI(), shape);
            for (std::size_t i = 0; i < 2; ++i) {
                clearAfterEffect(ts, "d_put_" + std::to_string(i),
                                 otherLeafVars(ts, 2, i, "sh"));
            }
            return ts;
        }});

    // 3/4. The §4.2 non-blocking directory: accepts a second request
    //    while a transaction is still in flight (busy conjunct
    //    dropped from the request-accept guards). A non-blocking
    //    directory abandons its transaction bookkeeping by design, so
    //    the DirTracksHolders bookkeeping invariant is vacuous for
    //    this variant and is dropped — that keeps the reported
    //    violation (the actual SAFETY bug) unique on every path, for
    //    BFS, the parallel explorer and the random walker alike.
    reg.push_back(Mutant{
        "dir_nonblocking_read",
        "d_getS accepts a GetS while the directory is mid-transaction",
        "NeoSafety_leafCompat", 2, 64, 256, 1, [](ModelShape &shape) {
            TransitionSystem ts = buildClosedModel(
                2, VerifFeatures::neoMESI(), shape);
            ts.dropInvariant("DirTracksHolders");
            const std::size_t busy = ts.varIndex("busy");
            for (std::size_t i = 0; i < 2; ++i) {
                weakenGuard(ts, "d_getS_" + std::to_string(i), busy,
                            DB_Idle);
            }
            return ts;
        }});
    reg.push_back(Mutant{
        "dir_nonblocking_write",
        "d_getM accepts a GetM while the directory is mid-transaction",
        "NeoSafety_leafCompat", 2, 64, 256, 1, [](ModelShape &shape) {
            TransitionSystem ts = buildClosedModel(
                2, VerifFeatures::neoMESI(), shape);
            ts.dropInvariant("DirTracksHolders");
            const std::size_t busy = ts.varIndex("busy");
            for (std::size_t i = 0; i < 2; ++i) {
                weakenGuard(ts, "d_getM_" + std::to_string(i), busy,
                            DB_Idle);
            }
            return ts;
        }});

    // 5. The §4.2.2 O-state bug: the owner answers a Fwd_GetM with
    //    dirty data but keeps its own copy (no ownership transfer).
    //    The first violation on every path is the supplier holding M
    //    untracked (the directory already handed ownership away), so
    //    the tag is the bookkeeping invariant, not leaf compat.
    reg.push_back(Mutant{
        "owner_supplies_without_transfer",
        "recv_fwdM supplies DataM but the owner keeps its cache state",
        "DirTracksHolders", 2, 64, 256, 1, [](ModelShape &shape) {
            TransitionSystem ts = buildClosedModel(
                2, VerifFeatures::withOwned(), shape);
            for (std::size_t i = 0; i < 2; ++i) {
                for (std::size_t j = 0; j < 2; ++j) {
                    if (i == j)
                        continue;
                    auto &r = ruleOf(ts, "recv_fwdM_" +
                                             std::to_string(i) +
                                             "_to_" +
                                             std::to_string(j));
                    const std::size_t c =
                        ts.varIndex(leafVar(i, "c"));
                    auto orig = std::move(r.effect);
                    r.overrideEffect([orig, c](VState &s) {
                        const std::uint8_t pre = s[c];
                        orig(s);
                        s[c] = pre; // supplier keeps its copy
                    });
                }
            }
            return ts;
        }});

    // 6. A sharer acknowledges an invalidation but keeps its S copy.
    //    The ack step itself leaves an untracked S leaf (the
    //    directory dropped it from the sharer vector when it sent the
    //    Inv), so every path violates DirTracksHolders first.
    reg.push_back(Mutant{
        "sharer_ignores_inv",
        "recv_inv acks the Inv but an S-state leaf stays in S",
        "DirTracksHolders", 2, 64, 256, 1, [](ModelShape &shape) {
            TransitionSystem ts = buildClosedModel(
                2, VerifFeatures::baselineMSI(), shape);
            for (std::size_t i = 0; i < 2; ++i) {
                keepVarAcrossEffect(ts,
                                    "recv_inv_" + std::to_string(i),
                                    ts.varIndex(leafVar(i, "c")),
                                    C_S);
            }
            return ts;
        }});

    // 7. Directory grants Exclusive data while another sharer is
    //    live (the sole-sharer check is blinded).
    reg.push_back(Mutant{
        "dir_grants_E_with_sharers",
        "d_getS grants DataE as if the requester were the sole sharer",
        "NeoSafety_leafCompat", 2, 64, 256, 1, [](ModelShape &shape) {
            TransitionSystem ts = buildClosedModel(
                2, VerifFeatures::neoMESI(), shape);
            for (std::size_t i = 0; i < 2; ++i) {
                blindEffectTo(ts, "d_getS_" + std::to_string(i),
                              otherLeafVars(ts, 2, i, "sh"));
            }
            return ts;
        }});

    // 8. Directory serves a GetM without invalidating the sharers
    //    (the Inv loop is blinded to the sharer vector).
    reg.push_back(Mutant{
        "dir_skips_invalidation",
        "d_getM grants M data without invalidating live sharers",
        "NeoSafety_leafCompat", 2, 64, 256, 1, [](ModelShape &shape) {
            TransitionSystem ts = buildClosedModel(
                2, VerifFeatures::baselineMSI(), shape);
            for (std::size_t i = 0; i < 2; ++i) {
                blindEffectTo(ts, "d_getM_" + std::to_string(i),
                              otherLeafVars(ts, 2, i, "sh"));
            }
            return ts;
        }});

    // 9. Single-writer race: the owner's Fwd_GetM is dispatched
    //    before the sharers' invalidation acks are in.
    reg.push_back(Mutant{
        "dir_early_owner_fwd",
        "d_getM dispatches the owner forward while acks are pending",
        "NeoSafety_leafCompat", 3, 128, 384, 1, [](ModelShape &shape) {
            TransitionSystem ts = buildClosedModel(
                3, VerifFeatures::withOwned(), shape);
            const std::size_t fwdPend = ts.varIndex("fwdPend");
            std::vector<std::size_t> fw(3), ow(3), sh(3), rqst(3);
            for (std::size_t j = 0; j < 3; ++j) {
                fw[j] = ts.varIndex(leafVar(j, "fw"));
                ow[j] = ts.varIndex(leafVar(j, "ow"));
                sh[j] = ts.varIndex(leafVar(j, "sh"));
                rqst[j] = ts.varIndex(leafVar(j, "rqst"));
            }
            for (std::size_t i = 0; i < 3; ++i) {
                auto &r = ruleOf(ts, "d_getM_" + std::to_string(i));
                auto orig = std::move(r.effect);
                r.overrideEffect([orig, fwdPend, fw, ow, sh,
                                  rqst](VState &s) {
                    orig(s);
                    if (!s[fwdPend])
                        return;
                    for (std::size_t j = 0; j < 3; ++j) {
                        if (s[ow[j]] && !s[rqst[j]] &&
                            s[fw[j]] == FW_None) {
                            s[fw[j]] = FW_FwdGetM;
                            s[ow[j]] = 0;
                            s[sh[j]] = 0;
                            s[fwdPend] = 0;
                            break;
                        }
                    }
                });
            }
            return ts;
        }});

    // 10. A leaf silently upgrades S -> M without a GetM (an added
    //     rogue rule — the pure "action mutation" case).
    reg.push_back(Mutant{
        "leaf_silent_upgrade",
        "added rule: an S-state leaf jumps to M without requesting",
        "NeoSafety_leafCompat", 2, 64, 256, 1, [](ModelShape &shape) {
            TransitionSystem ts = buildClosedModel(
                2, VerifFeatures::baselineMSI(), shape);
            for (std::size_t i = 0; i < 2; ++i) {
                const std::size_t c = ts.varIndex(leafVar(i, "c"));
                ts.addRule(
                    "mut_silent_upgrade_" + std::to_string(i),
                    ActionKind::Internal,
                    [c](const VState &s) { return s[c] == C_S; },
                    [c](VState &s) { s[c] = C_M; });
            }
            return ts;
        }});

    // 11. German home grants Exclusive while a sharer is live (the
    //     grant guard is blinded to the sharer set).
    reg.push_back(Mutant{
        "german_grant_E_with_sharers",
        "sendGntE ignores the sharer vector when granting Exclusive",
        "CtrlProp", 2, 64, 256, 1, [](ModelShape &shape) {
            TransitionSystem ts = buildGermanModel(2, shape);
            for (std::size_t i = 0; i < 2; ++i) {
                for (std::size_t j = 0; j < 2; ++j) {
                    std::string shr = "c";
                    shr += std::to_string(j);
                    shr += ".shr";
                    weakenGuard(ts, "sendGntE_" + std::to_string(i),
                                ts.varIndex(shr), 0);
                }
            }
            return ts;
        }});

    return reg;
}

} // namespace

const std::vector<Mutant> &
mutantRegistry()
{
    static const std::vector<Mutant> reg = makeRegistry();
    return reg;
}

const Mutant *
findMutant(const std::string &name)
{
    for (const auto &m : mutantRegistry()) {
        if (m.name == name)
            return &m;
    }
    return nullptr;
}

const std::vector<BundledModel> &
bundledModels()
{
    static const std::vector<BundledModel> models = [] {
        std::vector<BundledModel> v;
        v.push_back({"closed_msi_n2", [](ModelShape &shape) {
                         return buildClosedModel(
                             2, VerifFeatures::baselineMSI(), shape);
                     }});
        v.push_back({"closed_msi_incl_n2", [](ModelShape &shape) {
                         return buildClosedModel(
                             2, VerifFeatures::inclusiveMSI(), shape);
                     }});
        v.push_back({"closed_neomesi_n3", [](ModelShape &shape) {
                         return buildClosedModel(
                             3, VerifFeatures::neoMESI(), shape);
                     }});
        v.push_back({"closed_moesi_n3", [](ModelShape &shape) {
                         return buildClosedModel(
                             3, VerifFeatures::withOwned(), shape);
                     }});
        v.push_back({"german_n3", [](ModelShape &shape) {
                         return buildGermanModel(3, shape);
                     }});
        return v;
    }();
    return models;
}

} // namespace neo::verif
