/**
 * @file
 * Verifier workloads: NeoMESI's Open Neo System at its cutoff instance
 * on the parallel explorer, and the first five instances of the
 * parametric sweep on the sequential one.
 *
 * The traced run splits successor generation into guard scan, firing,
 * canonicalization, hashing, interning and invariant checks with a
 * replica BFS made of the layers' public calls (CompiledRules, the
 * model canonicalizer, stateHash, StateStore). Its phases are batched
 * per expanded state so that each costs one clock read per state, and
 * the spans are summed per BFS level. The replica must reach explore()'s
 * exact fixpoint, or the run fails.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "verif/models/flat_open.hpp"
#include "verif/parametric.hpp"
#include "workloads.hpp"

namespace e2e
{

using namespace neo;
using namespace neo::verif;

namespace
{

/** Pinned outputs of one Open-model instance (NeoMESI, Modified
 *  composition), measured at the commit that introduced the
 *  benchmark. */
struct InstancePin
{
    std::size_t n;
    std::uint64_t states;
    std::uint64_t transitions;
    /** Size-<=2 view set of the parametric sweep at this N. */
    std::uint64_t views;
    /** digestWords() over the per-rule fire counts. */
    std::uint64_t fireDigest;
};

constexpr InstancePin kOpenPins[] = {
    {1, 941, 1'997, 1'093, 5768799440728096190ULL},
    {2, 11'734, 33'274, 14'886, 3102385023959867051ULL},
    {3, 79'429, 287'006, 29'569, 6769439933690054291ULL},
    {4, 402'101, 1'782'617, 33'222, 3881108095040760190ULL},
    {5, 1'690'862, 8'951'147, 33'717, 9967656575763125508ULL},
};
constexpr std::size_t kSweepTo = 5;
/** verify-open-n5 runs the parallel explorer with this many workers. */
constexpr unsigned kParallelThreads = 4;

/** The bounds neoverify runs with; maxStates also sets the explorer's
 *  table pre-size, so it is part of the workload. */
ExploreLimits
neoverifyLimits(unsigned threads)
{
    ExploreLimits lim;
    lim.maxStates = 8'000'000;
    lim.maxSeconds = 600.0;
    lim.threads = threads;
    return lim;
}

TransitionSystem
buildOpen(std::size_t n)
{
    ModelShape shape;
    return buildOpenModel(n, VerifFeatures::neoMESI(),
                          CompositionMethod::Modified, shape);
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

/** The outputs every gate compares, from either engine. */
struct Counts
{
    bool verified = false;
    std::uint64_t states = 0;
    std::uint64_t transitions = 0;
    std::uint64_t invariantChecks = 0;
    std::vector<std::uint64_t> ruleFires;
};

Counts
countsOf(const ExploreResult &r)
{
    return {r.status == VerifStatus::Verified, r.statesExplored,
            r.transitionsFired, r.invariantChecks, r.ruleFires};
}

/** Gate one instance against its pins. @p invariants is the model's
 *  invariant count: a Verified run checks every state against each. */
bool
checkInstance(RepOutcome &out, const Options &opt, const char *engine,
              const Counts &c, const InstancePin &pin,
              std::size_t invariants)
{
    char what[96];
    std::snprintf(what, sizeof(what), "%s open N=%zu", engine, pin.n);
    if (!c.verified) {
        fail(out, std::string(what) + ": not verified");
        return false;
    }
    auto label = [&](const char *field) {
        return std::string(what) + " " + field;
    };
    bool ok = checkPin(out, opt, label("states").c_str(), c.states,
                       pin.states);
    ok = checkPin(out, opt, label("transitions").c_str(), c.transitions,
                  pin.transitions) &&
         ok;
    ok = checkPin(out, opt, label("invariant checks").c_str(),
                  c.invariantChecks, c.states * invariants) &&
         ok;
    ok = checkPin(out, opt, label("fire digest").c_str(),
                  digestWords(c.ruleFires.data(), c.ruleFires.size()),
                  pin.fireDigest) &&
         ok;
    return ok;
}

// ------------------------------------------------------------------ //
// Replica BFS                                                        //
// ------------------------------------------------------------------ //

enum Phase
{
    kGuard,
    kFire,
    kCanon,
    kHash,
    kIntern,
    kInvariant,
    kNumPhases
};
constexpr const char *kPhaseNames[kNumPhases] = {
    "guard_scan", "fire", "canonicalize", "hash", "intern", "invariants"};

struct LevelSpan
{
    double startS = 0.0;
    std::uint64_t states = 0;
    double phaseS[kNumPhases] = {};
};

struct Replica
{
    Counts counts;
    std::uint64_t guardEvals = 0;
    std::uint64_t canonIdentity = 0;
    std::uint64_t internAttempts = 0;
    std::uint64_t newStates = 0;
    double probeMean = 0.0;
    double bytesPerState = 0.0;
    double startS = 0.0;
    double wallS = 0.0;
    double phaseS[kNumPhases] = {};
    std::vector<LevelSpan> levels;
};

/** Mean insert-probe distance from the store's bucketed histogram
 *  (bucket b >= 1 covers [2^(b-1), 2^b); each counts at its midpoint). */
double
meanProbe(const StateStore &store)
{
    const auto &h = store.probeHistogram();
    double sum = 0.0, n = 0.0;
    for (std::size_t b = 0; b < h.size(); ++b) {
        const double mid =
            b == 0 ? 0.0
                   : (static_cast<double>(1ULL << (b - 1)) +
                      static_cast<double>((1ULL << b) - 1)) /
                         2.0;
        sum += mid * static_cast<double>(h[b]);
        n += static_cast<double>(h[b]);
    }
    return n > 0.0 ? sum / n : 0.0;
}

/**
 * BFS to the fixpoint with explore()'s semantics (canonical states,
 * every enabled rule fired, invariants checked on each new state). With
 * @p Timed, each phase of each expansion is bracketed by clock reads
 * and summed per level; without, the same loop runs clock-free, which
 * is the untraced reference for the tracing overhead.
 */
template <bool Timed>
Replica
replicaBfs(const TransitionSystem &ts, Clock::time_point traceT0)
{
    const auto w0 = Clock::now();
    Replica res;
    res.startS = std::chrono::duration<double>(w0 - traceT0).count();
    const CompiledRules comp(ts);
    const auto &canon = ts.canonicalizer();
    const auto &canonCheck = ts.canonicalCheck();
    const auto &invs = ts.invariants();
    const std::size_t R = comp.size();
    const std::size_t stride = ts.numVars();
    StateStore store(stride);
    res.counts.ruleFires.assign(R, 0);
    bool ok = true;

    auto invariantsHold = [&](const VState &s) {
        for (const auto &inv : invs) {
            ++res.counts.invariantChecks;
            if (!inv.check(s))
                return false;
        }
        return true;
    };

    VState init = ts.initialState();
    if (canon)
        canon(init);
    store.intern(init);
    ok = invariantsHold(init);

    std::vector<std::uint32_t> level{0}, nextLevel;
    VState cur(stride), scratch;
    std::vector<std::uint32_t> enabled;
    std::vector<VState> succ;
    std::vector<std::uint64_t> hashes;
    std::vector<std::uint32_t> fresh;
    Clock::time_point t[kNumPhases + 1];

    while (ok && !level.empty()) {
        LevelSpan span;
        if constexpr (Timed)
            span.startS = secondsSince(traceT0);
        span.states = level.size();
        for (const std::uint32_t id : level) {
            const std::uint8_t *p = store.at(id);
            cur.assign(p, p + stride);
            if constexpr (Timed)
                t[0] = Clock::now();

            enabled.clear();
            for (std::size_t r = 0; r < R; ++r) {
                if (comp.guard(r, cur))
                    enabled.push_back(static_cast<std::uint32_t>(r));
            }
            res.guardEvals += R;
            if constexpr (Timed)
                t[1] = Clock::now();

            const std::size_t k = enabled.size();
            if (succ.size() < k)
                succ.resize(k);
            for (std::size_t i = 0; i < k; ++i) {
                succ[i] = cur;
                comp.effect(enabled[i], succ[i]);
                ++res.counts.ruleFires[enabled[i]];
            }
            res.counts.transitions += k;
            if constexpr (Timed)
                t[2] = Clock::now();

            if (canon) {
                for (std::size_t i = 0; i < k; ++i) {
                    bool identity;
                    if (canonCheck) {
                        identity = canonCheck(succ[i]);
                        if (!identity)
                            canon(succ[i]);
                    } else {
                        scratch = succ[i];
                        canon(succ[i]);
                        identity = scratch == succ[i];
                    }
                    res.canonIdentity += identity ? 1 : 0;
                }
            }
            if constexpr (Timed)
                t[3] = Clock::now();

            hashes.resize(k);
            for (std::size_t i = 0; i < k; ++i)
                hashes[i] = stateHash(succ[i].data(), stride);
            if constexpr (Timed)
                t[4] = Clock::now();

            fresh.clear();
            for (std::size_t i = 0; i < k; ++i) {
                const auto [nid, inserted] =
                    store.internHashed(succ[i].data(), hashes[i]);
                if (inserted) {
                    fresh.push_back(static_cast<std::uint32_t>(i));
                    nextLevel.push_back(nid);
                }
            }
            res.internAttempts += k;
            res.newStates += fresh.size();
            if constexpr (Timed)
                t[5] = Clock::now();

            for (const std::uint32_t i : fresh) {
                if (!invariantsHold(succ[i])) {
                    ok = false;
                    break;
                }
            }
            if constexpr (Timed) {
                t[6] = Clock::now();
                for (int ph = 0; ph < kNumPhases; ++ph)
                    span.phaseS[ph] +=
                        std::chrono::duration<double>(t[ph + 1] - t[ph])
                            .count();
            }
            if (!ok)
                break;
        }
        for (int ph = 0; ph < kNumPhases; ++ph)
            res.phaseS[ph] += span.phaseS[ph];
        if constexpr (Timed)
            res.levels.push_back(span);
        level.swap(nextLevel);
        nextLevel.clear();
    }

    res.counts.verified = ok;
    res.counts.states = store.size();
    res.probeMean = meanProbe(store);
    res.bytesPerState = static_cast<double>(store.memoryBytes()) /
                        static_cast<double>(store.size());
    res.wallS = secondsSince(w0);
    return res;
}

/** Sums over the instances a traced run explores. */
struct TraceTotals
{
    double buildS = 0.0, compileS = 0.0;
    double exploreS = 0.0, exploreCpuS = 0.0;
    std::uint64_t exploreStates = 0, guardEvals = 0, guardSkipped = 0;
    std::uint64_t exploreMemory = 0;
    double replicaS = 0.0, replicaTracedS = 0.0;
    double phaseS[kNumPhases] = {};
    std::uint64_t states = 0, transitions = 0, canonIdentity = 0;
    std::uint64_t replicaGuardEvals = 0;
    std::uint64_t internAttempts = 0, newStates = 0;
    double probeWeighted = 0.0, bytesWeighted = 0.0;
};

/** Traced pass over one instance: build, compile, the real explore()
 *  on @p threads workers, then the replica, untraced and traced. */
void
traceInstance(const InstancePin &pin, unsigned threads,
              Clock::time_point t0, TraceResult &tr, TraceTotals &tot)
{
    RepOutcome gate;
    const std::string nTag = "N=" + std::to_string(pin.n);

    auto tb = Clock::now();
    const TransitionSystem ts = buildOpen(pin.n);
    tot.buildS += secondsSince(tb);
    auto tc = Clock::now();
    {
        const CompiledRules comp(ts);
        const RuleDepIndex idx(ts);
    }
    tot.compileS += secondsSince(tc);

    const double cpu0 = processCpuSeconds();
    const ExploreResult er = explore(ts, neoverifyLimits(threads), false,
                                     true);
    tot.exploreCpuS += processCpuSeconds() - cpu0;
    tot.exploreS += er.seconds;
    tot.exploreStates += er.statesExplored;
    tot.guardEvals += er.guardEvals;
    tot.guardSkipped += er.guardEvalsSkipped;
    tot.exploreMemory = std::max(tot.exploreMemory, er.memoryBytes);
    const std::size_t invs = ts.invariants().size();
    if (!checkInstance(gate, Options{}, "explore()", countsOf(er), pin,
                       invs))
        tr.failWith(gate.detail);

    // Untraced, traced, traced, untraced: the faster run of each side
    // counts, so neither side alone pays for a cold heap.
    Replica plain = replicaBfs<false>(ts, t0);
    Replica traced = replicaBfs<true>(ts, t0);
    Replica traced2 = replicaBfs<true>(ts, t0);
    Replica plain2 = replicaBfs<false>(ts, t0);
    for (const Replica *r : {&plain, &traced, &traced2, &plain2}) {
        if (!checkInstance(gate, Options{}, "replica", r->counts, pin,
                           invs))
            tr.failWith(gate.detail);
    }
    if (traced2.wallS < traced.wallS)
        traced = std::move(traced2);
    if (plain2.wallS < plain.wallS)
        plain = std::move(plain2);

    tot.replicaS += plain.wallS;
    tot.replicaTracedS += traced.wallS;
    for (int ph = 0; ph < kNumPhases; ++ph)
        tot.phaseS[ph] += traced.phaseS[ph];
    tot.states += traced.counts.states;
    tot.transitions += traced.counts.transitions;
    tot.canonIdentity += traced.canonIdentity;
    tot.replicaGuardEvals += traced.guardEvals;
    tot.internAttempts += traced.internAttempts;
    tot.newStates += traced.newStates;
    tot.probeWeighted +=
        traced.probeMean * static_cast<double>(traced.newStates);
    tot.bytesWeighted +=
        traced.bytesPerState * static_cast<double>(traced.counts.states);

    tr.spans.push_back({nTag + "/replica", "", traced.startS,
                        traced.wallS, traced.counts.states});
    for (std::size_t d = 0; d < traced.levels.size(); ++d) {
        const LevelSpan &ls = traced.levels[d];
        const std::string lv = nTag + "/level " + std::to_string(d);
        double busy = 0.0;
        for (int ph = 0; ph < kNumPhases; ++ph)
            busy += ls.phaseS[ph];
        tr.spans.push_back({lv, nTag + "/replica", ls.startS, busy,
                            ls.states});
        for (int ph = 0; ph < kNumPhases; ++ph)
            tr.spans.push_back({lv + "/" + kPhaseNames[ph], lv,
                                ls.startS, ls.phaseS[ph], ls.states});
    }
}

/** The layer metrics both verifier workloads report; parametric and
 *  simulator layers are filled by the caller or left at 0. */
void
verifierMetrics(const TraceTotals &tot, Metrics &m)
{
    const double states = static_cast<double>(tot.states);
    const double transitions = static_cast<double>(tot.transitions);
    m["models.build_s"] = tot.buildS;
    m["transition_system.compile_s"] = tot.compileS;
    m["transition_system.guard_scan_s"] = tot.phaseS[kGuard];
    m["transition_system.guard_evals_per_state"] =
        static_cast<double>(tot.guardEvals) /
        static_cast<double>(tot.exploreStates);
    m["transition_system.enabled_frac"] =
        transitions / static_cast<double>(tot.replicaGuardEvals);
    m["transition_system.fire_s"] = tot.phaseS[kFire];
    m["transition_system.invariant_s"] = tot.phaseS[kInvariant];
    m["models.canon_s"] = tot.phaseS[kCanon];
    m["models.canon_identity_frac"] =
        static_cast<double>(tot.canonIdentity) / transitions;
    m["state_store.hash_s"] = tot.phaseS[kHash];
    m["state_store.intern_s"] = tot.phaseS[kIntern];
    m["state_store.new_frac"] = static_cast<double>(tot.newStates) /
                                static_cast<double>(tot.internAttempts);
    m["state_store.probe_mean"] =
        tot.probeWeighted / static_cast<double>(tot.newStates);
    m["state_store.bytes_per_state"] = tot.bytesWeighted / states;
    m["explorer.states_per_s"] =
        static_cast<double>(tot.exploreStates) / tot.exploreS;
    m["explorer.cpu_per_wall"] = tot.exploreCpuS / tot.exploreS;
    m["explorer.guard_evals_skipped_frac"] =
        static_cast<double>(tot.guardSkipped) /
        static_cast<double>(tot.guardEvals + tot.guardSkipped);
    m["explorer.memory_bytes"] = static_cast<double>(tot.exploreMemory);
    m["trace.overhead_frac"] = tot.replicaTracedS / tot.replicaS - 1.0;
}

} // namespace

// ------------------------------------------------------------------ //
// verify-open-n5                                                     //
// ------------------------------------------------------------------ //

RepOutcome
verifyOpenN5Rep(const Options &opt)
{
    RepOutcome out;
    const auto t0 = Clock::now();
    const TransitionSystem ts = buildOpen(5);
    const ExploreResult r =
        explore(ts, neoverifyLimits(kParallelThreads), false, true);
    out.ok = checkInstance(out, opt, "explore()", countsOf(r),
                           kOpenPins[4], ts.invariants().size());
    out.wallS = secondsSince(t0);
    out.workPerS = static_cast<double>(r.statesExplored) / out.wallS;
    const std::uint64_t d[] = {r.statesExplored, r.transitionsFired};
    out.digest = digestWords(d, 2);
    return out;
}

double
verifyOpenN5Setup(const Options &)
{
    const auto t0 = Clock::now();
    const TransitionSystem ts = buildOpen(5);
    const CompiledRules comp(ts);
    const RuleDepIndex idx(ts);
    return secondsSince(t0);
}

void
verifyOpenN5Traced(const Options &, TraceResult &tr)
{
    const auto t0 = Clock::now();
    TraceTotals tot;
    traceInstance(kOpenPins[4], kParallelThreads, t0, tr, tot);
    verifierMetrics(tot, tr.metrics);
}

// ------------------------------------------------------------------ //
// sweep-open-n1-5                                                    //
// ------------------------------------------------------------------ //

namespace
{

/** Gate a sweep result: every instance Verified and pinned, views
 *  pinned, and (N=5 being below the cutoff's witness N=6) no
 *  convergence yet. */
bool
checkSweep(RepOutcome &out, const Options &opt, const ParametricResult &r)
{
    if (r.status != VerifStatus::Verified || r.converged ||
        r.perInstance.size() != kSweepTo) {
        fail(out, "sweep: " + std::string(verifStatusName(r.status)) +
                      ", " + std::to_string(r.perInstance.size()) +
                      " instances, " + r.detail);
        return false;
    }
    bool ok = true;
    for (std::size_t i = 0; i < kSweepTo; ++i) {
        const InstancePin &pin = kOpenPins[i];
        // The sweep builds its models internally, so the invariant
        // count is not in hand here; verify-open-n5 and the traced run
        // check invariantChecks.
        Counts c = countsOf(r.perInstance[i]);
        c.invariantChecks = 0;
        ok = checkInstance(out, opt, "sweep", c, pin, 0) && ok;
        const std::string what = "sweep N=" + std::to_string(pin.n) +
                                 " views";
        ok = checkPin(out, opt, what.c_str(), r.abstractSetSizes[i],
                      pin.views) &&
             ok;
    }
    return ok;
}

ParametricResult
runSweep()
{
    return verifyParametric(openModelFactory(VerifFeatures::neoMESI(),
                                             CompositionMethod::Modified),
                            1, kSweepTo, neoverifyLimits(1));
}

} // namespace

RepOutcome
sweepRep(const Options &opt)
{
    RepOutcome out;
    const auto t0 = Clock::now();
    const ParametricResult r = runSweep();
    out.ok = checkSweep(out, opt, r);
    out.wallS = secondsSince(t0);
    std::uint64_t states = 0;
    std::vector<std::uint64_t> d;
    for (std::size_t i = 0; i < r.perInstance.size(); ++i) {
        states += r.perInstance[i].statesExplored;
        d.push_back(r.perInstance[i].statesExplored);
        d.push_back(r.abstractSetSizes[i]);
    }
    out.workPerS = static_cast<double>(states) / out.wallS;
    out.digest = digestWords(d.data(), d.size());
    return out;
}

double
sweepSetup(const Options &)
{
    const auto t0 = Clock::now();
    const ModelFactory factory = openModelFactory(
        VerifFeatures::neoMESI(), CompositionMethod::Modified);
    for (std::size_t n = 1; n <= kSweepTo; ++n) {
        ModelShape shape;
        const TransitionSystem ts = factory(n, shape);
        const CompiledRules comp(ts);
        const RuleDepIndex idx(ts);
    }
    return secondsSince(t0);
}

void
sweepTraced(const Options &, TraceResult &tr)
{
    const auto t0 = Clock::now();
    const ParametricResult r = runSweep();
    const double sweepS = secondsSince(t0);
    RepOutcome gate;
    if (!checkSweep(gate, Options{}, r))
        tr.failWith(gate.detail);
    tr.spans.push_back({"verifyParametric", "", 0.0, sweepS, kSweepTo});

    TraceTotals tot;
    for (std::size_t i = 0; i < kSweepTo; ++i)
        traceInstance(kOpenPins[i], 1, t0, tr, tot);
    verifierMetrics(tot, tr.metrics);

    // The sweep re-runs the same explorations plus view projection;
    // what it spends beyond plain explore() and model building is the
    // view layer.
    const double viewsS = sweepS - tot.exploreS - tot.buildS;
    tr.metrics["parametric.explore_s"] = tot.exploreS;
    tr.metrics["parametric.views_s"] = viewsS;
    tr.metrics["parametric.views_frac"] = viewsS / sweepS;
    tr.metrics["parametric.views_final"] =
        r.abstractSetSizes.empty()
            ? 0.0
            : static_cast<double>(r.abstractSetSizes.back());
}

// ------------------------------------------------------------------ //
// Self-test                                                          //
// ------------------------------------------------------------------ //

int
selfTestVerifier()
{
    int failures = 0;
    auto expect = [&](bool cond, const char *what) {
        std::printf("  %-58s %s\n", what, cond ? "ok" : "FAILED");
        failures += cond ? 0 : 1;
    };
    const InstancePin &pin = kOpenPins[2];
    const TransitionSystem ts = buildOpen(pin.n);
    const ExploreResult er = explore(ts, neoverifyLimits(1), false, true);
    const Replica plain = replicaBfs<false>(ts, Clock::now());
    const Replica traced = replicaBfs<true>(ts, Clock::now());
    const std::size_t invs = ts.invariants().size();

    RepOutcome g;
    expect(checkInstance(g, Options{}, "explore()", countsOf(er), pin,
                         invs),
           "explore() on open N=3 matches its pins");
    expect(plain.counts.states == er.statesExplored &&
               plain.counts.transitions == er.transitionsFired &&
               plain.counts.invariantChecks == er.invariantChecks &&
               plain.counts.ruleFires == er.ruleFires,
           "replica reaches explore()'s exact fixpoint on open N=3");
    expect(traced.counts.ruleFires == plain.counts.ruleFires &&
               traced.counts.states == plain.counts.states,
           "traced replica counts equal the untraced replica's");
    expect(traced.levels.size() > 1 &&
               std::accumulate(traced.levels.begin(),
                               traced.levels.end(), std::uint64_t{0},
                               [](std::uint64_t a, const LevelSpan &l) {
                                   return a + l.states;
                               }) == traced.counts.states,
           "per-level spans cover every expanded state once");

    Options skewed;
    skewed.pinSkew = 1;
    RepOutcome bad;
    expect(!checkInstance(bad, skewed, "explore()", countsOf(er), pin,
                          invs) &&
               !bad.ok && bad.detail[0] != '\0',
           "a wrong pin fails the gate");
    return failures;
}

} // namespace e2e
