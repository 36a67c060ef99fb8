/**
 * @file
 * Simulator workload: 8perL2/canneal under NeoMESI (shared-heavy, the
 * network and directories carry the host work).
 *
 * The traced run rebuilds runOnce() from its public parts (System,
 * WorkloadGen, CoreModel, EventQueue::run, CoherenceChecker) so it can
 * time system construction, the event loop and the checker apart, and
 * it must reproduce runOnce()'s ticks, messages, hits and misses. The
 * network/controller split inside EventQueue::run needs spans inside
 * the simulator; until then it is reported as counts and host ns per
 * event and per message.
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#include "core/core_model.hpp"
#include "core/sim_runner.hpp"
#include "workloads.hpp"

namespace e2e
{

using namespace neo;

namespace
{

/** The ops per core of the Figures 8-10 runs (bench/eval_common.hpp). */
constexpr std::uint64_t kOpsPerCore = 4'000;

// 8perL2 / canneal / NeoMESI, default seed 1.
constexpr std::uint64_t kCannealSeed = 1;
constexpr std::uint64_t kCannealTicks = 8'473'894;
constexpr std::uint64_t kCannealMessages = 812'665;

std::uint64_t
seedOf(const Options &opt, std::uint64_t dflt)
{
    return opt.seedGiven ? opt.seed : dflt;
}

RunConfig
runConfig(std::uint64_t seed)
{
    RunConfig cfg;
    cfg.opsPerCore = kOpsPerCore;
    cfg.seed = seed;
    return cfg;
}

/** Coherence gate for one run: every core finished, no violation. */
bool
checkCoherent(RepOutcome &out, const char *what, const RunResult &r)
{
    if (r.deadlocked) {
        fail(out, std::string(what) + ": not every core finished");
        return false;
    }
    if (!r.violations.empty()) {
        fail(out, std::string(what) + ": " + r.violations.front());
        return false;
    }
    return true;
}

/** Outputs of one simulation, from runOnce() or the replica. */
struct SimCounts
{
    Tick runtime = 0;
    std::uint64_t messages = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

SimCounts
countsOf(const RunResult &r)
{
    return {r.runtime, r.networkMessages, r.l1Hits, r.l1Misses};
}

/** The replica's view of one simulation: counts plus layer times. */
struct ReplicaRun
{
    RunResult result;
    unsigned cores = 0;
    std::uint64_t events = 0;
    double buildS = 0.0, runS = 0.0, checkerS = 0.0, wallS = 0.0;
    double hopSum = 0.0, latencySum = 0.0;
    std::uint64_t dirRequests = 0, dirBlocked = 0;
};

/** runOnce() for a fault-free run, rebuilt from public calls and timed
 *  per layer. */
ReplicaRun
replicaRun(const HierarchySpec &spec, const WorkloadParams &wl,
           const RunConfig &cfg)
{
    ReplicaRun rr;
    const auto w0 = Clock::now();
    EventQueue eventq;
    auto t = Clock::now();
    System system(spec, eventq);
    rr.buildS = secondsSince(t);

    const auto numCores = static_cast<unsigned>(system.numL1s());
    rr.cores = numCores;
    WorkloadGen gen(wl, numCores, spec.root.geom.blockSize, cfg.seed);
    unsigned finished = 0;
    Tick lastFinish = 0;
    std::vector<std::unique_ptr<CoreModel>> cores;
    for (unsigned c = 0; c < numCores; ++c) {
        cores.push_back(std::make_unique<CoreModel>(
            "core_" + std::to_string(c), eventq, c, system.l1(c), gen,
            cfg.opsPerCore, [&](CoreId) {
                ++finished;
                lastFinish = eventq.curTick();
            }));
    }
    for (auto &core : cores)
        core->start();

    t = Clock::now();
    rr.events = eventq.run(maxTick, cfg.maxEvents);
    rr.runS = secondsSince(t);

    RunResult &r = rr.result;
    r.runtime = lastFinish;
    r.deadlocked = finished != numCores;
    for (std::size_t i = 0; i < system.numL1s(); ++i) {
        const L1Controller &l1 = system.l1(i);
        r.l1Hits += l1.hits().value();
        r.l1Misses += l1.misses().value();
        r.l1Upgrades += l1.upgrades().value();
    }
    for (std::size_t i = 0; i < system.numDirs(); ++i) {
        rr.dirRequests += system.dir(i).requestArrivals().value();
        rr.dirBlocked += system.dir(i).blockedArrivals().value();
    }
    const TreeNetwork &net = system.network();
    r.networkMessages = net.messageCount().value();
    rr.hopSum = net.hopStat().total();
    rr.latencySum = net.latencyStat().total();

    t = Clock::now();
    if (!r.deadlocked) {
        if (!system.checker().quiescent())
            r.violations.push_back("system not quiescent at end of run");
        const auto v = system.checker().check();
        r.violations.insert(r.violations.end(), v.begin(), v.end());
    }
    rr.checkerS = secondsSince(t);
    rr.wallS = secondsSince(w0);
    return rr;
}

/** The op stream the cores consume, generated standalone. */
double
timeWorkloadGen(const HierarchySpec &spec, const WorkloadParams &wl,
                std::uint64_t seed, unsigned numCores)
{
    const auto t0 = Clock::now();
    WorkloadGen gen(wl, numCores, spec.root.geom.blockSize, seed);
    std::uint64_t sink = 0;
    for (unsigned c = 0; c < numCores; ++c)
        for (std::uint64_t i = 0; i < kOpsPerCore; ++i)
            sink += gen.next(c).addr;
    const double s = secondsSince(t0);
    // Keep the stream observable so it cannot be optimized away.
    if (sink == 1)
        std::fprintf(stderr, "(unlikely op-stream checksum)\n");
    return s;
}

/** One traced simulation: runOnce() twice as the untraced reference and
 *  the replica twice, all four agreeing exactly. @return the faster
 *  replica run; @p refS receives the faster runOnce() time. */
ReplicaRun
traceSim(const char *tag, const HierarchySpec &spec,
         const WorkloadParams &wl, std::uint64_t seed,
         Clock::time_point t0, TraceResult &tr, double &refS)
{
    const RunConfig cfg = runConfig(seed);
    RepOutcome gate;
    auto reference = [&](SimCounts &counts) {
        const auto t = Clock::now();
        const RunResult r = runOnce(spec, wl, cfg);
        const double s = secondsSince(t);
        if (!checkCoherent(gate, tag, r))
            tr.failWith(gate.detail);
        counts = countsOf(r);
        return s;
    };
    // runOnce(), replica, replica, runOnce(): the faster run of each
    // side counts, so neither side alone pays for a cold heap.
    SimCounts ref, ref2;
    const double refS1 = reference(ref);
    double start = secondsSince(t0);
    ReplicaRun rr = replicaRun(spec, wl, cfg);
    const double start2 = secondsSince(t0);
    ReplicaRun rr2 = replicaRun(spec, wl, cfg);
    refS = std::min(refS1, reference(ref2));
    for (const RunResult *r : {&rr.result, &rr2.result}) {
        if (!checkCoherent(gate, tag, *r))
            tr.failWith(std::string("replica ") + gate.detail);
    }
    for (const SimCounts &b :
         {ref2, countsOf(rr.result), countsOf(rr2.result)}) {
        if (ref.runtime != b.runtime || ref.messages != b.messages ||
            ref.hits != b.hits || ref.misses != b.misses) {
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "%s: replica differs from runOnce(): ticks "
                          "%llu/%llu messages %llu/%llu",
                          tag, static_cast<unsigned long long>(b.runtime),
                          static_cast<unsigned long long>(ref.runtime),
                          static_cast<unsigned long long>(b.messages),
                          static_cast<unsigned long long>(ref.messages));
            tr.failWith(buf);
        }
    }
    if (rr2.wallS < rr.wallS) {
        rr = std::move(rr2);
        start = start2;
    }

    const std::string run = tag;
    tr.spans.push_back({run, "", start, rr.wallS, 1});
    tr.spans.push_back({run + "/system_build", run, start, rr.buildS, 1});
    tr.spans.push_back({run + "/event_run", run, start + rr.buildS,
                        rr.runS, rr.events});
    tr.spans.push_back({run + "/checker", run,
                        start + rr.wallS - rr.checkerS, rr.checkerS, 1});
    return rr;
}

/** Layer metrics of a replica run against runOnce()'s @p refS. */
void
simMetrics(const ReplicaRun &rr, double refS, double genS, Metrics &m)
{
    const RunResult &r = rr.result;
    const double msgs = static_cast<double>(r.networkMessages);
    const double accesses = static_cast<double>(r.l1Hits + r.l1Misses);
    m["core.system_build_s"] = rr.buildS;
    m["sim.run_s"] = rr.runS;
    m["sim.events"] = static_cast<double>(rr.events);
    m["sim.ns_per_event"] = rr.runS * 1e9 / static_cast<double>(rr.events);
    m["sim.runtime_ticks"] = static_cast<double>(r.runtime);
    m["network.messages"] = msgs;
    m["network.ns_per_message"] = rr.runS * 1e9 / msgs;
    m["network.mean_hops"] = rr.hopSum / msgs;
    m["network.mean_latency_ticks"] = rr.latencySum / msgs;
    m["protocol.l1_miss_rate"] = static_cast<double>(r.l1Misses) / accesses;
    m["protocol.l1_upgrades"] = static_cast<double>(r.l1Upgrades);
    m["protocol.dir_blocked_frac"] =
        static_cast<double>(rr.dirBlocked) /
        static_cast<double>(rr.dirRequests);
    m["protocol.checker_s"] = rr.checkerS;
    m["workload.gen_s"] = genS;
    m["trace.overhead_frac"] = rr.wallS / refS - 1.0;
}

} // namespace

// ------------------------------------------------------------------ //
// sim-8perL2-canneal                                                 //
// ------------------------------------------------------------------ //

RepOutcome
cannealRep(const Options &opt)
{
    RepOutcome out;
    const std::uint64_t seed = seedOf(opt, kCannealSeed);
    const HierarchySpec spec =
        organizationByName("8perL2", ProtocolVariant::NeoMESI);
    const WorkloadParams wl = parsecProfile("canneal");
    const auto t0 = Clock::now();
    const RunResult r = runOnce(spec, wl, runConfig(seed));
    out.ok = checkCoherent(out, "canneal", r);
    if (seed == kCannealSeed) {
        out.ok = checkPin(out, opt, "canneal ticks", r.runtime,
                          kCannealTicks) &&
                 out.ok;
        out.ok = checkPin(out, opt, "canneal messages", r.networkMessages,
                          kCannealMessages) &&
                 out.ok;
    }
    out.wallS = secondsSince(t0);
    const double ops = 32.0 * static_cast<double>(kOpsPerCore);
    out.workPerS = ops / out.wallS;
    out.simTicks = static_cast<double>(r.runtime);
    const std::uint64_t d[] = {r.runtime, r.networkMessages, r.l1Hits,
                               r.l1Misses};
    out.digest = digestWords(d, 4);
    return out;
}

double
cannealSetup(const Options &)
{
    const HierarchySpec spec =
        organizationByName("8perL2", ProtocolVariant::NeoMESI);
    const auto t0 = Clock::now();
    EventQueue eventq;
    const System system(spec, eventq);
    return secondsSince(t0);
}

void
cannealTraced(const Options &opt, TraceResult &tr)
{
    const auto t0 = Clock::now();
    const std::uint64_t seed = seedOf(opt, kCannealSeed);
    const HierarchySpec spec =
        organizationByName("8perL2", ProtocolVariant::NeoMESI);
    const WorkloadParams wl = parsecProfile("canneal");
    double refS = 0.0;
    const ReplicaRun rr = traceSim("canneal", spec, wl, seed, t0, tr, refS);
    if (seed == kCannealSeed &&
        (rr.result.runtime != kCannealTicks ||
         rr.result.networkMessages != kCannealMessages))
        tr.failWith("canneal replica: ticks or messages differ from pins");
    simMetrics(rr, refS, timeWorkloadGen(spec, wl, seed, rr.cores),
               tr.metrics);
}

// ------------------------------------------------------------------ //
// Self-test                                                          //
// ------------------------------------------------------------------ //

int
selfTestSimulator()
{
    int failures = 0;
    auto expect = [&](bool cond, const char *what) {
        std::printf("  %-58s %s\n", what, cond ? "ok" : "FAILED");
        failures += cond ? 0 : 1;
    };
    for (const char *org : {"8perL2", "2perL2"}) {
        for (const ProtocolVariant v :
             {ProtocolVariant::NeoMESI, ProtocolVariant::NSMESI,
              ProtocolVariant::NSMOESI}) {
            const HierarchySpec spec = organizationByName(org, v);
            const WorkloadParams wl = parsecProfile("canneal");
            RunConfig cfg = runConfig(3);
            cfg.opsPerCore = 500;
            const RunResult ref = runOnce(spec, wl, cfg);
            const ReplicaRun rr = replicaRun(spec, wl, cfg);
            const SimCounts a = countsOf(ref), b = countsOf(rr.result);
            char what[96];
            std::snprintf(what, sizeof(what),
                          "replica matches runOnce() on %s %s, 500 ops",
                          org, protocolName(v));
            expect(a.runtime == b.runtime && a.messages == b.messages &&
                       a.hits == b.hits && a.misses == b.misses &&
                       !rr.result.deadlocked &&
                       rr.result.violations.empty() &&
                       rr.events > 0,
                   what);
        }
    }
    Options skewed;
    skewed.pinSkew = 1;
    RepOutcome bad;
    expect(!checkPin(bad, skewed, "canneal ticks", kCannealTicks,
                     kCannealTicks) &&
               bad.detail[0] != '\0',
           "a wrong tick pin fails the gate");
    return failures;
}

} // namespace e2e
