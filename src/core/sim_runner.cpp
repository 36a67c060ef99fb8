#include "sim_runner.hpp"

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>

#include "core/core_model.hpp"
#include "sim/exit_codes.hpp"
#include "sim/watchdog.hpp"

namespace neo
{

RunResult
runOnce(const HierarchySpec &spec, const WorkloadParams &workload,
        const RunConfig &cfg)
{
    EventQueue eventq;
    System system(spec, eventq);

    RecoveryParams recovery = cfg.recovery;
    // Default reissue timeout: comfortably above the natural tail
    // latency of a Table-1 hierarchy, so a fault-injected run with no
    // drops sees zero spurious retries.
    if (cfg.faults.enabled() && recovery.timeout == 0)
        recovery.timeout = 20000;
    if (cfg.faults.enabled() || recovery.enabled())
        system.configureResilience(cfg.faults, recovery);

    // Debug aid: NEO_TRACE_ADDR=0x<addr> streams every controller
    // send/recv touching that block to stderr, tick-stamped. Useful
    // for replaying a fault campaign's postmortem one address at a
    // time.
    if (const char *ta = std::getenv("NEO_TRACE_ADDR")) {
        system.setTrace([&eventq, want = Addr{std::strtoull(
                                      ta, nullptr, 0)}](
                            const std::string &line) {
            if (traceLineHasAddr(line, want))
                std::cerr << eventq.curTick() << " " << line << "\n";
        });
    }

    const auto num_cores = static_cast<unsigned>(system.numL1s());
    WorkloadGen gen(workload, num_cores, spec.root.geom.blockSize,
                    cfg.seed);

    std::vector<std::unique_ptr<CoreModel>> cores;
    std::unique_ptr<ProgressWatchdog> watchdog;
    unsigned finished = 0;
    Tick last_finish = 0;
    for (unsigned c = 0; c < num_cores; ++c) {
        std::ostringstream name;
        name << "core_" << c;
        cores.push_back(std::make_unique<CoreModel>(
            name.str(), eventq, c, system.l1(c), gen, cfg.opsPerCore,
            [&finished, &last_finish, &eventq, &watchdog,
             num_cores](CoreId) {
                ++finished;
                last_finish = eventq.curTick();
                if (finished == num_cores && watchdog)
                    watchdog->stop();
            }));
    }

    auto collect_postmortem = [&]() {
        std::ostringstream os;
        os << "tick " << eventq.curTick() << ": " << eventq.pending()
           << " events pending, "
           << system.network().parkedCount().value()
           << " messages parked on dead links, " << finished << "/"
           << num_cores << " cores done\n";
        for (std::size_t i = 0; i < system.numDirs(); ++i)
            os << system.dir(i).debugDump();
        for (std::size_t i = 0; i < system.numL1s(); ++i)
            if (system.l1(i).busy() || !system.l1(i).quiescent())
                os << system.l1(i).debugDump();
        return os.str();
    };

    bool wd_fired = false;
    Tick wd_tick = 0;
    std::string postmortem;
    if (cfg.watchdogInterval > 0) {
        watchdog = std::make_unique<ProgressWatchdog>(
            "watchdog", eventq, cfg.watchdogInterval,
            [&](Tick t) {
                wd_fired = true;
                wd_tick = t;
                postmortem = collect_postmortem();
                eventq.requestStop();
            });
        watchdog->setStrikeLimit(cfg.watchdogStrikes);
        for (auto &core : cores) {
            watchdog->addPrimaryProbe(
                [c = core.get()] { return c->opsDone(); });
        }
        watchdog->addSecondaryProbe([net = &system.network()] {
            return net->deliveredCount().value();
        });
        watchdog->start();
    }

    for (auto &core : cores)
        core->start();

    eventq.run(maxTick, cfg.maxEvents);

    RunResult result;
    result.runtime = last_finish;
    result.deadlocked = finished != num_cores;
    result.watchdogFired = wd_fired;
    result.watchdogTick = wd_tick;
    result.postmortem = std::move(postmortem);
    if (result.deadlocked) {
        if (result.postmortem.empty())
            result.postmortem = collect_postmortem();
        neo_warn(spec.name, "/", workload.name, ": only ", finished,
                 " of ", num_cores, " cores finished (",
                 wd_fired ? "watchdog fired" : "quiescent deadlock",
                 ")\n", result.postmortem);
    }

    double latency_sum = 0.0;
    for (std::size_t i = 0; i < system.numL1s(); ++i) {
        const auto &l1 = system.l1(i);
        result.l1Hits += l1.hits().value();
        result.l1Misses += l1.misses().value();
        result.l1Upgrades += l1.upgrades().value();
        result.nonSiblingData += l1.nonSiblingData().value();
        result.retries += l1.retries().value();
        result.staleDrops += l1.staleDrops().value();
        result.dupDrops += l1.dupDrops().value();
        result.recoveredTxns += l1.recoveryLatency().count();
        latency_sum += l1.recoveryLatency().mean() *
                       static_cast<double>(l1.recoveryLatency().count());
    }
    if (result.recoveredTxns != 0) {
        result.recoveryLatencyMean =
            latency_sum / static_cast<double>(result.recoveredTxns);
    }
    const auto leaf_dirs = system.leafLevelDirs();
    for (std::size_t i = 0; i < system.numDirs(); ++i) {
        const auto &dir = system.dir(i);
        const bool is_leaf_level =
            std::find(leaf_dirs.begin(), leaf_dirs.end(), &dir) !=
            leaf_dirs.end();
        if (is_leaf_level && !dir.isRoot()) {
            result.l2Requests += dir.requestArrivals().value();
            result.l2Blocked += dir.blockedArrivals().value();
        } else {
            result.l3Requests += dir.requestArrivals().value();
            result.l3Blocked += dir.blockedArrivals().value();
        }
    }
    for (std::size_t i = 0; i < system.numDirs(); ++i) {
        const auto &dir = system.dir(i);
        result.redrives += dir.redrives().value();
        result.staleDrops += dir.staleDrops().value();
        result.dupDrops += dir.dupDrops().value();
    }
    if (const FaultInjector *fi = system.faultInjector()) {
        result.faultDrops = fi->drops();
        result.faultDups = fi->dups();
        result.faultDelays = fi->delays();
        result.faultHolds = fi->holds();
    }
    result.networkMessages = system.network().messageCount().value();

    // A hung run is reported as a deadlock, not a violation: the
    // system is necessarily non-quiescent and the permission sums of
    // in-flight transients are not meaningful to the checker.
    if (cfg.checkCoherence && !result.deadlocked) {
        if (!system.checker().quiescent()) {
            result.violations.push_back(
                "system not quiescent at end of run:\n" +
                collect_postmortem());
        }
        auto v = system.checker().check();
        result.violations.insert(result.violations.end(), v.begin(),
                                 v.end());
    }

    if (cfg.dumpStats) {
        StatGroup group(spec.name + "/" + workload.name);
        system.addStats(group);
        group.print(std::cout);
    }
    return result;
}

bool
traceLineHasAddr(std::string_view line, Addr addr)
{
    // "addr=0x", at most 16 hex digits, then the closing space.
    char needle[24] = "addr=0x";
    char *end =
        std::to_chars(needle + 7, needle + sizeof(needle) - 1, addr, 16)
            .ptr;
    *end++ = ' ';
    return line.find(std::string_view(
               needle, static_cast<std::size_t>(end - needle))) !=
           std::string_view::npos;
}

int
exitCodeFor(const RunResult &result)
{
    if (!result.violations.empty())
        return kExitViolation;
    if (result.watchdogFired)
        return kExitWatchdog;
    if (result.deadlocked)
        return kExitDeadlock;
    return kExitClean;
}

TrialSummary
runTrials(const HierarchySpec &spec, const WorkloadParams &workload,
          const RunConfig &base, unsigned trials)
{
    TrialSummary summary;
    for (unsigned t = 0; t < trials; ++t) {
        RunConfig cfg = base;
        cfg.seed = base.seed + t * 7919;
        const RunResult r = runOnce(spec, workload, cfg);
        summary.runtime.sample(static_cast<double>(r.runtime));
        summary.nonSiblingFraction.sample(r.nonSiblingFraction());
        summary.blockedL2.sample(r.blockedL2Fraction());
        summary.blockedL3.sample(r.blockedL3Fraction());
        const auto accesses = r.l1Hits + r.l1Misses;
        summary.missRate.sample(
            accesses ? static_cast<double>(r.l1Misses) /
                           static_cast<double>(accesses)
                     : 0.0);
        if (!r.violations.empty() || r.deadlocked)
            summary.allCoherent = false;
    }
    return summary;
}

} // namespace neo
