/**
 * @file
 * Experiment driver: one full simulation = hierarchy + protocol +
 * workload + seed. Multi-trial runs reproduce the paper's methodology
 * of averaging perturbed runs and reporting +/- one standard deviation
 * (Alameldeen & Wood, HPCA 2003).
 */

#ifndef NEO_CORE_SIM_RUNNER_HPP
#define NEO_CORE_SIM_RUNNER_HPP

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/system.hpp"
#include "sim/stats.hpp"
#include "workload/workload.hpp"

namespace neo
{

/** Aggregate outcome of one simulation. */
struct RunResult
{
    Tick runtime = 0; ///< tick at which the last core finished
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l1Upgrades = 0;
    std::uint64_t nonSiblingData = 0;
    std::uint64_t l2Requests = 0;
    std::uint64_t l2Blocked = 0;
    std::uint64_t l3Requests = 0;
    std::uint64_t l3Blocked = 0;
    std::uint64_t networkMessages = 0;
    bool deadlocked = false;
    std::vector<std::string> violations; ///< coherence checker output

    // Fault-campaign outcome (all zero on fault-free runs).
    bool watchdogFired = false;
    Tick watchdogTick = 0;
    /** Controller dumps + queue summary captured at the hang. */
    std::string postmortem;
    std::uint64_t retries = 0;      ///< L1 timeout reissues
    std::uint64_t staleDrops = 0;   ///< stale messages absorbed
    std::uint64_t dupDrops = 0;     ///< transport duplicates filtered
    std::uint64_t redrives = 0;     ///< directory sweep re-drives
    std::uint64_t faultDrops = 0;
    std::uint64_t faultDups = 0;
    std::uint64_t faultDelays = 0;
    std::uint64_t faultHolds = 0;
    std::uint64_t recoveredTxns = 0; ///< misses needing >= 1 reissue
    double recoveryLatencyMean = 0.0;

    double
    nonSiblingFraction() const
    {
        const auto total = l1Misses + l1Upgrades;
        return total ? static_cast<double>(nonSiblingData) /
                           static_cast<double>(total)
                     : 0.0;
    }
    double
    blockedL2Fraction() const
    {
        return l2Requests ? static_cast<double>(l2Blocked) /
                                static_cast<double>(l2Requests)
                          : 0.0;
    }
    double
    blockedL3Fraction() const
    {
        return l3Requests ? static_cast<double>(l3Blocked) /
                                static_cast<double>(l3Requests)
                          : 0.0;
    }
};

struct RunConfig
{
    std::uint64_t opsPerCore = 20000;
    std::uint64_t seed = 1;
    /** Run the coherence checker at the end of the simulation. */
    bool checkCoherence = true;
    /** Dump every controller/network statistic to stdout at the end. */
    bool dumpStats = false;
    /** Hard event cap as a runaway/deadlock backstop. */
    std::uint64_t maxEvents = 2'000'000'000ULL;

    /** Transport faults to inject (default: none). */
    FaultParams faults;
    /** Protocol recovery knobs. When faults are enabled and
     *  recovery.timeout is 0, runOnce defaults it to 20000 ticks. */
    RecoveryParams recovery;
    /** Watchdog sampling window in ticks; 0 disables the watchdog. */
    Tick watchdogInterval = 0;
    /** Primary-silent windows tolerated while the network still moves. */
    unsigned watchdogStrikes = 4;
};

/** Execute one simulation to completion. */
RunResult runOnce(const HierarchySpec &spec,
                  const WorkloadParams &workload, const RunConfig &cfg);

/**
 * The NEO_TRACE_ADDR filter: does controller trace @p line carry block
 * @p addr? A message's describe() prints it as "addr=0x<hex> ", so a
 * block whose address merely starts with the same digits (0x40fcc0
 * for 0x40) does not match.
 */
bool traceLineHasAddr(std::string_view line, Addr addr);

/**
 * Process exit code for one run: 1 = coherence violation,
 * 4 = watchdog fired, 3 = quiescent deadlock, 0 = clean.
 * Violations dominate (a violated run that also hung is reported as
 * a violation).
 */
int exitCodeFor(const RunResult &result);

/** Multi-trial summary for one (protocol, organization, benchmark). */
struct TrialSummary
{
    SampleStat runtime{"runtime"};
    SampleStat nonSiblingFraction{"ns_fraction"};
    SampleStat blockedL2{"blocked_l2"};
    SampleStat blockedL3{"blocked_l3"};
    SampleStat missRate{"miss_rate"};
    bool allCoherent = true;
};

TrialSummary runTrials(const HierarchySpec &spec,
                       const WorkloadParams &workload,
                       const RunConfig &base, unsigned trials);

} // namespace neo

#endif // NEO_CORE_SIM_RUNNER_HPP
