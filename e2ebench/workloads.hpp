/**
 * @file
 * The benchmark's three workloads. Each is a closed batch job: one run
 * to completion, no arrival process. A workload offers three entry
 * points: one untraced repetition (timed, gated on pinned outputs), one
 * set-up measurement, and one traced run that fills the per-layer
 * metrics from replicas built out of the layers' public calls.
 */

#ifndef NEO_E2EBENCH_WORKLOADS_HPP
#define NEO_E2EBENCH_WORKLOADS_HPP

#include <string>
#include <vector>

#include "common.hpp"

namespace e2e
{

/** An aggregated trace span: @p durS is the busy time summed over
 *  @p count operations inside the interval that starts at @p startS. */
struct Span
{
    std::string name;
    std::string parent;
    double startS = 0.0;
    double durS = 0.0;
    std::uint64_t count = 0;
};

/** What a traced run hands back. */
struct TraceResult
{
    Metrics metrics;
    std::vector<Span> spans;
    bool ok = true;
    std::string why;

    void
    failWith(const std::string &w)
    {
        if (ok)
            why = w;
        ok = false;
    }
};

struct Workload
{
    const char *name;
    /** The repetition runs on one thread, so its time depends on the
     *  speed of the CPU it runs on; see CpuRotation in main.cpp. */
    bool singleThreaded;
    RepOutcome (*rep)(const Options &);
    /** Host seconds of the workload's set-up work, measured once. */
    double (*setup)(const Options &);
    void (*traced)(const Options &, TraceResult &);
};

/** Every workload, in the order `--workload all` runs them. */
const std::vector<Workload> &workloads();

// verifier.cpp
RepOutcome verifyOpenN5Rep(const Options &opt);
double verifyOpenN5Setup(const Options &opt);
void verifyOpenN5Traced(const Options &opt, TraceResult &tr);
RepOutcome sweepRep(const Options &opt);
double sweepSetup(const Options &opt);
void sweepTraced(const Options &opt, TraceResult &tr);

// simulator.cpp
RepOutcome cannealRep(const Options &opt);
double cannealSetup(const Options &opt);
void cannealTraced(const Options &opt, TraceResult &tr);

/** In-process checks of the replicas and the gate (`--self-test`);
 *  @return the number of failed checks. */
int selfTestVerifier();
int selfTestSimulator();

} // namespace e2e

#endif // NEO_E2EBENCH_WORKLOADS_HPP
