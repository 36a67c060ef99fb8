/**
 * @file
 * Shared pieces of the end-to-end benchmark: the per-repetition record
 * a forked child hands back, the metric table a workload fills, the
 * pinned-value comparison every gate goes through, and a host clock.
 */

#ifndef NEO_E2EBENCH_COMMON_HPP
#define NEO_E2EBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace e2e
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Command-line options every workload sees. */
struct Options
{
    std::uint64_t seed = 0;
    /** The caller passed --seed; otherwise the workload's default. */
    bool seedGiven = false;
    /** Added to every pinned count before comparing: a nonzero skew
     *  makes every pinned gate fail, which the self-test uses to show
     *  that a wrong pin flips the exit status. */
    std::uint64_t pinSkew = 0;
};

/**
 * One timed repetition of a workload, measured in a forked child and
 * returned through a pipe, so it must stay trivially copyable.
 */
struct RepOutcome
{
    /** Host seconds from the first call into the workload to its
     *  checked result. */
    double wallS = 0.0;
    /** Verified states or simulated memory ops per host second. */
    double workPerS = 0.0;
    /** Simulated runtime; 0 on the verifier workloads. */
    double simTicks = 0.0;
    /** Digest of every deterministic output: repetitions of one run
     *  must agree on it whatever the seed. */
    std::uint64_t digest = 0;
    bool ok = false;
    char detail[480] = {};
};

/** Record a gate failure into @p out (first one wins). */
void fail(RepOutcome &out, const std::string &why);

/** Compare a count against its pin (plus the option's skew); on a
 *  mismatch record it and return false. */
bool checkPin(RepOutcome &out, const Options &opt, const char *what,
              std::uint64_t got, std::uint64_t pinned);

/** FNV-1a over 64-bit words, for rule-fire digests and rep digests. */
std::uint64_t digestWords(const std::uint64_t *w, std::size_t n,
                          std::uint64_t h = 0xcbf29ce484222325ULL);

/** A metric table: name -> value. */
using Metrics = std::map<std::string, double>;

} // namespace e2e

#endif // NEO_E2EBENCH_COMMON_HPP
