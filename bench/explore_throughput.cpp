/**
 * @file
 * Successor-generation throughput bench: states/s, bytes/state and
 * guard-evals/state on the german model at N in {4,5,6}, sequential
 * and at 4 worker threads. This is the perf-trajectory artifact for
 * the candidate scan (RuleDepIndex): CI uploads the JSON so every PR
 * leaves a comparable number behind.
 *
 * Every model also asserts that the 4-thread fixpoint — status,
 * states, transitions, per-rule fires, invariantChecks — is
 * bit-identical to the sequential one; a speedup that changes the
 * fixpoint is a bug, not a result. The process exits non-zero on any
 * mismatch so the CI job fails loudly.
 *
 * Timing discipline: the CI container is a single noisy CPU, so each
 * configuration runs `--reps` times (default 3) and the MINIMUM wall
 * time is reported — the minimum estimates the noise-free cost,
 * while counters (which are deterministic sequentially) come from
 * the first rep.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "eval_common.hpp"
#include "verif/explorer.hpp"
#include "verif/models/german.hpp"

using namespace neo;
using neo::verif::buildGermanModel;

namespace
{

struct Row
{
    std::uint64_t states = 0;
    std::uint64_t transitions = 0;
    std::uint64_t invariantChecks = 0;
    std::vector<std::uint64_t> ruleFires;
    VerifStatus status = VerifStatus::Verified;
    std::uint64_t guardEvals = 0;
    std::uint64_t guardEvalsSkipped = 0;
    std::uint64_t canonIdentityHits = 0;
    std::uint64_t memoryBytes = 0;
    double bestSeconds = 0.0;
};

Row
runExplore(const TransitionSystem &ts, unsigned threads, int reps)
{
    Row row;
    for (int i = 0; i < reps; ++i) {
        ExploreLimits lim;
        lim.maxSeconds = 600.0;
        lim.threads = threads;
        const ExploreResult r =
            explore(ts, lim, false, /*keep_trace=*/false);
        if (i == 0) {
            row.states = r.statesExplored;
            row.transitions = r.transitionsFired;
            row.invariantChecks = r.invariantChecks;
            row.ruleFires = r.ruleFires;
            row.status = r.status;
            row.guardEvals = r.guardEvals;
            row.guardEvalsSkipped = r.guardEvalsSkipped;
            row.canonIdentityHits = r.canonIdentityHits;
            row.memoryBytes = r.memoryBytes;
            row.bestSeconds = r.seconds;
        } else {
            row.bestSeconds = std::min(row.bestSeconds, r.seconds);
        }
    }
    return row;
}

/** Fixpoint comparison: everything that must not depend on the
 *  thread count. memoryBytes is excluded (identical stores, but the
 *  parallel explorer's accounting has allocator-order jitter). */
bool
sameFixpoint(const Row &a, const Row &b)
{
    return a.status == b.status && a.states == b.states &&
           a.transitions == b.transitions &&
           a.invariantChecks == b.invariantChecks &&
           a.ruleFires == b.ruleFires;
}

void
emitCounters(bench::JsonWriter &json, const Row &row)
{
    const double st = row.states ? double(row.states) : 1.0;
    json.field("seconds", row.bestSeconds);
    json.field("statesPerSec",
               row.bestSeconds > 0.0 ? double(row.states) /
                                           row.bestSeconds
                                     : 0.0);
    json.field("bytesPerState", double(row.memoryBytes) / st);
    json.field("guardEvalsPerState", double(row.guardEvals) / st);
    json.field("states", row.states);
    json.field("transitions", row.transitions);
    json.field("guardEvals", row.guardEvals);
    json.field("guardEvalsSkipped", row.guardEvalsSkipped);
    json.field("canonIdentityHits", row.canonIdentityHits);
    json.field("memoryBytes", row.memoryBytes);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string outPath = "BENCH_explore.json";
    int reps = 3;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc)
            outPath = argv[++i];
        else if (arg == "--reps" && i + 1 < argc)
            reps = std::max(1, std::atoi(argv[++i]));
    }

    std::printf("==== explore throughput: candidate-scan successor "
                "generation ====\n\n");

    bench::JsonWriter json;
    json.beginObject();
    json.field("bench", "explore_throughput");
    json.field("reps", std::uint64_t(reps));
    json.beginArray("rows");

    bool allOk = true;
    const std::size_t sizes[] = {4, 5, 6};
    const unsigned threadAxis[] = {1, 4};
    for (std::size_t n : sizes) {
        ModelShape shape;
        const TransitionSystem ts = buildGermanModel(n, shape);
        Row seq;
        for (unsigned threads : threadAxis) {
            const Row row = runExplore(ts, threads, reps);
            if (threads == 1)
                seq = row;
            const bool equal = sameFixpoint(row, seq);
            allOk = allOk && equal;
            std::printf(
                "german n=%zu threads=%u: %llu states | %.3fs "
                "(%.0f st/s, %.2f gevals/st) | fixpoint equal to "
                "sequential: %s\n",
                n, threads,
                static_cast<unsigned long long>(row.states),
                row.bestSeconds,
                row.bestSeconds > 0.0
                    ? double(row.states) / row.bestSeconds
                    : 0.0,
                double(row.guardEvals) / double(row.states),
                equal ? "yes" : "NO");

            json.beginObject();
            json.field("model", "german-n" + std::to_string(n));
            json.field("threads", std::uint64_t(threads));
            json.field("fixpointEqual", equal);
            emitCounters(json, row);
            json.endObject();
        }
    }

    json.endArray();
    json.field("ok", allOk);
    json.endObject();

    if (std::FILE *f = std::fopen(outPath.c_str(), "w")) {
        std::fputs(json.str().c_str(), f);
        std::fputc('\n', f);
        std::fclose(f);
        std::printf("\nJSON written to %s\n", outPath.c_str());
    } else {
        std::perror(outPath.c_str());
        return 1;
    }
    return allOk ? 0 : 1;
}
