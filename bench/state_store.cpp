/**
 * @file
 * StateStore performance bench: exhaustive-exploration states/s,
 * real bytes/state, and probe-length histogram, new arena-interned
 * explorer vs the seed `unordered_map<VState, id>` implementation
 * (replicated verbatim below), on the bundled protocol models.
 *
 * bytes/state is measured, not estimated: each candidate runs in a
 * forked child and the parent reads the child's peak RSS from
 * wait4(); a do-nothing child (model built, no exploration) is
 * subtracted so the binary's own footprint and the COW-inherited
 * pages cancel out. Fork-based runs happen before any in-process
 * exploration so every child inherits the same small image.
 *
 * Also asserts fixpoint equality — states, transitions, per-rule
 * fires, status — between the legacy replica, the new sequential
 * explorer and the parallel explorer at 2/4/8 threads; a perf win
 * that changes the fixpoint would be a bug, not a result.
 *
 * Emits a JSON artifact (bench/eval_common.hpp JsonWriter) so CI
 * uploads leave a perf trajectory across PRs.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "eval_common.hpp"
#include "verif/explorer.hpp"
#include "verif/models/flat_closed.hpp"
#include "verif/models/german.hpp"
#include "verif/models/verif_features.hpp"
#include "verif/state_store.hpp"

using namespace neo;
using neo::verif::buildClosedModel;
using neo::verif::buildGermanModel;
using neo::verif::VerifFeatures;

namespace
{

struct Fixpoint
{
    VerifStatus status = VerifStatus::Verified;
    std::uint64_t states = 0;
    std::uint64_t transitions = 0;
    std::vector<std::uint64_t> ruleFires;
    double seconds = 0.0;
};

bool
sameFixpoint(const Fixpoint &a, const Fixpoint &b)
{
    return a.status == b.status && a.states == b.states &&
           a.transitions == b.transitions &&
           a.ruleFires == b.ruleFires;
}

/** The seed visited-set hash (byte-wise FNV-1a), kept verbatim so
 *  the legacy replica pays exactly what the old explorer paid. */
struct LegacyVStateHash
{
    std::size_t
    operator()(const VState &s) const
    {
        std::size_t h = 1469598103934665603ULL;
        for (std::uint8_t b : s) {
            h ^= b;
            h *= 1099511628211ULL;
        }
        return h;
    }
};

/**
 * The seed explorer's hot loop, structure for structure:
 * unordered_map visited set keyed by full VState copies, a deque of
 * (id, state) work items, a fresh successor VState per rule firing,
 * and a predecessor pair per state (keep_trace).
 */
Fixpoint
legacyExplore(const TransitionSystem &ts)
{
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    Fixpoint out;
    out.ruleFires.assign(ts.rules().size(), 0);

    const auto &canon = ts.canonicalizer();
    const auto &rules = ts.rules();

    std::unordered_map<VState, std::uint64_t, LegacyVStateHash>
        visited;
    std::vector<std::pair<std::uint64_t, std::uint32_t>> parent;
    std::deque<std::pair<std::uint64_t, VState>> work;

    VState init = ts.initialState();
    if (canon)
        canon(init);
    visited.emplace(init, 0);
    parent.emplace_back(0, 0);
    work.emplace_back(0, init);

    while (!work.empty()) {
        const std::uint64_t id = work.front().first;
        VState s = std::move(work.front().second);
        work.pop_front();
        for (std::size_t r = 0; r < rules.size(); ++r) {
            if (!rules[r].guard(s))
                continue;
            VState next = s;
            rules[r].effect(next);
            ++out.transitions;
            ++out.ruleFires[r];
            if (canon)
                canon(next);
            auto [it, inserted] =
                visited.emplace(next, visited.size());
            if (!inserted)
                continue;
            parent.emplace_back(id,
                                static_cast<std::uint32_t>(r));
            bool bad = false;
            for (const auto &inv : ts.invariants()) {
                if (!inv.check(next)) {
                    bad = true;
                    break;
                }
            }
            if (bad) {
                out.status = VerifStatus::InvariantViolated;
                out.states = visited.size();
                out.seconds =
                    std::chrono::duration<double>(Clock::now() - t0)
                        .count();
                return out;
            }
            work.emplace_back(it->second, std::move(next));
        }
    }
    out.states = visited.size();
    out.seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    return out;
}

Fixpoint
arenaExplore(const TransitionSystem &ts, unsigned threads)
{
    ExploreLimits lim;
    lim.maxSeconds = 600.0;
    lim.threads = threads;
    const ExploreResult r = explore(ts, lim);
    Fixpoint out;
    out.status = r.status;
    out.states = r.statesExplored;
    out.transitions = r.transitionsFired;
    out.ruleFires = r.ruleFires;
    out.seconds = r.seconds;
    return out;
}

struct BenchModel
{
    std::string name;
    TransitionSystem (*build)(std::size_t);
    std::size_t n;
};

TransitionSystem
buildNeoMesiClosed(std::size_t n)
{
    ModelShape shape;
    return buildClosedModel(n, VerifFeatures::neoMESI(), shape);
}

TransitionSystem
buildGerman(std::size_t n)
{
    ModelShape shape;
    return buildGermanModel(n, shape);
}

/** Peak RSS of a forked child running @p kind on the model:
 *  0 = build only (baseline), 1 = legacy replica, 2 = new explorer.
 *  @return (peak RSS bytes, states explored). */
std::pair<std::uint64_t, std::uint64_t>
childPeakRss(const BenchModel &m, int kind)
{
    int fds[2];
    if (pipe(fds) != 0) {
        std::perror("pipe");
        std::exit(1);
    }
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("fork");
        std::exit(1);
    }
    if (pid == 0) {
        close(fds[0]);
        const TransitionSystem ts = m.build(m.n);
        std::uint64_t states = 0;
        if (kind == 1)
            states = legacyExplore(ts).states;
        else if (kind == 2)
            states = arenaExplore(ts, 1).states;
        const ssize_t wr = write(fds[1], &states, sizeof(states));
        (void)wr;
        close(fds[1]);
        _exit(0);
    }
    close(fds[1]);
    std::uint64_t states = 0;
    if (read(fds[0], &states, sizeof(states)) !=
        static_cast<ssize_t>(sizeof(states))) {
        std::fprintf(stderr, "child for %s died\n", m.name.c_str());
        std::exit(1);
    }
    close(fds[0]);
    int status = 0;
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    if (wait4(pid, &status, 0, &ru) != pid ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        std::fprintf(stderr, "child for %s failed\n", m.name.c_str());
        std::exit(1);
    }
    // Linux reports ru_maxrss in kilobytes.
    return {static_cast<std::uint64_t>(ru.ru_maxrss) * 1024, states};
}

/** Re-run the new path's interning workload in-process to collect
 *  the probe-length histogram (explore() owns its store privately). */
std::array<std::uint64_t, StateStore::kProbeBuckets>
probeHistogram(const TransitionSystem &ts)
{
    const auto &canon = ts.canonicalizer();
    const auto &rules = ts.rules();
    StateStore store(ts.numVars());
    std::vector<std::uint32_t> work;
    std::size_t head = 0;
    VState cur;
    VState next;
    VState init = ts.initialState();
    if (canon)
        canon(init);
    store.intern(init);
    work.push_back(0);
    while (head < work.size()) {
        store.copyTo(work[head++], cur);
        for (std::size_t r = 0; r < rules.size(); ++r) {
            if (!rules[r].guard(cur))
                continue;
            next = cur;
            rules[r].effect(next);
            if (canon)
                canon(next);
            const auto [nid, fresh] = store.intern(next);
            if (fresh)
                work.push_back(nid);
        }
    }
    return store.probeHistogram();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string outPath = "state_store_bench.json";
    std::size_t n = 6;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc)
            outPath = argv[++i];
        else if (arg == "--n" && i + 1 < argc)
            n = static_cast<std::size_t>(std::atoi(argv[++i]));
    }

    const BenchModel models[] = {
        {"closed-neomesi-n" + std::to_string(n), &buildNeoMesiClosed,
         n},
        {"german-n" + std::to_string(n), &buildGerman, n},
    };

    std::printf("==== state store: arena-interned explorer vs seed "
                "unordered_map ====\n\n");

    bench::JsonWriter json;
    json.beginObject();
    json.field("bench", "state_store");
    json.beginArray("models");

    // All RSS children first, before ANY in-process exploration: a
    // child's ru_maxrss starts from the parent's resident image, so
    // forking after a big in-process run would bury the measurement
    // under inherited pages. Taken up front, every child inherits the
    // same small image and the baseline subtraction is honest.
    struct RssTriple
    {
        std::uint64_t base, legacy, arena, statesL, statesA;
    };
    std::vector<RssTriple> rss;
    for (const BenchModel &m : models) {
        RssTriple t{};
        t.base = childPeakRss(m, 0).first;
        std::tie(t.legacy, t.statesL) = childPeakRss(m, 1);
        std::tie(t.arena, t.statesA) = childPeakRss(m, 2);
        rss.push_back(t);
    }

    bool allOk = true;
    std::size_t mi = 0;
    for (const BenchModel &m : models) {
        const RssTriple &rs = rss[mi++];
        const std::uint64_t rssBase = rs.base;
        const std::uint64_t rssLegacy = rs.legacy;
        const std::uint64_t rssArena = rs.arena;
        const std::uint64_t statesL = rs.statesL;
        const std::uint64_t statesA = rs.statesA;

        const TransitionSystem ts = m.build(m.n);
        const Fixpoint legacy = legacyExplore(ts);
        const Fixpoint arena = arenaExplore(ts, 1);
        bool equal = sameFixpoint(legacy, arena) &&
                     statesL == legacy.states &&
                     statesA == legacy.states;
        bool parallelEqual = true;
        for (unsigned threads : {2u, 4u, 8u}) {
            const Fixpoint p = arenaExplore(ts, threads);
            parallelEqual = parallelEqual && sameFixpoint(legacy, p);
        }

        const double legacyRate = legacy.states / legacy.seconds;
        const double arenaRate = arena.states / arena.seconds;
        const double speedup = arenaRate / legacyRate;
        const double legacyBytes =
            static_cast<double>(rssLegacy - rssBase) / legacy.states;
        const double arenaBytes =
            static_cast<double>(rssArena - rssBase) / arena.states;
        const double bytesRatio = legacyBytes / arenaBytes;

        std::printf("%-20s %9llu states, %10llu transitions\n",
                    m.name.c_str(),
                    static_cast<unsigned long long>(legacy.states),
                    static_cast<unsigned long long>(
                        legacy.transitions));
        std::printf("  legacy: %8.0f states/s  %7.1f bytes/state "
                    "(%.2f s)\n",
                    legacyRate, legacyBytes, legacy.seconds);
        std::printf("  arena:  %8.0f states/s  %7.1f bytes/state "
                    "(%.2f s)\n",
                    arenaRate, arenaBytes, arena.seconds);
        std::printf("  speedup: %.2fx   bytes/state ratio: %.2fx   "
                    "fixpoint equal: %s   parallel 2/4/8 equal: %s\n\n",
                    speedup, bytesRatio, equal ? "yes" : "NO",
                    parallelEqual ? "yes" : "NO");
        allOk = allOk && equal && parallelEqual;

        const auto hist = probeHistogram(ts);
        std::printf("  insert probe distance: direct %llu",
                    static_cast<unsigned long long>(hist[0]));
        for (std::size_t b = 1; b < hist.size(); ++b) {
            if (hist[b] != 0)
                std::printf(", <2^%zu: %llu", b,
                            static_cast<unsigned long long>(hist[b]));
        }
        std::printf("\n\n");

        json.beginObject();
        json.field("name", m.name);
        json.field("states", legacy.states);
        json.field("transitions", legacy.transitions);
        json.beginObject("legacy");
        json.field("seconds", legacy.seconds);
        json.field("statesPerSec", legacyRate);
        json.field("rssBytes", rssLegacy - rssBase);
        json.field("bytesPerState", legacyBytes);
        json.endObject();
        json.beginObject("arena");
        json.field("seconds", arena.seconds);
        json.field("statesPerSec", arenaRate);
        json.field("rssBytes", rssArena - rssBase);
        json.field("bytesPerState", arenaBytes);
        json.endObject();
        json.field("speedup", speedup);
        json.field("bytesPerStateRatio", bytesRatio);
        json.field("fixpointEqual", equal);
        json.field("parallelEqual", parallelEqual);
        json.beginArray("probeHistogram");
        for (const std::uint64_t c : hist)
            json.element(c);
        json.endArray();

        json.endObject();
    }
    json.endArray();
    json.field("ok", allOk);
    json.endObject();

    if (std::FILE *f = std::fopen(outPath.c_str(), "w")) {
        std::fputs(json.str().c_str(), f);
        std::fputc('\n', f);
        std::fclose(f);
        std::printf("JSON written to %s\n", outPath.c_str());
    } else {
        std::perror(outPath.c_str());
        return 1;
    }
    return allOk ? 0 : 1;
}
