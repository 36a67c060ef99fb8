#include "random_walk.hpp"

#include <atomic>
#include <chrono>
#include <limits>
#include <mutex>
#include <thread>

#include "sim/random.hpp"
#include "verif/checkpoint.hpp"

namespace neo
{

namespace
{

/** Golden-ratio stride between per-walk seeds; Random's SplitMix64
 *  seeding decorrelates even adjacent seeds, the stride just keeps the
 *  raw inputs distinct for any K. */
constexpr std::uint64_t kWalkSeedStride = 0x9e3779b97f4a7c15ULL;

/** One walk's outcome, kept only when it violates. */
struct WalkViolation
{
    std::uint64_t walk = 0;
    std::size_t invariant = 0;
    std::vector<std::uint32_t> trace;
    VState state;
};

} // namespace

ReplayResult
replayTrace(const TransitionSystem &ts,
            const std::vector<std::uint32_t> &trace)
{
    ReplayResult r;
    const auto &rules = ts.rules();
    const auto &canon = ts.canonicalizer();

    VState s = ts.initialState();
    if (canon)
        canon(s);
    for (const std::uint32_t idx : trace) {
        if (idx >= rules.size() || !rules[idx].guard(s)) {
            r.finalState = std::move(s);
            return r; // invalid: a step could not fire
        }
        rules[idx].effect(s);
        if (canon)
            canon(s);
        ++r.stepsApplied;
    }
    r.valid = true;
    for (const auto &inv : ts.invariants()) {
        if (!inv.check(s)) {
            r.violatedInvariant = inv.name;
            break;
        }
    }
    r.finalState = std::move(s);
    return r;
}

WalkResult
RandomWalkExplorer::run() const
{
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();

    WalkResult result;
    const auto &rules = ts_.rules();
    const auto &invs = ts_.invariants();
    // Flat guard/effect tables and the candidate table for the walk
    // loop (replayTrace stays on rules[] — it is not hot). Built
    // before the workers spawn; immutable, so shared read-only across
    // them.
    const CompiledRules comp(ts_);
    const RuleDepIndex index(ts_);
    const std::size_t R = rules.size();

    const CheckpointConfig *ckpt = opt_.checkpoint;
    const bool ckptActive = ckpt != nullptr && !ckpt->dir.empty();
    const std::string ckptPath =
        ckptActive ? walkSnapshotPath(*ckpt) : std::string();
    if (ckptActive)
        reapStaleCheckpointTmps(ckpt->dir);
    const std::uint64_t fingerprint =
        ckptActive ? modelFingerprint(ts_) : 0;
    double baseSeconds = 0.0;

    auto elapsed = [&]() {
        return baseSeconds +
               std::chrono::duration<double>(Clock::now() - t0).count();
    };

    VState init = ts_.initialState();
    ts_.canonicalize(init);

    // The initial state itself may already violate (degenerate mutant).
    for (const auto &inv : invs) {
        if (!inv.check(init)) {
            result.status = VerifStatus::InvariantViolated;
            result.violatedInvariant = inv.name;
            result.badState = ts_.describe(init);
            result.seconds = elapsed();
            if (ckptActive)
                removeSnapshot(ckptPath);
            return result;
        }
    }

    // Lowest violating walk index seen so far; walks above it are
    // skipped (they cannot win), walks below it always complete, so
    // the final minimum — and hence the reported counterexample — is
    // independent of the thread count and equal to what a sequential
    // 0..K-1 sweep stopping at its first violation would report.
    std::atomic<std::uint64_t> bestWalk{
        std::numeric_limits<std::uint64_t>::max()};
    std::atomic<std::uint64_t> nextWalk{0};
    // Whether any worker bailed out on an interrupt with walk budget
    // still unclaimed (distinguishes "signal raced the finish line"
    // from a genuinely partial run).
    std::atomic<bool> interrupted{false};

    // Walk-granular progress, updated only when a walk COMPLETES
    // (violation, dead end, or full depth). A walk in flight at a
    // snapshot simply reruns on resume; since walk w's RNG stream is a
    // pure function of (seed, w), the rerun contributes identically,
    // so resumed totals match an uninterrupted run exactly.
    // The completion bitmap grows lazily to the highest finished walk
    // index (and is trimmed of trailing zeros when serialized), so a
    // huge --walks budget costs memory/disk proportional to the work
    // actually done, not the budget.
    std::mutex progMu;
    std::vector<std::uint8_t> done;
    std::uint64_t stepsTotal = 0;
    std::uint64_t walksRunN = 0;
    std::uint64_t deadEndsN = 0;
    // Guard-scan counters; deliberately NOT checkpointed (the snapshot
    // format predates them and they are diagnostics, not verdicts — a
    // resumed run reports the counters of the walks IT ran).
    std::uint64_t guardEvalsN = 0;
    std::uint64_t guardSkippedN = 0;
    std::uint64_t identityHitsN = 0;
    std::vector<WalkViolation> violations;
    double lastCkptSeconds = 0.0;

    // Serialize progress; caller holds progMu.
    auto snapshot_payload = [&]() {
        SnapshotWriter w;
        w.putU64(opt_.seed);
        w.putU64(opt_.depth);
        w.putU64(opt_.walks);
        w.putF64(elapsed());
        w.putU64(stepsTotal);
        w.putU64(walksRunN);
        w.putU64(deadEndsN);
        std::size_t nDone = done.size();
        while (nDone > 0 && done[nDone - 1] == 0)
            --nDone;
        w.putU64(nDone);
        w.putBytes(done.data(), nDone);
        w.putU64(violations.size());
        for (const WalkViolation &v : violations) {
            w.putU64(v.walk);
            w.putU32(static_cast<std::uint32_t>(v.invariant));
            w.putU64(v.trace.size());
            for (const std::uint32_t r : v.trace)
                w.putU32(r);
            w.putState(v.state);
        }
        return w.take();
    };

    auto write_snapshot_locked = [&]() {
        std::string err;
        const std::vector<std::uint8_t> payload = snapshot_payload();
        if (!writeSnapshotFile(ckptPath, SnapshotKind::Walk,
                               fingerprint, payload, err)) {
            neo_warn("checkpoint not written: ", err);
            return;
        }
        ++result.checkpointsWritten;
        result.lastSnapshotBytes = payload.size();
    };

    if (ckptActive && ckpt->resume && snapshotExists(ckptPath)) {
        std::vector<std::uint8_t> payload;
        std::string err;
        if (!readSnapshotFile(ckptPath, SnapshotKind::Walk,
                              fingerprint, payload, err))
            neo_fatal("cannot resume: ", err);
        SnapshotReader r(payload);
        const std::uint64_t seed = r.getU64();
        const std::uint64_t depth = r.getU64();
        r.getU64(); // walk budget of the interrupted run; the resumed
                    // budget comes from the CLI (it may be extended)
        baseSeconds = r.getF64();
        stepsTotal = r.getU64();
        walksRunN = r.getU64();
        deadEndsN = r.getU64();
        const std::uint64_t nDone = r.getU64();
        std::vector<std::uint8_t> savedDone(
            static_cast<std::size_t>(nDone), 0);
        r.getBytes(savedDone.data(), savedDone.size());
        const std::uint64_t nVio = r.getU64();
        for (std::uint64_t i = 0; r.ok() && i < nVio; ++i) {
            WalkViolation v;
            v.walk = r.getU64();
            v.invariant = r.getU32();
            const std::uint64_t len = r.getU64();
            v.trace.resize(static_cast<std::size_t>(len));
            for (auto &step : v.trace)
                step = r.getU32();
            r.getState(ts_.numVars(), v.state);
            if (v.invariant >= invs.size())
                neo_fatal("cannot resume: ", ckptPath,
                          ": invariant index out of range");
            for (const std::uint32_t step : v.trace) {
                if (step >= rules.size())
                    neo_fatal("cannot resume: ", ckptPath,
                              ": rule index out of range");
            }
            violations.push_back(std::move(v));
        }
        if (!r.atEnd())
            neo_fatal("cannot resume: ", ckptPath,
                      ": malformed walk snapshot");
        if (seed != opt_.seed || depth != opt_.depth)
            neo_fatal("cannot resume: snapshot was taken with --seed ",
                      seed, " --depth ", depth,
                      "; rerun with the same values");
        done = std::move(savedDone);
        for (std::size_t w = 0; w < done.size() && w < opt_.walks;
             ++w)
            result.restoredWalks += done[w];
        for (const WalkViolation &v : violations) {
            std::uint64_t cur = bestWalk.load();
            while (v.walk < cur &&
                   !bestWalk.compare_exchange_weak(cur, v.walk)) {
            }
        }
        result.resumed = true;
    }

    // Returns the walk's outcome so the caller can commit it to the
    // progress block in one locked step; Abandoned = interrupt
    // mid-walk, nothing recorded.
    enum class WalkOutcome
    {
        Completed,
        DeadEnd,
        Violated,
        Abandoned
    };

    struct WalkCounters
    {
        std::uint64_t guardEvals = 0;
        std::uint64_t guardEvalsSkipped = 0;
        std::uint64_t canonIdentityHits = 0;
    };

    auto run_walk = [&](std::uint64_t w, std::uint64_t &steps,
                        WalkViolation &vio, WalkCounters &cnt) {
        Random rng(opt_.seed + w * kWalkSeedStride);
        VState s = init;
        std::vector<std::uint32_t> fired;
        fired.reserve(static_cast<std::size_t>(opt_.depth));
        std::vector<std::uint32_t> enabled;
        enabled.reserve(rules.size());
        std::vector<std::uint64_t> cand(index.ruleWords());

        for (std::uint64_t step = 0; step < opt_.depth; ++step) {
            if (ckptActive && (step & 0xfff) == 0 &&
                interruptRequested())
                return WalkOutcome::Abandoned;
            // Candidates come in ascending rule order, the order of a
            // full scan, so rng.below() sees the same enabled list
            // and the determinism contract holds.
            enabled.clear();
            const std::size_t evals = index.forEachEnabled(
                comp, s, cand.data(), [&](std::size_t r) {
                    enabled.push_back(static_cast<std::uint32_t>(r));
                    return true;
                });
            cnt.guardEvals += evals;
            cnt.guardEvalsSkipped += R - evals;
            if (enabled.empty()) {
                steps = step;
                return WalkOutcome::DeadEnd;
            }
            const std::uint32_t pick = enabled[static_cast<std::size_t>(
                rng.below(enabled.size()))];
            comp.effect(pick, s);
            if (ts_.canonicalize(s))
                ++cnt.canonIdentityHits;
            fired.push_back(pick);
            for (std::size_t i = 0; i < invs.size(); ++i) {
                if (!invs[i].check(s)) {
                    steps = step + 1;
                    vio = WalkViolation{w, i, std::move(fired),
                                        std::move(s)};
                    return WalkOutcome::Violated;
                }
            }
        }
        steps = opt_.depth;
        return WalkOutcome::Completed;
    };

    const unsigned nthreads = opt_.threads > 0 ? opt_.threads : 1;
    auto worker = [&]() {
        for (;;) {
            const std::uint64_t w =
                nextWalk.fetch_add(1, std::memory_order_relaxed);
            if (w >= opt_.walks)
                return;
            if (ckptActive && interruptRequested()) {
                interrupted.store(true, std::memory_order_relaxed);
                return;
            }
            bool alreadyDone;
            {
                // Must lock: the bitmap reallocates as it grows.
                std::lock_guard<std::mutex> g(progMu);
                alreadyDone = w < done.size() && done[w] != 0;
            }
            if (alreadyDone)
                continue; // restored from the snapshot
            if (w > bestWalk.load(std::memory_order_relaxed))
                continue; // cannot beat the current best violation
            std::uint64_t steps = 0;
            WalkViolation vio;
            WalkCounters cnt;
            const WalkOutcome out = run_walk(w, steps, vio, cnt);
            if (out == WalkOutcome::Abandoned) {
                interrupted.store(true, std::memory_order_relaxed);
                return;
            }
            std::lock_guard<std::mutex> g(progMu);
            if (w >= done.size())
                done.resize(static_cast<std::size_t>(w) + 1, 0);
            done[w] = 1;
            stepsTotal += steps;
            guardEvalsN += cnt.guardEvals;
            guardSkippedN += cnt.guardEvalsSkipped;
            identityHitsN += cnt.canonIdentityHits;
            ++walksRunN;
            if (out == WalkOutcome::DeadEnd)
                ++deadEndsN;
            if (out == WalkOutcome::Violated) {
                violations.push_back(std::move(vio));
                std::uint64_t cur = bestWalk.load();
                while (w < cur &&
                       !bestWalk.compare_exchange_weak(cur, w)) {
                }
            }
            if (ckptActive && ckpt->everySeconds > 0.0 &&
                elapsed() - lastCkptSeconds >= ckpt->everySeconds) {
                write_snapshot_locked();
                lastCkptSeconds = elapsed();
            }
        }
    };

    if (nthreads == 1) {
        worker();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(nthreads);
        for (unsigned t = 0; t < nthreads; ++t)
            threads.emplace_back(worker);
        for (auto &t : threads)
            t.join();
    }

    result.stepsTaken = stepsTotal;
    result.walksRun = walksRunN;
    result.deadEnds = deadEndsN;
    result.guardEvals = guardEvalsN;
    result.guardEvalsSkipped = guardSkippedN;
    result.canonIdentityHits = identityHitsN;

    if (interrupted.load(std::memory_order_relaxed)) {
        // Partial run: flush a final snapshot (walks completed so far
        // plus any violations, which the resumed run will report once
        // every lower-numbered walk has had its say) and surface the
        // resumable status instead of a premature verdict.
        write_snapshot_locked(); // single-threaded now; lock not needed
        result.status = VerifStatus::Interrupted;
        result.seconds = elapsed();
        return result;
    }

    const std::uint64_t best = bestWalk.load();
    if (best != std::numeric_limits<std::uint64_t>::max()) {
        const WalkViolation *win = nullptr;
        for (const auto &v : violations) {
            if (v.walk == best)
                win = &v;
        }
        result.status = VerifStatus::InvariantViolated;
        result.walkIndex = win->walk;
        result.violatedInvariant = invs[win->invariant].name;
        result.trace = win->trace;
        result.badState = ts_.describe(win->state);
        result.traceNames.reserve(win->trace.size());
        for (const std::uint32_t r : win->trace)
            result.traceNames.push_back(rules[r].name);
    }

    // The budget ran to its verdict; nothing is left to resume.
    if (ckptActive)
        removeSnapshot(ckptPath);

    result.seconds = elapsed();
    return result;
}

WalkResult
walkExplore(const TransitionSystem &ts, const WalkOptions &opt)
{
    return RandomWalkExplorer(ts, opt).run();
}

} // namespace neo
