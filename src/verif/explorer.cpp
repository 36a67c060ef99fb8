#include "explorer.hpp"

#include <algorithm>
#include <chrono>

#include "verif/checkpoint.hpp"
#include "verif/parallel_explorer.hpp"
#include "verif/state_store.hpp"

namespace neo
{

const char *
verifStatusName(VerifStatus s)
{
    switch (s) {
      case VerifStatus::Verified:
        return "VERIFIED";
      case VerifStatus::InvariantViolated:
        return "INVARIANT VIOLATED";
      case VerifStatus::Deadlock:
        return "DEADLOCK";
      case VerifStatus::LimitExceeded:
        return "EXCEEDED BOUNDS";
      case VerifStatus::Interrupted:
        return "INTERRUPTED (resumable)";
    }
    return "?";
}

std::uint64_t
explorePresizeHint(const ExploreLimits &limits)
{
    // Only a non-default bound signals the expected scale; the cap
    // keeps a generous bound on a small model from ballooning the
    // up-front table (growth past the hint stays amortized).
    constexpr std::uint64_t kPresizeCapStates = 1ULL << 18;
    if (limits.maxStates == 0 ||
        limits.maxStates >= kDefaultMaxStates)
        return 0;
    return std::min(limits.maxStates, kPresizeCapStates);
}

ExploreResult
explore(const TransitionSystem &ts, const ExploreLimits &limits,
        bool detect_deadlock, bool keep_trace,
        const std::function<void(const VState &)> &on_state)
{
    if (limits.threads > 1)
        return exploreParallel(ts, limits, detect_deadlock, keep_trace,
                               on_state);

    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();

    ExploreResult result;
    result.ruleFires.assign(ts.rules().size(), 0);

    // Visited set and state payloads live in the arena-interned
    // store; the arena id IS the state id, and the parent edges
    // (trace reconstruction) are flat arrays indexed by it.
    StateStore store(ts.numVars(), explorePresizeHint(limits),
                     limits.hash);
    std::vector<std::uint32_t> parentIds;
    std::vector<std::uint32_t> parentRules;
    // Runtime copy of keep_trace: memory-pressure degradation (below)
    // sheds the predecessor links and clears it mid-run.
    bool tracing = keep_trace;

    const auto &rules = ts.rules();
    // Flat guard/effect tables: term-form rules fire as contiguous
    // table scans, fallback rules through one raw function pointer —
    // either way no per-firing std::function dispatch.
    const CompiledRules comp(ts);
    // Candidate table: only the rules whose guard key admits a state
    // have their guards evaluated on it.
    const RuleDepIndex index(ts);
    const std::size_t R = rules.size();

    const CheckpointConfig *ckpt = limits.checkpoint;
    const bool ckptActive = ckpt != nullptr && !ckpt->dir.empty();
    const std::string ckptPath =
        ckptActive ? exploreSnapshotPath(*ckpt) : std::string();
    // Reap "<path>.tmp" orphans from a crash mid-write before this
    // run's first snapshot; resume only ever reads the renamed path.
    if (ckptActive)
        reapStaleCheckpointTmps(ckpt->dir);
    const std::uint64_t fingerprint =
        ckptActive ? modelFingerprint(ts) : 0;
    // Wall-clock already spent by the resumed run; maxSeconds bounds
    // the cumulative time across resumes, like a real compute budget.
    double baseSeconds = 0.0;

    auto elapsed = [&]() {
        return baseSeconds +
               std::chrono::duration<double>(Clock::now() - t0).count();
    };

    // Frontier of unexpanded state ids (states stay in the arena; a
    // work item is 4 bytes, not a VState copy). head is the BFS read
    // cursor; the consumed prefix is compacted away periodically.
    std::vector<std::uint32_t> work;
    std::size_t workHead = 0;
    if (const std::uint64_t hint = explorePresizeHint(limits))
        work.reserve(static_cast<std::size_t>(hint));
    auto frontierSize = [&]() { return work.size() - workHead; };

    // The state being expanded and its candidate bitset.
    VState cur;
    std::vector<std::uint64_t> cand(index.ruleWords());
    // Batched firing scratch (shared shape with the parallel
    // workers): all enabled rules fire into these reusable slots
    // first, then one in-order process pass counts, interns and
    // checks each successor. Counting in the PROCESS pass — not at
    // generation — is what keeps every count bit-identical to the
    // pre-batching engine: a violation at successor k leaves rules
    // after k uncounted, exactly as when each rule was fired and
    // checked inline.
    std::vector<VState> batchBuf;
    std::vector<std::uint32_t> batchRule;

    auto estimate_memory = [&]() -> std::uint64_t {
        // Arena payload + open-addressing table, measured not
        // modeled.
        std::uint64_t bytes = store.memoryBytes();
        if (tracing)
            bytes += parentIds.size() * sizeof(std::uint32_t) +
                     parentRules.size() * sizeof(std::uint32_t);
        bytes += frontierSize() * sizeof(std::uint32_t);
        // Serializing a snapshot buffers the whole image once more;
        // the limit must cover that transient or the checkpoint that
        // is meant to save the run OOMs it instead.
        if (ckptActive) {
            bytes += store.size() *
                     (ts.numVars() + (tracing ? 16 : 0));
            bytes += frontierSize() * (ts.numVars() + 12);
        }
        return bytes;
    };

    auto fail_invariants = [&](const VState &s) -> const char * {
        for (const auto &inv : ts.invariants()) {
            ++result.invariantChecks;
            if (!inv.check(s))
                return inv.name.c_str();
        }
        return nullptr;
    };

    auto build_trace = [&](std::uint32_t id) {
        std::vector<std::string> names;
        while (id != 0) {
            names.push_back(rules[parentRules[id]].name);
            id = parentIds[id];
        }
        std::reverse(names.begin(), names.end());
        return names;
    };

    // BFS depth of every visited state, derivable from the parent
    // links because a parent's id always precedes its children's.
    auto compute_depths = [&]() {
        std::vector<std::uint32_t> depth(parentIds.size(), 0);
        for (std::size_t i = 1; i < parentIds.size(); ++i)
            depth[i] = depth[parentIds[i]] + 1;
        return depth;
    };

    auto write_snapshot = [&]() {
        ExploreSnapshotMeta meta;
        meta.elapsedSeconds = elapsed();
        meta.transitionsFired = result.transitionsFired;
        meta.ruleFires = result.ruleFires;
        meta.hasLinks = tracing;
        meta.numStates = store.size();
        std::vector<std::uint32_t> depth;
        if (tracing)
            depth = compute_depths();
        auto linkAt = [&](std::uint64_t i) {
            return ExploreSnapshot::Link{
                parentIds[static_cast<std::size_t>(i)],
                parentRules[static_cast<std::size_t>(i)],
                depth[static_cast<std::size_t>(i)]};
        };
        const std::vector<std::uint8_t> payload =
            encodeExploreSnapshotStreamed(
                meta, ts.numVars(),
                [&](std::uint64_t i) {
                    return store.at(static_cast<std::uint32_t>(i));
                },
                linkAt, frontierSize(),
                [&](std::uint64_t n) {
                    const std::uint32_t id =
                        work[workHead + static_cast<std::size_t>(n)];
                    return std::pair<std::uint64_t, std::uint32_t>{
                        id, tracing ? depth[id] : 0};
                });
        std::string err;
        if (!writeSnapshotFile(ckptPath, SnapshotKind::Explore,
                               fingerprint, payload, err)) {
            neo_warn("checkpoint not written: ", err);
            return;
        }
        ++result.checkpointsWritten;
        result.lastSnapshotBytes = payload.size();
    };

    bool fresh = true;
    if (ckptActive && ckpt->resume && snapshotExists(ckptPath)) {
        std::vector<std::uint8_t> payload;
        std::string err;
        if (!readSnapshotFile(ckptPath, SnapshotKind::Explore,
                              fingerprint, payload, err))
            neo_fatal("cannot resume: ", err);
        ExploreSnapshotMeta meta;
        auto beginStates = [&](std::uint64_t nStates) {
            store.reserve(nStates);
            if (tracing && meta.hasLinks) {
                parentIds.reserve(
                    static_cast<std::size_t>(nStates));
                parentRules.reserve(
                    static_cast<std::size_t>(nStates));
            }
        };
        auto onLink = [&](std::uint64_t,
                          const ExploreSnapshot::Link &l) {
            if (tracing && meta.hasLinks) {
                parentIds.push_back(
                    static_cast<std::uint32_t>(l.parent));
                parentRules.push_back(l.rule);
            }
        };
        auto onFrontier = [&](std::uint64_t id, std::uint32_t,
                              const std::uint8_t *) {
            work.push_back(static_cast<std::uint32_t>(id));
        };
        const bool okDecode = decodeExploreSnapshotStreamed(
            payload, ts.numVars(), rules.size(), meta, beginStates,
            [&](std::uint64_t, const std::uint8_t *state) {
                store.intern(state);
                if (on_state) {
                    cur.assign(state, state + ts.numVars());
                    on_state(cur);
                }
            },
            onLink, onFrontier, err);
        if (!okDecode)
            neo_fatal("cannot resume: ", ckptPath, ": ", err);
        baseSeconds = meta.elapsedSeconds;
        result.transitionsFired = meta.transitionsFired;
        result.ruleFires = meta.ruleFires;
        if (tracing && !meta.hasLinks) {
            // The snapshot shed its links (memory-pressure degrade);
            // older predecessors are unrecoverable, so the resumed
            // run keeps exact counts but cannot build traces.
            tracing = false;
            result.degradedTrace = true;
        }
        result.resumed = true;
        result.restoredStates = meta.numStates;
        fresh = false;
    }

    if (fresh) {
        VState init = ts.initialState();
        ts.canonicalize(init);
        store.intern(init);
        if (tracing) {
            parentIds.push_back(0);
            parentRules.push_back(0);
        }
        if (on_state)
            on_state(init);
        work.push_back(0);

        if (const char *inv = fail_invariants(init)) {
            result.status = VerifStatus::InvariantViolated;
            result.violatedInvariant = inv;
            result.badState = ts.describe(init);
            result.statesExplored = 1;
            result.seconds = elapsed();
            return result;
        }
    }

    double lastCkptSeconds = elapsed();
    bool nearLimitSnapshotDone = false;

    while (workHead < work.size()) {
        if (ckptActive && interruptRequested()) {
            write_snapshot();
            result.status = VerifStatus::Interrupted;
            break;
        }
        if (store.size() >= limits.maxStates ||
            elapsed() > limits.maxSeconds) {
            if (ckptActive)
                write_snapshot();
            result.status = VerifStatus::LimitExceeded;
            break;
        }
        if (limits.maxMemoryBytes != 0) {
            std::uint64_t mem = estimate_memory();
            if (mem > limits.maxMemoryBytes && ckptActive && tracing) {
                // Memory-pressure ladder: snapshot what we have, then
                // shed the predecessor links (the single largest
                // optional structure) and keep exploring without
                // traces.
                write_snapshot();
                parentIds.clear();
                parentIds.shrink_to_fit();
                parentRules.clear();
                parentRules.shrink_to_fit();
                tracing = false;
                result.degradedTrace = true;
                mem = estimate_memory();
            }
            if (mem > limits.maxMemoryBytes) {
                if (ckptActive)
                    write_snapshot();
                result.status = VerifStatus::LimitExceeded;
                break;
            }
            if (ckptActive && !nearLimitSnapshotDone &&
                mem * 10 > limits.maxMemoryBytes * 9) {
                // Nearing the budget: secure progress now in case the
                // next growth step lands on a real OOM kill.
                write_snapshot();
                nearLimitSnapshotDone = true;
            }
        }
        if (ckptActive && ckpt->everySeconds > 0.0 &&
            elapsed() - lastCkptSeconds >= ckpt->everySeconds) {
            write_snapshot();
            lastCkptSeconds = elapsed();
        }
        const std::uint32_t id = work[workHead];
        ++workHead;
        if (workHead >= 4096 && workHead * 2 >= work.size()) {
            work.erase(work.begin(),
                       work.begin() +
                           static_cast<std::ptrdiff_t>(workHead));
            workHead = 0;
        }
        store.copyTo(id, cur);

        // Generate phase: fire every enabled rule into the batch
        // scratch (guard, effect, canonicalize — no bookkeeping),
        // evaluating only the guards of cur's candidates.
        std::size_t batchN = 0;
        const std::size_t evals = index.forEachEnabled(
            comp, cur, cand.data(), [&](std::size_t r) {
                if (batchBuf.size() <= batchN) {
                    batchBuf.emplace_back();
                    batchRule.push_back(0);
                }
                VState &next = batchBuf[batchN];
                next = cur;
                comp.effect(r, next);
                if (ts.canonicalize(next))
                    ++result.canonIdentityHits;
                batchRule[batchN] = static_cast<std::uint32_t>(r);
                ++batchN;
                return true;
            });
        result.guardEvals += evals;
        result.guardEvalsSkipped += R - evals;

        // Process phase, in rule order: count, intern, check.
        for (std::size_t k = 0; k < batchN; ++k) {
            if (store.size() >= limits.maxStates) {
                // The bound holds mid-batch: stop at EXACTLY
                // maxStates instead of letting this batch overshoot.
                // Treat the item as never expanded — un-count the
                // partial batch's firings and put the item back at
                // the frontier head — so a resumed run re-expands it
                // and reaches the uninterrupted run's exact counts
                // (its already-interned successors just dedup).
                result.transitionsFired -= k;
                for (std::size_t j = 0; j < k; ++j)
                    --result.ruleFires[batchRule[j]];
                work.insert(work.begin() +
                                static_cast<std::ptrdiff_t>(workHead),
                            id);
                if (ckptActive)
                    write_snapshot();
                result.status = VerifStatus::LimitExceeded;
                result.statesExplored = store.size();
                result.seconds = elapsed();
                result.memoryBytes = estimate_memory();
                return result;
            }
            const std::uint32_t r = batchRule[k];
            VState &next = batchBuf[k];
            ++result.transitionsFired;
            ++result.ruleFires[r];
            const auto [nid, inserted] = store.intern(next.data());
            if (!inserted)
                continue;
            if (tracing) {
                parentIds.push_back(id);
                parentRules.push_back(r);
            }
            if (on_state)
                on_state(next);
            if (const char *inv = fail_invariants(next)) {
                result.status = VerifStatus::InvariantViolated;
                result.violatedInvariant = inv;
                result.badState = ts.describe(next);
                if (tracing)
                    result.trace = build_trace(nid);
                result.statesExplored = store.size();
                result.seconds = elapsed();
                result.memoryBytes = estimate_memory();
                if (ckptActive)
                    removeSnapshot(ckptPath);
                return result;
            }
            work.push_back(nid);
        }

        if (detect_deadlock && batchN == 0) {
            result.status = VerifStatus::Deadlock;
            result.badState = ts.describe(cur);
            result.statesExplored = store.size();
            result.seconds = elapsed();
            result.memoryBytes = estimate_memory();
            if (ckptActive)
                removeSnapshot(ckptPath);
            return result;
        }
    }

    result.statesExplored = store.size();
    result.seconds = elapsed();
    result.memoryBytes = estimate_memory();
    // A finished fixpoint has nothing left to resume; only
    // interrupted and bound-exceeded runs keep their snapshot.
    if (ckptActive && result.status == VerifStatus::Verified)
        removeSnapshot(ckptPath);
    return result;
}

} // namespace neo
