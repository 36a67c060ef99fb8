#include "parallel_explorer.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>
#include <type_traits>
#include <vector>

#include "verif/checkpoint.hpp"
#include "verif/mpmc_ring.hpp"
#include "verif/state_store.hpp"

namespace neo
{

namespace
{

/** Shard count; a power of two so the hash folds with a mask. */
constexpr std::size_t kShardCount = 64;

/** Spill-deque block + bookkeeping slack charged per work queue in
 *  the memory estimate, so N queues' standing overhead counts against
 *  maxMemoryBytes even when nearly empty. */
constexpr std::uint64_t kQueueSlackBytes = 4096;

/** Per-worker MPMC ring capacity (cells). Sized so steady-state
 *  frontier traffic stays inside the lock-free ring; bursts beyond it
 *  overflow into the worker's mutex-guarded spill deque instead of
 *  blocking the producer (mpmc_ring.hpp). */
constexpr std::size_t kRingCapacity = 8192;

/**
 * One slice of the visited set: states whose canonical hash folds to
 * this shard, arena-interned with shard-local ids. The predecessor
 * links (trace rebuilding; keep_trace only) are parallel flat arrays
 * indexed by that local id — what used to be a per-state Record node
 * behind an unordered_map.
 */
struct Shard
{
    std::mutex mu;
    std::unique_ptr<StateStore> store;
    std::vector<std::uint64_t> parents; ///< packed (shard, index)
    std::vector<std::uint32_t> ruleOf;
    std::vector<std::uint32_t> depthOf;
};

/** A frontier entry is the packed id + BFS depth; the state bytes
 *  stay in the owning shard's arena and are re-read at expansion
 *  time (see the store's lock-free copyTo() contract). Trivially
 *  copyable, so a ring cell holds it with no heap indirection. */
struct WorkItem
{
    std::uint64_t id = 0;
    std::uint32_t depth = 0;
};

static_assert(std::is_trivially_copyable_v<WorkItem>);

/** The frontier: a bounded lock-free MPMC ring with a spill deque for
 *  overflow (default-constructible so one queue per worker builds as
 *  a plain vector). Owner pops and thieves steal from the same ring —
 *  the ring is FIFO, so expansion order stays approximately
 *  breadth-first. */
struct RingQueue : SpillFrontier<WorkItem>
{
    RingQueue() : SpillFrontier<WorkItem>(kRingCapacity) {}
};

inline std::uint64_t
packId(std::size_t shard, std::uint32_t local)
{
    return (static_cast<std::uint64_t>(shard) << 32) | local;
}

} // namespace

ExploreResult
exploreParallel(const TransitionSystem &ts, const ExploreLimits &limits,
                bool detect_deadlock, bool keep_trace,
                const std::function<void(const VState &)> &on_state)
{
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    const unsigned nthreads = limits.threads > 1 ? limits.threads : 2;
    const std::size_t numVars = ts.numVars();

    ExploreResult result;
    const auto &rules = ts.rules();
    const auto &invs = ts.invariants();
    // Flat guard/effect tables (transition_system.hpp): rule firing
    // below goes through this instead of the per-rule std::function
    // objects, eliminating virtual dispatch on the hot path. Built
    // once here, shared read-only by every worker, like the
    // candidate table that picks the guards worth evaluating.
    const CompiledRules comp(ts);
    const RuleDepIndex index(ts);
    const std::size_t R = rules.size();

    const CheckpointConfig *ckpt = limits.checkpoint;
    const bool ckptActive = ckpt != nullptr && !ckpt->dir.empty();
    const std::string ckptPath =
        ckptActive ? exploreSnapshotPath(*ckpt) : std::string();
    if (ckptActive)
        reapStaleCheckpointTmps(ckpt->dir);
    const std::uint64_t fingerprint =
        ckptActive ? modelFingerprint(ts) : 0;
    double baseSeconds = 0.0;

    // The test-only hash override (ExploreLimits::hash) picks shards
    // and fingerprints alike; the null branch keeps stateHash inlined
    // on the default path.
    const StateStore::HashFn hashOverride = limits.hash;
    auto hashState = [hashOverride, numVars](const std::uint8_t *p) {
        return hashOverride != nullptr ? hashOverride(p, numVars)
                                       : stateHash(p, numVars);
    };

    const std::uint64_t presize = explorePresizeHint(limits);
    std::vector<Shard> shards(kShardCount);
    for (auto &sh : shards)
        sh.store = std::make_unique<StateStore>(
            numVars, presize / kShardCount, limits.hash);
    std::vector<RingQueue> queues(nthreads);
    // Standing queue footprint (ring cell arrays + slack), fixed for
    // the run, charged once in the memory estimate below.
    std::uint64_t queueFixedBytes = 0;
    for (const auto &q : queues)
        queueFixedBytes += kQueueSlackBytes + q.memoryBytes();

    std::atomic<std::uint64_t> statesTotal{0};
    // Firing and invariant counters: each worker counts in locals and
    // flushes them here before every checkpoint snapshot and at exit.
    std::atomic<std::uint64_t> transitionsTotal{0};
    std::atomic<std::uint64_t> invChecksTotal{0};
    std::atomic<std::uint64_t> guardEvalsTotal{0};
    std::atomic<std::uint64_t> guardSkippedTotal{0};
    std::atomic<std::uint64_t> identityHitsTotal{0};
    std::vector<std::atomic<std::uint64_t>> ruleFires(rules.size());
    /** Aggregate arena + table footprint across shards, maintained by
     *  delta under each shard's mutex so the memory-bound check reads
     *  one atomic instead of locking 64 shards. */
    std::atomic<std::uint64_t> storeBytes{0};
    /** Queued + currently-expanding items; 0 means the fixpoint. */
    std::atomic<std::uint64_t> inFlight{0};
    std::atomic<bool> stop{false};
    /** Runtime keep_trace; cleared when memory pressure sheds the
     *  predecessor links mid-run. */
    std::atomic<bool> traceOn{keep_trace};
    bool degradedTrace = false; // mutated only at safe points

    // Checkpoint rendezvous: worker 0 (the coordinator) raises
    // pauseRequested; every other live worker parks at the top of its
    // loop, which guarantees no expansion is in progress — every
    // in-flight item sits in some queue, so shards + queues + the
    // counters form a consistent cut to serialize.
    std::atomic<bool> pauseRequested{false};
    std::atomic<unsigned> pausedCount{0};
    std::atomic<unsigned> alive{0};

    // Terminal outcome. A violation or deadlock beats a bound; among
    // violations discovered by different workers the smallest
    // (depth, invariant index, state bytes) wins, so the report is
    // deterministic once the racing workers have drained.
    std::mutex termMu;
    VerifStatus termStatus = VerifStatus::Verified;
    std::uint32_t vioDepth = 0;
    std::size_t vioInv = 0;
    std::uint64_t vioId = 0;
    VState vioState;
    VState deadState;

    std::mutex cbMu; // serializes the caller's on_state callback

    auto elapsed = [&]() {
        return baseSeconds +
               std::chrono::duration<double>(Clock::now() - t0).count();
    };

    // Same accounting as the sequential explorer: the measured arena
    // + table aggregate (each shard's memoryBytes() already counts
    // its StateStore header), the flat predecessor arrays, the
    // frontier, the standing shard/queue structures and — when
    // checkpointing — the snapshot serialization buffer, so the bound
    // holds on the robust path too.
    auto estimate_memory = [&]() -> std::uint64_t {
        const bool tracing = traceOn.load(std::memory_order_relaxed);
        const std::uint64_t per_trace = tracing ? 16 : 0;
        const std::uint64_t per_frontier = sizeof(WorkItem);
        const std::uint64_t per_ckpt_state =
            ckptActive ? numVars + (tracing ? 16 : 0) : 0;
        const std::uint64_t per_ckpt_frontier =
            ckptActive ? numVars + 12 : 0;
        const std::uint64_t structural =
            kShardCount * sizeof(Shard) + queueFixedBytes;
        return storeBytes.load(std::memory_order_relaxed) +
               statesTotal.load(std::memory_order_relaxed) *
                   (per_trace + per_ckpt_state) +
               inFlight.load(std::memory_order_relaxed) *
                   (per_frontier + per_ckpt_frontier) +
               structural;
    };

    // Index of the first invariant @p s violates, or -1; adds the
    // predicate evaluations to @p checks.
    auto failing_invariant = [&](const VState &s,
                                 std::uint64_t &checks) -> int {
        for (std::size_t i = 0; i < invs.size(); ++i) {
            ++checks;
            if (!invs[i].check(s))
                return static_cast<int>(i);
        }
        return -1;
    };

    auto report_violation = [&](int inv, const VState &s,
                                std::uint64_t id, std::uint32_t depth) {
        const std::size_t invIdx = static_cast<std::size_t>(inv);
        std::lock_guard<std::mutex> g(termMu);
        const bool better =
            termStatus != VerifStatus::InvariantViolated ||
            std::tie(depth, invIdx, s) <
                std::tie(vioDepth, vioInv, vioState);
        if (better) {
            termStatus = VerifStatus::InvariantViolated;
            vioDepth = depth;
            vioInv = invIdx;
            vioId = id;
            vioState = s;
        }
        stop.store(true, std::memory_order_relaxed);
    };

    auto report_deadlock = [&](const VState &s) {
        std::lock_guard<std::mutex> g(termMu);
        if (termStatus == VerifStatus::Verified ||
            termStatus == VerifStatus::LimitExceeded) {
            termStatus = VerifStatus::Deadlock;
            deadState = s;
        }
        stop.store(true, std::memory_order_relaxed);
    };

    auto report_limit = [&]() {
        std::lock_guard<std::mutex> g(termMu);
        if (termStatus == VerifStatus::Verified)
            termStatus = VerifStatus::LimitExceeded;
        stop.store(true, std::memory_order_relaxed);
    };

    auto report_interrupted = [&]() {
        std::lock_guard<std::mutex> g(termMu);
        if (termStatus == VerifStatus::Verified)
            termStatus = VerifStatus::Interrupted;
        stop.store(true, std::memory_order_relaxed);
    };

    // Serialize the paused run into the canonical explore-snapshot
    // layout: states shard-major in local-insertion order, packed ids
    // remapped onto dense indices, streamed straight out of the
    // arenas. Caller guarantees quiescence; the per-shard lock/unlock
    // while sizing the prefix table establishes the happens-before
    // edge with every past writer of that shard.
    auto write_snapshot = [&]() {
        const bool tracing = traceOn.load(std::memory_order_relaxed);
        ExploreSnapshotMeta meta;
        meta.elapsedSeconds = elapsed();
        meta.transitionsFired =
            transitionsTotal.load(std::memory_order_relaxed);
        meta.ruleFires.resize(rules.size());
        for (std::size_t r = 0; r < rules.size(); ++r)
            meta.ruleFires[r] =
                ruleFires[r].load(std::memory_order_relaxed);
        meta.hasLinks = tracing;

        std::array<std::uint64_t, kShardCount> prefix{};
        std::uint64_t total = 0;
        for (std::size_t sh = 0; sh < kShardCount; ++sh) {
            prefix[sh] = total;
            std::lock_guard<std::mutex> g(shards[sh].mu);
            total += shards[sh].store->size();
        }
        meta.numStates = total;
        auto dense = [&](std::uint64_t packed) {
            return prefix[packed >> 32] + (packed & 0xffffffffULL);
        };
        auto shardOf = [&](std::uint64_t denseId) {
            std::size_t sh = kShardCount - 1;
            while (prefix[sh] > denseId)
                --sh;
            return sh;
        };

        auto linkAt = [&](std::uint64_t i) {
            const std::size_t sh = shardOf(i);
            const auto local =
                static_cast<std::size_t>(i - prefix[sh]);
            const std::uint32_t depth = shards[sh].depthOf[local];
            return ExploreSnapshot::Link{
                depth == 0 ? 0 : dense(shards[sh].parents[local]),
                shards[sh].ruleOf[local], depth};
        };

        std::vector<std::pair<std::uint64_t, std::uint32_t>> frontier;
        for (auto &q : queues) {
            q.forEach([&](const WorkItem &w) {
                frontier.emplace_back(dense(w.id), w.depth);
            });
        }
        const std::vector<std::uint8_t> payload =
            encodeExploreSnapshotStreamed(
                meta, numVars,
                [&](std::uint64_t i) {
                    const std::size_t sh = shardOf(i);
                    return shards[sh].store->at(
                        static_cast<std::uint32_t>(i - prefix[sh]));
                },
                linkAt, frontier.size(),
                [&](std::uint64_t n) {
                    return frontier[static_cast<std::size_t>(n)];
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
        // Pass 1 (onState): shard-major reinsertion; the shard of a
        // state is a pure hash, so each lands where the writer had
        // it, and file order preserves the per-shard local indices.
        // Pass 2 (onLink): predecessor links, parents remapped to
        // packed ids (a parent's dense index may live in a later
        // shard, hence the separate pass — the codec streams links
        // only after every state).
        std::vector<std::uint64_t> denseToPacked;
        bool tracing = false;
        std::uint64_t nq = 0;
        VState scratch;
        auto beginStates = [&](std::uint64_t nStates) {
            tracing = keep_trace && meta.hasLinks;
            denseToPacked.resize(static_cast<std::size_t>(nStates));
            for (auto &sh : shards)
                sh.store->reserve(nStates / kShardCount);
        };
        auto onLink = [&](std::uint64_t id,
                          const ExploreSnapshot::Link &l) {
            if (!tracing)
                return;
            const std::size_t sh =
                denseToPacked[static_cast<std::size_t>(id)] >> 32;
            shards[sh].parents.push_back(
                denseToPacked[static_cast<std::size_t>(l.parent)]);
            shards[sh].ruleOf.push_back(l.rule);
            shards[sh].depthOf.push_back(l.depth);
        };
        auto onFrontier = [&](std::uint64_t id, std::uint32_t depth,
                              const std::uint8_t *) {
            queues[nq++ % nthreads].push(WorkItem{
                denseToPacked[static_cast<std::size_t>(id)], depth});
        };
        const bool okDecode = decodeExploreSnapshotStreamed(
            payload, numVars, rules.size(), meta, beginStates,
            [&](std::uint64_t id, const std::uint8_t *state) {
                const std::uint64_t h = hashState(state);
                const std::size_t sh = h & (kShardCount - 1);
                const std::uint32_t local =
                    shards[sh].store->internHashed(state, h).first;
                denseToPacked[static_cast<std::size_t>(id)] =
                    packId(sh, local);
                if (on_state) {
                    scratch.assign(state, state + numVars);
                    on_state(scratch);
                }
            },
            onLink, onFrontier, err);
        if (!okDecode)
            neo_fatal("cannot resume: ", ckptPath, ": ", err);
        baseSeconds = meta.elapsedSeconds;
        transitionsTotal.store(meta.transitionsFired,
                               std::memory_order_relaxed);
        for (std::size_t r = 0; r < rules.size(); ++r)
            ruleFires[r].store(meta.ruleFires[r],
                               std::memory_order_relaxed);
        if (keep_trace && !meta.hasLinks) {
            traceOn.store(false, std::memory_order_relaxed);
            degradedTrace = true;
        }
        statesTotal.store(meta.numStates, std::memory_order_relaxed);
        inFlight.store(nq, std::memory_order_relaxed);
        result.resumed = true;
        result.restoredStates = meta.numStates;
        fresh = false;
    }

    if (fresh) {
        // Seed with the canonical initial state (mirrors the
        // sequential explorer's pre-loop block, including the early
        // violation exit).
        VState init = ts.initialState();
        ts.canonicalize(init);
        std::uint64_t initId;
        {
            const std::uint64_t h = hashState(init.data());
            const std::size_t sh = h & (kShardCount - 1);
            shards[sh].store->internHashed(init.data(), h);
            if (keep_trace) {
                shards[sh].parents.push_back(0);
                shards[sh].ruleOf.push_back(0);
                shards[sh].depthOf.push_back(0);
            }
            initId = packId(sh, 0);
        }
        statesTotal.store(1, std::memory_order_relaxed);
        if (on_state)
            on_state(init);
        std::uint64_t initChecks = 0;
        const int inv = failing_invariant(init, initChecks);
        invChecksTotal.store(initChecks, std::memory_order_relaxed);
        if (inv >= 0) {
            result.ruleFires.assign(rules.size(), 0);
            result.status = VerifStatus::InvariantViolated;
            result.violatedInvariant =
                invs[static_cast<std::size_t>(inv)].name;
            result.badState = ts.describe(init);
            result.statesExplored = 1;
            result.invariantChecks = initChecks;
            result.seconds = elapsed();
            return result;
        }
        queues[0].push(WorkItem{initId, 0});
        inFlight.store(1, std::memory_order_relaxed);
    }

    // Baseline footprint (presized tables + whatever resume/seeding
    // interned); workers maintain it by delta from here on.
    {
        std::uint64_t bytes = 0;
        for (const auto &sh : shards)
            bytes += sh.store->memoryBytes();
        storeBytes.store(bytes, std::memory_order_relaxed);
    }

    // maxStates token budget: interning a FRESH state consumes a
    // token, so the bound holds exactly even when a worker interns a
    // whole successor batch at once — the run stops at maxStates, not
    // maxStates + batch size. Reservations are all-or-nothing (no
    // partial takes, so the balance never dips to zero while work is
    // still admissible), and a batch that reserved more than it
    // inserted (duplicates) returns the surplus. The invariant
    //   statesTotal + tokens + (tokens held by in-lock batches)
    //     == maxStates
    // is what lets an exhausted taker distinguish "genuinely at the
    // bound" (statesTotal == maxStates) from "transiently held":
    // holders reserve and return entirely inside one shard critical
    // section and never block on a second lock, so waiting for them
    // always terminates.
    std::atomic<std::int64_t> tokens{
        limits.maxStates > statesTotal.load(std::memory_order_relaxed)
            ? static_cast<std::int64_t>(
                  limits.maxStates -
                  statesTotal.load(std::memory_order_relaxed))
            : 0};
    auto takeTokens = [&](std::int64_t want) -> bool {
        std::int64_t cur = tokens.load(std::memory_order_relaxed);
        while (cur >= want) {
            if (tokens.compare_exchange_weak(
                    cur, cur - want, std::memory_order_relaxed))
                return true;
        }
        return false;
    };
    auto returnTokens = [&](std::int64_t n) {
        if (n > 0)
            tokens.fetch_add(n, std::memory_order_relaxed);
    };

    // Coordinator-only state (worker 0 is the only writer).
    double lastCkptSeconds = elapsed();
    bool nearLimitSnapshotDone = false;

    // Decide/execute a checkpoint rendezvous; runs on worker 0 at the
    // top of its loop, i.e. while it holds no work item itself.
    // @p flushOwn publishes worker 0's own local counters; the others
    // flush theirs before they park.
    auto coordinate = [&](auto &&flushOwn) {
        const bool wantInterrupt = interruptRequested();
        const bool wantPeriodic =
            ckpt->everySeconds > 0.0 &&
            elapsed() - lastCkptSeconds >= ckpt->everySeconds;
        const bool memBound = limits.maxMemoryBytes != 0;
        std::uint64_t mem = memBound ? estimate_memory() : 0;
        const bool wantMemory =
            memBound && (mem > limits.maxMemoryBytes ||
                         (!nearLimitSnapshotDone &&
                          mem * 10 > limits.maxMemoryBytes * 9));
        if (!wantInterrupt && !wantPeriodic && !wantMemory)
            return;

        pauseRequested.store(true, std::memory_order_release);
        while (pausedCount.load(std::memory_order_acquire) + 1 <
               alive.load(std::memory_order_acquire)) {
            if (stop.load(std::memory_order_relaxed)) {
                pauseRequested.store(false,
                                     std::memory_order_release);
                return; // a violation/limit beat us; nothing to save
            }
            std::this_thread::yield();
        }

        flushOwn();
        write_snapshot();
        lastCkptSeconds = elapsed();
        if (memBound)
            nearLimitSnapshotDone = true;

        if (wantInterrupt) {
            report_interrupted();
        } else if (memBound) {
            mem = estimate_memory();
            if (mem > limits.maxMemoryBytes &&
                traceOn.load(std::memory_order_relaxed)) {
                // Shed the predecessor links — exact counts survive,
                // traces don't — and keep exploring.
                for (auto &sh : shards) {
                    std::lock_guard<std::mutex> g(sh.mu);
                    sh.parents.clear();
                    sh.parents.shrink_to_fit();
                    sh.ruleOf.clear();
                    sh.ruleOf.shrink_to_fit();
                    sh.depthOf.clear();
                    sh.depthOf.shrink_to_fit();
                }
                traceOn.store(false, std::memory_order_relaxed);
                degradedTrace = true;
                mem = estimate_memory();
            }
            if (mem > limits.maxMemoryBytes)
                report_limit();
        }
        pauseRequested.store(false, std::memory_order_release);
    };

    auto worker = [&](unsigned wid) {
        alive.fetch_add(1, std::memory_order_acq_rel);
        WorkItem item;
        // Reusable expansion scratch. Each dequeued state is expanded
        // in two phases: GENERATE fires every enabled rule through the
        // flat tables into batchBuf (buffers recycled across
        // expansions, no per-firing allocation), then PROCESS groups
        // the successors by owning shard and interns each group under
        // ONE lock acquisition instead of one per successor.
        VState cur;
        std::vector<std::uint64_t> cand(index.ruleWords());
        std::vector<VState> batchBuf;
        std::vector<std::uint32_t> batchRule;
        std::vector<std::uint64_t> batchHash;
        std::vector<std::uint32_t> order; // batch indices, shard-sorted
        std::vector<std::pair<std::uint32_t, bool>> ids;
        std::vector<WorkItem> pushList;
        // Worker-local counters: a shared read-modify-write per firing
        // would bounce one cache line between every worker.
        std::uint64_t transitionsL = 0;
        std::uint64_t invChecksL = 0;
        std::vector<std::uint64_t> ruleFiresL(R, 0);
        std::uint64_t guardEvalsL = 0;
        std::uint64_t guardSkippedL = 0;
        std::uint64_t identityHitsL = 0;
        // Publish the counters. Runs before this worker parks at a
        // rendezvous (worker 0: before it encodes the snapshot) and
        // when it exits.
        auto flushCounters = [&]() {
            auto publish = [](std::atomic<std::uint64_t> &to,
                              std::uint64_t &from) {
                if (from != 0)
                    to.fetch_add(from, std::memory_order_relaxed);
                from = 0;
            };
            publish(transitionsTotal, transitionsL);
            publish(invChecksTotal, invChecksL);
            for (std::size_t r = 0; r < R; ++r)
                publish(ruleFires[r], ruleFiresL[r]);
            publish(guardEvalsTotal, guardEvalsL);
            publish(guardSkippedTotal, guardSkippedL);
            publish(identityHitsTotal, identityHitsL);
        };
        for (;;) {
            if (stop.load(std::memory_order_relaxed))
                break;
            if (wid == 0 && ckptActive)
                coordinate(flushCounters);
            if (pauseRequested.load(std::memory_order_acquire) &&
                wid != 0) {
                flushCounters();
                pausedCount.fetch_add(1, std::memory_order_acq_rel);
                while (pauseRequested.load(
                           std::memory_order_acquire) &&
                       !stop.load(std::memory_order_relaxed))
                    std::this_thread::yield();
                pausedCount.fetch_sub(1, std::memory_order_acq_rel);
                continue;
            }
            bool got = queues[wid].pop(item);
            for (unsigned k = 1; !got && k < nthreads; ++k)
                got = queues[(wid + k) % nthreads].steal(item);
            if (!got) {
                if (inFlight.load(std::memory_order_acquire) == 0)
                    break;
                std::this_thread::yield();
                continue;
            }
            // Cooperative bound check, once per expansion like the
            // sequential loop's check per pop. With checkpointing on,
            // the memory bound is the coordinator's job (it must
            // snapshot and degrade before declaring defeat).
            if (statesTotal.load(std::memory_order_relaxed) >=
                    limits.maxStates ||
                elapsed() > limits.maxSeconds ||
                (!ckptActive && limits.maxMemoryBytes != 0 &&
                 estimate_memory() > limits.maxMemoryBytes)) {
                report_limit();
                inFlight.fetch_sub(1, std::memory_order_release);
                break;
            }
            // The popped id was published through the frontier (the
            // push's release store) after its bytes were interned
            // under the owning shard's mutex, so this lock-free arena
            // read is happens-after the write (see mpmc_ring.hpp's
            // happens-before contract).
            shards[item.id >> 32].store->copyTo(
                static_cast<std::uint32_t>(item.id & 0xffffffffULL),
                cur);

            // GENERATE: fire every enabled rule into the batch, in
            // ascending rule order, evaluating only the guards of
            // cur's candidates.
            bool stopped = false;
            std::size_t batchN = 0;
            const std::size_t evals = index.forEachEnabled(
                comp, cur, cand.data(), [&](std::size_t r) {
                    if (stop.load(std::memory_order_relaxed)) {
                        stopped = true;
                        return false;
                    }
                    if (batchN == batchBuf.size()) {
                        batchBuf.emplace_back();
                        batchRule.push_back(0);
                        batchHash.push_back(0);
                    }
                    VState &nx = batchBuf[batchN];
                    nx = cur;
                    comp.effect(r, nx);
                    if (ts.canonicalize(nx))
                        ++identityHitsL;
                    batchRule[batchN] = static_cast<std::uint32_t>(r);
                    batchHash[batchN] = hashState(nx.data());
                    ++transitionsL;
                    ++ruleFiresL[r];
                    ++batchN;
                    return true;
                });
            guardEvalsL += evals;
            guardSkippedL += R - evals;
            if (detect_deadlock && batchN == 0 && !stopped)
                report_deadlock(cur);

            // PROCESS: shard-group the successors (stable sort keeps
            // rule order within a group, so trace links and local ids
            // stay aligned), then one canonicalize+intern pass per
            // group under its shard lock, publishing to the frontier
            // once at the end.
            order.resize(batchN);
            for (std::size_t i = 0; i < batchN; ++i)
                order[i] = static_cast<std::uint32_t>(i);
            std::stable_sort(
                order.begin(), order.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                    return (batchHash[a] & (kShardCount - 1)) <
                           (batchHash[b] & (kShardCount - 1));
                });
            pushList.clear();
            bool limitHit = false;
            std::size_t gi = 0;
            while (gi < batchN && !limitHit) {
                const std::size_t sh =
                    batchHash[order[gi]] & (kShardCount - 1);
                std::size_t ge = gi;
                while (ge < batchN &&
                       (batchHash[order[ge]] & (kShardCount - 1)) ==
                           sh)
                    ++ge;
                const std::size_t groupSize = ge - gi;
                ids.resize(groupSize);
                std::size_t processed = groupSize;
                std::int64_t freshCount = 0;
                std::uint64_t grewBy;
                {
                    std::lock_guard<std::mutex> g(shards[sh].mu);
                    StateStore &store = *shards[sh].store;
                    const std::uint64_t before = store.memoryBytes();
                    const bool tracing =
                        traceOn.load(std::memory_order_relaxed);
                    if (takeTokens(static_cast<std::int64_t>(
                            groupSize))) {
                        // Fast path: the whole group is admitted up
                        // front, so intern it blind (no lookups) and
                        // return the tokens duplicates didn't use.
                        for (std::size_t k = 0; k < groupSize; ++k) {
                            const std::uint32_t bi = order[gi + k];
                            ids[k] = store.internHashed(
                                batchBuf[bi].data(), batchHash[bi]);
                            if (!ids[k].second)
                                continue;
                            ++freshCount;
                            if (tracing) {
                                shards[sh].parents.push_back(item.id);
                                shards[sh].ruleOf.push_back(
                                    batchRule[bi]);
                                shards[sh].depthOf.push_back(
                                    item.depth + 1);
                            }
                        }
                        returnTokens(
                            static_cast<std::int64_t>(groupSize) -
                            freshCount);
                    } else {
                        // Near the bound: probe first so duplicates
                        // never consume tokens, and admit fresh
                        // states one token at a time until the budget
                        // is truly dry.
                        for (std::size_t k = 0; k < groupSize; ++k) {
                            const std::uint32_t bi = order[gi + k];
                            const std::uint32_t found =
                                store.lookupHashed(batchBuf[bi].data(),
                                                   batchHash[bi]);
                            if (found != StateStore::kNoId) {
                                ids[k] = {found, false};
                                continue;
                            }
                            bool admitted = false;
                            for (;;) {
                                if (takeTokens(1)) {
                                    admitted = true;
                                    break;
                                }
                                if (statesTotal.load(
                                        std::memory_order_relaxed) >=
                                    limits.maxStates)
                                    break; // dry, not just held
                                std::this_thread::yield();
                            }
                            if (!admitted) {
                                processed = k;
                                limitHit = true;
                                break;
                            }
                            ids[k] = store.internHashed(
                                batchBuf[bi].data(), batchHash[bi]);
                            if (ids[k].second) {
                                // Publish immediately, NOT via the
                                // deferred freshCount flush: the next
                                // spin in this very loop must be able
                                // to observe this admission, or a
                                // worker holding the last token as an
                                // unflushed count would wait on
                                // itself forever.
                                statesTotal.fetch_add(
                                    1, std::memory_order_relaxed);
                                if (tracing) {
                                    shards[sh].parents.push_back(
                                        item.id);
                                    shards[sh].ruleOf.push_back(
                                        batchRule[bi]);
                                    shards[sh].depthOf.push_back(
                                        item.depth + 1);
                                }
                            } else {
                                // An in-batch duplicate the probe
                                // missed is impossible (the probe
                                // sees earlier interns), but a dup
                                // would hand its token back here.
                                returnTokens(1);
                            }
                        }
                    }
                    // Fast-path flush, inside the critical section so
                    // the budget invariant (tokens consumed <=>
                    // statesTotal advanced) is restored before the
                    // lock drops. A fast-path holder never spins, so
                    // deferring its flush cannot deadlock a slow-path
                    // spinner — it only makes the spinner wait for
                    // this store pass to finish.
                    if (freshCount != 0)
                        statesTotal.fetch_add(
                            static_cast<std::uint64_t>(freshCount),
                            std::memory_order_relaxed);
                    grewBy = store.memoryBytes() - before;
                }
                if (grewBy != 0)
                    storeBytes.fetch_add(grewBy,
                                         std::memory_order_relaxed);
                for (std::size_t k = 0; k < processed; ++k) {
                    if (!ids[k].second)
                        continue;
                    const std::uint32_t bi = order[gi + k];
                    const VState &nx = batchBuf[bi];
                    const std::uint64_t nid = packId(sh, ids[k].first);
                    if (on_state) {
                        std::lock_guard<std::mutex> g(cbMu);
                        on_state(nx);
                    }
                    if (const int inv = failing_invariant(nx, invChecksL);
                        inv >= 0) {
                        report_violation(inv, nx, nid,
                                         item.depth + 1);
                        continue; // bad states are not expanded
                    }
                    pushList.push_back(WorkItem{nid, item.depth + 1});
                }
                gi = ge;
            }
            if (limitHit) {
                // Interned successors above are already counted and
                // checked; nothing new gets expanded past the bound.
                report_limit();
                inFlight.fetch_sub(1, std::memory_order_release);
                break;
            }
            // Publish once: count the new work in before any of it
            // becomes poppable so in-flight never transiently reads
            // zero while items exist.
            if (!pushList.empty()) {
                inFlight.fetch_add(pushList.size(),
                                   std::memory_order_relaxed);
                for (const WorkItem &w : pushList)
                    queues[wid].push(w);
            }
            inFlight.fetch_sub(1, std::memory_order_release);
        }
        flushCounters();
        alive.fetch_sub(1, std::memory_order_acq_rel);
    };

    std::vector<std::thread> threads;
    threads.reserve(nthreads);
    for (unsigned w = 0; w < nthreads; ++w)
        threads.emplace_back(worker, w);
    for (auto &t : threads)
        t.join();

    // Interrupt racing the fixpoint: if the signal arrived but a
    // worker had already drained the frontier, the run completed —
    // termStatus stays whatever the workers decided.
    if (ckptActive && interruptRequested() &&
        termStatus == VerifStatus::Interrupted &&
        result.checkpointsWritten == 0) {
        // The coordinator marked us interrupted but never wrote (all
        // other workers exited first); flush one final snapshot now
        // that every thread has joined.
        write_snapshot();
    }

    result.ruleFires.assign(rules.size(), 0);
    for (std::size_t r = 0; r < rules.size(); ++r)
        result.ruleFires[r] =
            ruleFires[r].load(std::memory_order_relaxed);
    result.transitionsFired =
        transitionsTotal.load(std::memory_order_relaxed);
    result.invariantChecks =
        invChecksTotal.load(std::memory_order_relaxed);
    result.guardEvals =
        guardEvalsTotal.load(std::memory_order_relaxed);
    result.guardEvalsSkipped =
        guardSkippedTotal.load(std::memory_order_relaxed);
    result.canonIdentityHits =
        identityHitsTotal.load(std::memory_order_relaxed);
    std::uint64_t visited = 0;
    for (const Shard &s : shards)
        visited += s.store->size();
    result.statesExplored = visited;
    result.memoryBytes = estimate_memory();
    result.degradedTrace = degradedTrace;

    result.status = termStatus;
    if (termStatus == VerifStatus::InvariantViolated) {
        result.violatedInvariant = invs[vioInv].name;
        result.badState = ts.describe(vioState);
        if (keep_trace && !degradedTrace) {
            std::vector<std::string> names;
            std::uint64_t id = vioId;
            for (;;) {
                const Shard &sh = shards[id >> 32];
                const auto local =
                    static_cast<std::size_t>(id & 0xffffffffULL);
                if (sh.depthOf[local] == 0)
                    break;
                names.push_back(rules[sh.ruleOf[local]].name);
                id = sh.parents[local];
            }
            std::reverse(names.begin(), names.end());
            result.trace = std::move(names);
        }
    } else if (termStatus == VerifStatus::Deadlock) {
        result.badState = ts.describe(deadState);
    }

    // Completed runs (verified or with a definitive verdict) leave no
    // stale snapshot behind; interrupted and bound-exceeded runs keep
    // theirs for --resume.
    if (ckptActive && (termStatus == VerifStatus::Verified ||
                       termStatus == VerifStatus::InvariantViolated ||
                       termStatus == VerifStatus::Deadlock))
        removeSnapshot(ckptPath);

    result.seconds = elapsed();
    return result;
}

} // namespace neo
