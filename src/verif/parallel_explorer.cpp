#include "parallel_explorer.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

#include "verif/checkpoint.hpp"
#include "verif/state_store.hpp"

namespace neo
{

namespace
{

/** Successor records per handoff batch. */
constexpr std::size_t kBatchRecords = 64;

/** Partitions per worker. One worker at a time serves a partition,
 *  so with more partitions than workers a worker that falls behind
 *  (a slow or shared CPU) leaves the others partitions to serve
 *  instead of holding back a fixed share of the state space. */
constexpr unsigned kPartitionsPerWorker = 4;

/** Expansions a worker makes in one leased partition before it lets
 *  the partition go and looks for the next. */
constexpr std::size_t kQuantum = 256;

/** No partition: the worker holds no lease. */
constexpr unsigned kNoPartition = ~0u;

/** One successor on its way to the partition that owns it. */
struct Succ
{
    std::uint64_t parent; ///< packed (partition, local id) of the predecessor
    std::uint64_t hash;
    std::uint32_t rule;
    std::uint32_t depth;
};

/** Up to kBatchRecords successors from one worker to one partition;
 *  the state bytes lie stride apart in `bytes`. The worker that
 *  interns it hands the emptied batch back to its sender for reuse. */
struct Batch
{
    Batch(unsigned from, std::size_t stride)
        : sender(from), bytes(kBatchRecords * stride)
    {
    }

    unsigned sender;
    std::uint32_t n = 0;
    std::array<Succ, kBatchRecords> recs;
    std::vector<std::uint8_t> bytes;
};

/** A frontier entry: the partition's local id and its BFS depth. */
struct Item
{
    std::uint32_t id;
    std::uint32_t depth;
};

/** A predecessor link; its parent is a packed (partition, local) id. */
using Link = ExploreSnapshot::Link;

/**
 * One slice of the state space: the states whose hash maps to it,
 * their predecessor links (keep_trace only; indexed by local id) and
 * its FIFO frontier. Only the worker holding the lease touches these,
 * except at a quiescent rendezvous and after the join. The lease and
 * the inbox, which other workers touch, sit on their own cache line.
 */
struct alignas(64) Partition
{
    std::unique_ptr<StateStore> store;
    std::vector<Link> links;
    std::vector<Item> frontier;
    std::size_t head = 0;
    /** Footprint last added to the shared estimate. */
    std::uint64_t published = 0;

    /** Taken (acquire) by the worker that serves the partition and
     *  released (release) when it lets go, so the next holder sees
     *  the store and frontier as the last one left them. */
    alignas(64) std::atomic<bool> leased{false};
    /** The frontier was non-empty when the lease was last released;
     *  a hint read without the lease. */
    std::atomic<bool> queued{false};
    std::mutex mu;
    std::vector<Batch *> inbox; ///< full batches for this partition
    /** inbox is non-empty; a hint read without mu. */
    std::atomic<bool> mail{false};
};

/** What one worker thread owns: the batch it fills for each partition
 *  and the batches it allocated. The block at the end is what the
 *  workers that intern its batches write, on its own cache line. */
struct alignas(64) Worker
{
    /** The batch being filled for each partition (nullptr: none yet). */
    std::vector<Batch *> out;
    /** Emptied batches ready for reuse. */
    std::vector<Batch *> spare;
    /** Every batch this worker allocated; they live for the run. */
    std::vector<std::unique_ptr<Batch>> batches;

    alignas(64) std::mutex mu;
    std::vector<Batch *> returned; ///< this worker's emptied batches
};

inline std::uint64_t
packId(unsigned part, std::uint32_t local)
{
    return (static_cast<std::uint64_t>(part) << 32) | local;
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
    const unsigned nparts = nthreads * kPartitionsPerWorker;
    const std::size_t numVars = ts.numVars();
    const std::size_t stride = numVars == 0 ? 1 : numVars;

    ExploreResult result;
    const auto &rules = ts.rules();
    const auto &invs = ts.invariants();
    // Flat guard/effect tables and the candidate table, built once
    // and shared read-only by every worker.
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

    // The test-only hash override (ExploreLimits::hash) picks
    // partitions and fingerprints alike; the null branch keeps stateHash inlined
    // on the default path.
    const StateStore::HashFn hashOverride = limits.hash;
    auto hashState = [hashOverride, numVars](const std::uint8_t *p) {
        return hashOverride != nullptr ? hashOverride(p, numVars)
                                       : stateHash(p, numVars);
    };
    auto partOf = [nparts](std::uint64_t h) {
        return static_cast<unsigned>(h % nparts);
    };

    const std::uint64_t presize = explorePresizeHint(limits);
    std::vector<Partition> parts(nparts);
    for (Partition &p : parts)
        p.store = std::make_unique<StateStore>(
            numVars, presize / nparts, limits.hash);
    std::vector<Worker> workers(nthreads);
    for (unsigned w = 0; w < nthreads; ++w) {
        workers[w].out.assign(nparts, nullptr);
        // One batch up front: a run that generates one successor at a
        // time then allocates no other, so its footprint does not
        // depend on which workers happen to take part.
        workers[w].batches.push_back(std::make_unique<Batch>(w, stride));
        workers[w].spare.push_back(workers[w].batches.back().get());
    }

    // The shared atomics the hot path touches each sit on a cache line
    // of their own: the counters written once per batch must not
    // evict the flags read once per firing or per expansion.
    alignas(64) std::atomic<std::uint64_t> statesTotal{0};
    /** statesTotal has reached maxStates: the per-expansion bound
     *  check reads this flag, written once, not the counter. */
    alignas(64) std::atomic<bool> atLimit{false};
    // Firing and invariant counters: each worker counts in locals and
    // flushes them here before every checkpoint snapshot and at exit.
    std::atomic<std::uint64_t> transitionsTotal{0};
    std::atomic<std::uint64_t> invChecksTotal{0};
    std::atomic<std::uint64_t> guardEvalsTotal{0};
    std::atomic<std::uint64_t> guardSkippedTotal{0};
    std::atomic<std::uint64_t> identityHitsTotal{0};
    std::vector<std::atomic<std::uint64_t>> ruleFires(rules.size());
    /** Sum of the partitions' published store + frontier footprints,
     *  updated at each release and, under a memory bound, once per
     *  interned batch, so the bound reads one atomic. */
    alignas(64) std::atomic<std::uint64_t> footprint{0};
    std::atomic<std::uint64_t> batchesLive{nthreads};
    /** Active workers plus batches in transit; 0 is the fixpoint. A
     *  sender counts a batch before any worker can see it, and only an
     *  active worker interns and uncounts it. A worker counts itself
     *  before it takes a lease, and goes idle only after a scan that
     *  found no unleased partition with work, so the count cannot
     *  touch 0 while work exists anywhere (DESIGN.md "Parallel
     *  exploration"). */
    alignas(64) std::atomic<std::uint64_t> pending{nthreads};
    alignas(64) std::atomic<bool> stop{false};
    /** Runtime keep_trace; cleared when memory pressure sheds the
     *  predecessor links mid-run. */
    alignas(64) std::atomic<bool> traceOn{keep_trace};
    bool degradedTrace = false; // mutated only at safe points

    // Checkpoint rendezvous: worker 0 (the coordinator) raises
    // pauseRequested. Every worker then lets go of its lease, flushes
    // its partial batches and counts itself in `flushed`; once all
    // have, nothing is sent any more, so the workers intern every
    // inbox once and park. The stores, frontiers and counters then
    // form a consistent cut with no batch in transit.
    alignas(64) std::atomic<bool> pauseRequested{false};
    alignas(64) std::atomic<unsigned> flushed{0};
    std::atomic<unsigned> pausedCount{0};
    std::atomic<unsigned> alive{nthreads};

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

    // Same accounting as the sequential explorer: the measured stores,
    // the flat predecessor arrays, the frontiers, the batch buffers,
    // the worker structures and — when checkpointing — the snapshot
    // serialization buffer, so the bound holds on the robust path too.
    const std::uint64_t perFrontier =
        sizeof(Item) + (ckptActive ? numVars + 12 : 0);
    const std::uint64_t batchBytes =
        sizeof(Batch) + kBatchRecords * stride;
    auto estimate_memory = [&]() -> std::uint64_t {
        const bool tracing = traceOn.load(std::memory_order_relaxed);
        const std::uint64_t per_trace = tracing ? 16 : 0;
        const std::uint64_t per_ckpt_state =
            ckptActive ? numVars + per_trace : 0;
        return footprint.load(std::memory_order_relaxed) +
               statesTotal.load(std::memory_order_relaxed) *
                   (per_trace + per_ckpt_state) +
               batchesLive.load(std::memory_order_relaxed) *
                   batchBytes +
               nparts * sizeof(Partition) + nthreads * sizeof(Worker);
    };
    auto publish = [&](Partition &p) {
        const std::uint64_t now =
            p.store->memoryBytes() +
            (p.frontier.size() - p.head) * perFrontier;
        if (now != p.published)
            footprint.fetch_add(now - p.published,
                                std::memory_order_relaxed);
        p.published = now;
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
    // layout: states partition-major in local-insertion order, packed
    // ids remapped onto dense indices, streamed straight out of the
    // arenas. Caller guarantees quiescence.
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

        std::vector<std::uint64_t> prefix(nparts);
        std::uint64_t total = 0;
        for (unsigned q = 0; q < nparts; ++q) {
            prefix[q] = total;
            total += parts[q].store->size();
        }
        meta.numStates = total;
        auto dense = [&](std::uint64_t packed) {
            return prefix[packed >> 32] + (packed & 0xffffffffULL);
        };
        auto partOfDense = [&](std::uint64_t denseId) {
            unsigned q = nparts - 1;
            while (prefix[q] > denseId)
                --q;
            return q;
        };

        auto linkAt = [&](std::uint64_t i) {
            const unsigned q = partOfDense(i);
            const auto local = static_cast<std::size_t>(i - prefix[q]);
            const Link &l = parts[q].links[local];
            return Link{l.depth == 0 ? 0 : dense(l.parent), l.rule,
                        l.depth};
        };

        std::vector<std::pair<std::uint64_t, std::uint32_t>> frontier;
        for (unsigned q = 0; q < nparts; ++q) {
            const Partition &p = parts[q];
            for (std::size_t k = p.head; k < p.frontier.size(); ++k)
                frontier.emplace_back(prefix[q] + p.frontier[k].id,
                                      p.frontier[k].depth);
        }
        const std::vector<std::uint8_t> payload =
            encodeExploreSnapshotStreamed(
                meta, numVars,
                [&](std::uint64_t i) {
                    const unsigned q = partOfDense(i);
                    return parts[q].store->at(
                        static_cast<std::uint32_t>(i - prefix[q]));
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
        // Pass 1 (onState): each state goes to the partition its
        // hash names under this run's worker count, in file order, so
        // every partition's local ids follow the dense order. Pass 2
        // (onLink): predecessor links, parents remapped to packed
        // ids (a parent may sit in any partition, hence the separate
        // pass — the codec streams links only after every state).
        std::vector<std::uint64_t> denseToPacked;
        bool tracing = false;
        VState scratch;
        auto beginStates = [&](std::uint64_t nStates) {
            tracing = keep_trace && meta.hasLinks;
            denseToPacked.resize(static_cast<std::size_t>(nStates));
            for (Partition &p : parts)
                p.store->reserve(nStates / nparts);
        };
        auto onLink = [&](std::uint64_t id, const Link &l) {
            if (!tracing)
                return;
            const std::uint64_t packed =
                denseToPacked[static_cast<std::size_t>(id)];
            parts[packed >> 32].links.push_back(Link{
                denseToPacked[static_cast<std::size_t>(l.parent)], l.rule,
                l.depth});
        };
        auto onFrontier = [&](std::uint64_t id, std::uint32_t depth,
                              const std::uint8_t *) {
            const std::uint64_t packed =
                denseToPacked[static_cast<std::size_t>(id)];
            parts[packed >> 32].frontier.push_back(Item{
                static_cast<std::uint32_t>(packed & 0xffffffffULL),
                depth});
        };
        const bool okDecode = decodeExploreSnapshotStreamed(
            payload, numVars, rules.size(), meta, beginStates,
            [&](std::uint64_t id, const std::uint8_t *state) {
                const std::uint64_t h = hashState(state);
                const unsigned q = partOf(h);
                const std::uint32_t local =
                    parts[q].store->internHashed(state, h).first;
                denseToPacked[static_cast<std::size_t>(id)] =
                    packId(q, local);
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
        const std::uint64_t h = hashState(init.data());
        Partition &p = parts[partOf(h)];
        p.store->internHashed(init.data(), h);
        if (keep_trace)
            p.links.push_back(Link{});
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
        p.frontier.push_back(Item{0, 0});
    }
    for (Partition &p : parts) {
        p.queued.store(p.head < p.frontier.size(),
                       std::memory_order_relaxed);
        publish(p);
    }

    // maxStates token budget: interning a FRESH state consumes a
    // token, so the bound holds exactly even though a worker interns
    // a whole batch at once. A batch reserves its size all or
    // nothing (no partial takes, so the balance never dips to zero
    // while work is still admissible) and returns what duplicates did
    // not use. The invariant
    //   statesTotal + tokens + (tokens held by batches being interned)
    //     == maxStates
    // lets an exhausted taker tell "genuinely at the bound"
    // (statesTotal == maxStates) from "transiently held": a holder
    // interns into the partition it leases and returns the surplus
    // without waiting on anything, so waiting for it always
    // terminates.
    alignas(64) std::atomic<std::int64_t> tokens{
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
    auto countStates = [&](std::uint64_t n) {
        if (statesTotal.fetch_add(n, std::memory_order_relaxed) + n >=
            limits.maxStates)
            atLimit.store(true, std::memory_order_relaxed);
    };
    if (statesTotal.load(std::memory_order_relaxed) >= limits.maxStates)
        atLimit.store(true, std::memory_order_relaxed);

    // Coordinator-only state (worker 0 is the only writer).
    double lastCkptSeconds = elapsed();
    bool nearLimitSnapshotDone = false;

    // Decide/execute a checkpoint rendezvous; runs on worker 0 at the
    // top of its loop, while it expands nothing. @p quiesceOwn is
    // worker 0's own flush-and-drain step (false: a stop beat it).
    auto coordinate = [&](auto &&quiesceOwn) {
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
        bool ok = quiesceOwn();
        while (ok && pausedCount.load(std::memory_order_acquire) + 1 <
                         alive.load(std::memory_order_acquire)) {
            if (stop.load(std::memory_order_relaxed))
                ok = false; // a violation/limit beat us; nothing to save
            std::this_thread::yield();
        }
        // A worker that ran the budget dry mid-batch exits instead of
        // parking, and its batch is only partly interned: the cut is
        // not consistent, so it must not be saved.
        if (stop.load(std::memory_order_acquire))
            ok = false;
        if (ok) {
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
                    // Shed the predecessor links — exact counts
                    // survive, traces don't — and keep exploring.
                    for (Partition &p : parts)
                        std::vector<Link>().swap(p.links);
                    traceOn.store(false, std::memory_order_relaxed);
                    degradedTrace = true;
                    mem = estimate_memory();
                }
                if (mem > limits.maxMemoryBytes)
                    report_limit();
            }
        }
        // Every other worker is parked or stopping: reset the flush
        // count for the next rendezvous, release them, and wait until
        // all have left so none is still parked when it starts.
        flushed.store(0, std::memory_order_relaxed);
        pauseRequested.store(false, std::memory_order_release);
        while (pausedCount.load(std::memory_order_acquire) != 0)
            std::this_thread::yield();
    };

    auto worker = [&](unsigned wid) {
        Worker &me = workers[wid];
        // Counted in `pending` from the start; cleared while idle.
        bool active = true;
        // The partition this worker leases, or kNoPartition.
        unsigned held = kNoPartition;
        // Where the next scan for a partition starts: the workers
        // start spread apart and each moves past what it served.
        unsigned cursor = wid * kPartitionsPerWorker;
        VState cur;
        VState nx;  // successor being generated
        VState chk; // fresh state under the invariants and on_state
        std::vector<std::uint64_t> cand(index.ruleWords());
        std::vector<Batch *> taken;
        std::vector<std::pair<std::uint32_t, std::uint32_t>> admitted;
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
            auto add = [](std::atomic<std::uint64_t> &to,
                          std::uint64_t &from) {
                if (from != 0)
                    to.fetch_add(from, std::memory_order_relaxed);
                from = 0;
            };
            add(transitionsTotal, transitionsL);
            add(invChecksTotal, invChecksL);
            for (std::size_t r = 0; r < R; ++r)
                add(ruleFires[r], ruleFiresL[r]);
            add(guardEvalsTotal, guardEvalsL);
            add(guardSkippedTotal, guardSkippedL);
            add(identityHitsTotal, identityHitsL);
        };

        // Intern @p b into partition @p pid, which this worker
        // leases, then record, check and enqueue its fresh states.
        // False: the maxStates budget ran dry (the caller reports the
        // limit).
        auto internBatch = [&](unsigned pid, const Batch &b) -> bool {
            Partition &p = parts[pid];
            auto bytesOf = [&](std::uint32_t k) {
                return b.bytes.data() + std::size_t{k} * stride;
            };
            admitted.clear();
            bool dry = false;
            const auto n = static_cast<std::int64_t>(b.n);
            for (std::uint32_t k = 0; k < b.n; ++k)
                p.store->prefetchSlot(b.recs[k].hash);
            for (std::uint32_t k = 0; k < b.n; ++k)
                p.store->prefetchCandidate(b.recs[k].hash);
            if (takeTokens(n)) {
                // The whole batch is admitted up front: intern it
                // blind and return the tokens duplicates didn't use.
                for (std::uint32_t k = 0; k < b.n; ++k) {
                    const auto [id, isNew] = p.store->internHashed(
                        bytesOf(k), b.recs[k].hash);
                    if (isNew)
                        admitted.emplace_back(k, id);
                }
                if (!admitted.empty())
                    countStates(admitted.size());
                returnTokens(n -
                             static_cast<std::int64_t>(admitted.size()));
            } else {
                // Near the bound: probe first so duplicates never
                // consume tokens, and admit fresh states one token at
                // a time until the budget is truly dry. Each
                // admission is published at once, so no worker ever
                // waits on a count it holds itself.
                for (std::uint32_t k = 0; k < b.n && !dry; ++k) {
                    const std::uint8_t *s = bytesOf(k);
                    if (p.store->lookupHashed(s, b.recs[k].hash) !=
                        StateStore::kNoId)
                        continue;
                    while (!takeTokens(1)) {
                        if (statesTotal.load(std::memory_order_relaxed) >=
                            limits.maxStates) {
                            dry = true; // dry, not just held
                            break;
                        }
                        std::this_thread::yield();
                    }
                    if (dry)
                        break;
                    admitted.emplace_back(
                        k, p.store->internHashed(s, b.recs[k].hash)
                               .first);
                    countStates(1);
                }
            }
            const bool tracing = traceOn.load(std::memory_order_relaxed);
            for (const auto &[k, id] : admitted) {
                const Succ &rec = b.recs[k];
                if (tracing)
                    p.links.push_back(
                        Link{rec.parent, rec.rule, rec.depth});
                chk.assign(bytesOf(k), bytesOf(k) + numVars);
                if (on_state) {
                    std::lock_guard<std::mutex> g(cbMu);
                    on_state(chk);
                }
                if (const int inv = failing_invariant(chk, invChecksL);
                    inv >= 0) {
                    report_violation(inv, chk, packId(pid, id),
                                     rec.depth);
                    continue; // bad states are not expanded
                }
                p.frontier.push_back(Item{id, rec.depth});
            }
            // Only a memory bound reads the estimate mid-quantum;
            // otherwise the release publishes it.
            if (limits.maxMemoryBytes != 0)
                publish(p);
            return !dry;
        };

        auto acquireBatch = [&]() -> Batch * {
            if (me.spare.empty()) {
                std::lock_guard<std::mutex> g(me.mu);
                me.spare.swap(me.returned);
            }
            if (!me.spare.empty()) {
                Batch *b = me.spare.back();
                me.spare.pop_back();
                return b;
            }
            me.batches.push_back(std::make_unique<Batch>(wid, stride));
            batchesLive.fetch_add(1, std::memory_order_relaxed);
            return me.batches.back().get();
        };

        // Hand the batch for partition @p to over: interned in place
        // when this worker leases it, else into the partition's inbox
        // with one lock acquisition. Either way the slot is left
        // empty. False: the budget ran dry.
        auto send = [&](unsigned to) -> bool {
            Batch *b = me.out[to];
            me.out[to] = nullptr;
            if (to == held) {
                const bool ok = internBatch(to, *b);
                b->n = 0;
                me.spare.push_back(b);
                return ok;
            }
            // Counted before any worker can see it (see `pending`).
            pending.fetch_add(1);
            Partition &dst = parts[to];
            std::lock_guard<std::mutex> g(dst.mu);
            dst.inbox.push_back(b);
            dst.mail.store(true, std::memory_order_relaxed);
            return true;
        };

        // Intern every batch waiting in the inbox of partition @p pid,
        // which this active worker leases, and return each to its
        // sender. They stay counted in `pending` until all are
        // interned.
        auto drainInbox = [&](unsigned pid) -> bool {
            Partition &p = parts[pid];
            if (!p.mail.load(std::memory_order_relaxed))
                return true;
            {
                std::lock_guard<std::mutex> g(p.mu);
                taken.swap(p.inbox);
                p.mail.store(false, std::memory_order_relaxed);
            }
            bool ok = true;
            for (Batch *b : taken) {
                ok = ok && internBatch(pid, *b);
                b->n = 0;
                Worker &from = workers[b->sender];
                std::lock_guard<std::mutex> g(from.mu);
                from.returned.push_back(b);
            }
            pending.fetch_sub(taken.size());
            taken.clear();
            return ok;
        };

        // Lease a free partition that has mail or frontier left,
        // scanning from `cursor`; kNoPartition when there is none.
        // Only an active worker leases (see `pending`). The exchange
        // acquires what the last holder released.
        auto lease = [&]() -> unsigned {
            for (unsigned k = 0; k < nparts; ++k) {
                const unsigned pid = (cursor + k) % nparts;
                Partition &p = parts[pid];
                if (!p.mail.load(std::memory_order_relaxed) &&
                    !p.queued.load(std::memory_order_relaxed))
                    continue;
                if (p.leased.load(std::memory_order_relaxed) ||
                    p.leased.exchange(true))
                    continue;
                if (p.head < p.frontier.size() ||
                    p.mail.load(std::memory_order_relaxed)) {
                    cursor = pid + 1;
                    return pid;
                }
                p.leased.store(false, std::memory_order_release);
            }
            return kNoPartition;
        };
        auto release = [&](unsigned pid) {
            Partition &p = parts[pid];
            publish(p);
            p.queued.store(p.head < p.frontier.size(),
                           std::memory_order_relaxed);
            p.leased.store(false, std::memory_order_release);
        };
        // Hand over every partial batch: interned in place when its
        // partition is free to lease, else sent to its inbox. Sets
        // @p moved if there was any; the caller must then scan again
        // before it goes idle, since a partition it released may
        // have queued states. False: the budget ran dry.
        auto flushOut = [&](bool &moved) -> bool {
            for (unsigned to = 0; to < nparts; ++to) {
                if (me.out[to] == nullptr || me.out[to]->n == 0)
                    continue;
                moved = true;
                Partition &p = parts[to];
                if (p.leased.load(std::memory_order_relaxed) ||
                    p.leased.exchange(true)) {
                    if (!send(to))
                        return false;
                    continue;
                }
                held = to;
                const bool ok = send(to);
                held = kNoPartition;
                release(to);
                if (!ok)
                    return false;
            }
            return true;
        };
        // A free partition has mail or frontier left: a hint for an
        // idle worker, read without any lease.
        auto workInSight = [&]() {
            for (const Partition &p : parts) {
                if ((p.mail.load(std::memory_order_relaxed) ||
                     p.queued.load(std::memory_order_relaxed)) &&
                    !p.leased.load(std::memory_order_relaxed))
                    return true;
            }
            return false;
        };

        // Rendezvous, worker side: stop sending, then intern whatever
        // is still in transit once every live worker has flushed.
        // False: a stop cut it short.
        auto quiesce = [&]() -> bool {
            // Interning may queue states: count this worker first.
            if (!active) {
                pending.fetch_add(1);
                active = true;
            }
            bool moved = false;
            if (!flushOut(moved)) {
                report_limit();
                return false;
            }
            flushed.fetch_add(1, std::memory_order_acq_rel);
            while (flushed.load(std::memory_order_acquire) <
                   alive.load(std::memory_order_acquire)) {
                if (stop.load(std::memory_order_relaxed))
                    return false;
                std::this_thread::yield();
            }
            // No batch arrives any more. A partition another worker
            // leases now is that worker's to drain.
            bool ok = true;
            for (unsigned pid = 0; pid < nparts && ok; ++pid) {
                Partition &p = parts[pid];
                if (!p.mail.load(std::memory_order_relaxed) ||
                    p.leased.exchange(true))
                    continue;
                ok = drainInbox(pid);
                release(pid);
            }
            if (!ok) {
                report_limit();
                return false;
            }
            flushCounters();
            return true;
        };

        // GENERATE for one state of partition @p pid: fire every
        // enabled rule in ascending order, evaluating only the guards
        // of cur's candidates, and route each canonical successor
        // into the batch for its partition.
        auto expand = [&](unsigned pid, const Item &item) {
            parts[pid].store->copyTo(item.id, cur);
            const std::uint64_t parent = packId(pid, item.id);
            bool stopped = false;
            std::size_t fired = 0;
            const std::size_t evals = index.forEachEnabled(
                comp, cur, cand.data(), [&](std::size_t r) {
                    if (stop.load(std::memory_order_relaxed)) {
                        stopped = true;
                        return false;
                    }
                    nx = cur;
                    comp.effect(r, nx);
                    if (ts.canonicalize(nx))
                        ++identityHitsL;
                    ++transitionsL;
                    ++ruleFiresL[r];
                    ++fired;
                    const std::uint64_t h = hashState(nx.data());
                    const unsigned to = partOf(h);
                    if (me.out[to] == nullptr)
                        me.out[to] = acquireBatch();
                    Batch &b = *me.out[to];
                    b.recs[b.n] = Succ{parent, h,
                                       static_cast<std::uint32_t>(r),
                                       item.depth + 1};
                    std::memcpy(b.bytes.data() + std::size_t{b.n} * stride,
                                nx.data(), numVars);
                    if (++b.n == kBatchRecords && !send(to)) {
                        report_limit();
                        stopped = true;
                        return false;
                    }
                    return true;
                });
            guardEvalsL += evals;
            guardSkippedL += R - evals;
            if (detect_deadlock && fired == 0 && !stopped)
                report_deadlock(cur);
        };

        // Serve leased partition @p pid for one quantum: intern its
        // mail, then expand up to kQuantum of its states, interning
        // in place what they generate for it whenever its frontier
        // runs dry. A bound hit is reported and raises `stop`.
        auto serve = [&](unsigned pid) {
            Partition &p = parts[pid];
            held = pid;
            bool ok = drainInbox(pid);
            for (std::size_t n = 0; ok && n < kQuantum; ++n) {
                if (p.head == p.frontier.size()) {
                    if (me.out[pid] != nullptr && me.out[pid]->n != 0)
                        ok = send(pid);
                    ok = ok && drainInbox(pid);
                    if (!ok || p.head == p.frontier.size())
                        break;
                }
                if (stop.load(std::memory_order_relaxed))
                    break;
                // Cooperative bound check, once per expansion like
                // the sequential loop's check per pop. With
                // checkpointing on, the memory bound is the
                // coordinator's job (it must snapshot and degrade
                // before declaring defeat).
                if (atLimit.load(std::memory_order_relaxed) ||
                    elapsed() > limits.maxSeconds ||
                    (!ckptActive && limits.maxMemoryBytes != 0 &&
                     estimate_memory() > limits.maxMemoryBytes)) {
                    ok = false;
                    break;
                }
                const Item item = p.frontier[p.head++];
                if (p.head >= 4096 && p.head * 2 >= p.frontier.size()) {
                    p.frontier.erase(p.frontier.begin(),
                                     p.frontier.begin() +
                                         static_cast<std::ptrdiff_t>(
                                             p.head));
                    p.head = 0;
                }
                expand(pid, item);
            }
            if (!ok)
                report_limit();
            held = kNoPartition;
            release(pid);
        };

        for (;;) {
            if (stop.load(std::memory_order_relaxed))
                break;
            if (wid == 0 && ckptActive) {
                coordinate(quiesce);
                if (stop.load(std::memory_order_relaxed))
                    break;
            } else if (pauseRequested.load(std::memory_order_acquire) &&
                       wid != 0) {
                if (quiesce()) {
                    pausedCount.fetch_add(1, std::memory_order_acq_rel);
                    while (pauseRequested.load(
                               std::memory_order_acquire) &&
                           !stop.load(std::memory_order_relaxed))
                        std::this_thread::yield();
                    pausedCount.fetch_sub(1, std::memory_order_acq_rel);
                }
                continue;
            }
            if (!active) {
                if (!workInSight()) {
                    if (pending.load() == 0)
                        break;
                    std::this_thread::yield();
                    continue;
                }
                pending.fetch_add(1);
                active = true;
            }
            const unsigned pid = lease();
            if (pid != kNoPartition) {
                serve(pid);
                continue;
            }
            // Nothing to serve: hand over every partial batch (each
            // counts in `pending` while in transit), then go idle once
            // a scan after the last hand-over finds nothing either.
            bool moved = false;
            if (!flushOut(moved)) {
                report_limit();
                break;
            }
            if (moved)
                continue;
            active = false;
            pending.fetch_sub(1);
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
        // The rendezvous snapshot was not written; every worker left
        // right after parking, so the stores still hold that cut.
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
    for (const Partition &p : parts)
        visited += p.store->size();
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
                const auto local =
                    static_cast<std::size_t>(id & 0xffffffffULL);
                const Link &l = parts[id >> 32].links[local];
                if (l.depth == 0)
                    break;
                names.push_back(rules[l.rule].name);
                id = l.parent;
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
