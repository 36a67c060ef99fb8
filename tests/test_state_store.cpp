/**
 * @file
 * Unit suite for the arena-interned state store (state_store.hpp):
 * intern idempotence, fingerprint-collision fallback to the byte
 * compare (forced via a degenerate hash, down to whole explorations
 * in both engines still finding their violation), growth across
 * arena-slab boundaries, probe-only lookups, and TSan-clean
 * concurrent interning under the same mutex discipline the parallel
 * explorer uses.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "verif/explorer.hpp"
#include "verif/models/mutants.hpp"
#include "verif/state_store.hpp"

using namespace neo;

namespace
{

/** Little-endian counter state of @p stride bytes for value @p v. */
std::vector<std::uint8_t>
counterState(std::size_t stride, std::uint64_t v)
{
    std::vector<std::uint8_t> s(stride, 0);
    for (std::size_t i = 0; i < stride && i < 8; ++i)
        s[i] = static_cast<std::uint8_t>(v >> (8 * i));
    return s;
}

/** Calls of collidingHash, so a test can tell the hook was used. */
std::atomic<std::uint64_t> collidingHashCalls{0};

/** Degenerate hash: every state collides into one fingerprint AND
 *  one probe-start slot, so dedup correctness rests entirely on the
 *  byte-compare fallback. */
std::uint64_t
collidingHash(const std::uint8_t *, std::size_t)
{
    collidingHashCalls.fetch_add(1, std::memory_order_relaxed);
    return 0x1234567812345678ULL;
}

} // namespace

TEST(StateStore, InternIsIdempotent)
{
    constexpr std::size_t stride = 7;
    StateStore store(stride);
    for (std::uint64_t round = 0; round < 3; ++round) {
        for (std::uint64_t v = 0; v < 500; ++v) {
            const auto s = counterState(stride, v);
            const auto [id, fresh] = store.intern(s.data());
            EXPECT_EQ(id, v) << "ids are dense insertion indices";
            EXPECT_EQ(fresh, round == 0);
        }
    }
    EXPECT_EQ(store.size(), 500u);
    for (std::uint64_t v = 0; v < 500; ++v) {
        const auto s = counterState(stride, v);
        EXPECT_EQ(std::memcmp(
                      store.at(static_cast<std::uint32_t>(v)),
                      s.data(), stride),
                  0);
    }
}

TEST(StateStore, FingerprintCollisionFallsBackToByteCompare)
{
    // With every fingerprint identical, distinct states may only be
    // told apart by the full byte compare; equal states must still
    // dedup and nothing may be conflated.
    constexpr std::size_t stride = 5;
    StateStore store(stride, 0, &collidingHash);
    constexpr std::uint64_t n = 300;
    for (std::uint64_t v = 0; v < n; ++v) {
        const auto s = counterState(stride, v);
        const auto [id, fresh] = store.intern(s.data());
        EXPECT_TRUE(fresh);
        EXPECT_EQ(id, v);
    }
    for (std::uint64_t v = 0; v < n; ++v) {
        const auto s = counterState(stride, v);
        const auto [id, fresh] = store.intern(s.data());
        EXPECT_FALSE(fresh);
        EXPECT_EQ(id, v);
        EXPECT_EQ(std::memcmp(
                      store.at(static_cast<std::uint32_t>(v)),
                      s.data(), stride),
                  0);
    }
    EXPECT_EQ(store.size(), n);
    // Everything landed behind one probe start, so the histogram's
    // far buckets must have absorbed the linear-probe walks.
    std::uint64_t beyondDirect = 0;
    for (std::size_t b = 1; b < StateStore::kProbeBuckets; ++b)
        beyondDirect += store.probeHistogram()[b];
    EXPECT_EQ(beyondDirect, n - 1);
}

TEST(StateStore, GrowthAcrossSlabBoundaries)
{
    // Far more states than the first slab holds: interning must walk
    // across several geometric slabs with at()/copyTo() staying
    // byte-exact for every id ever issued (slabs never move).
    constexpr std::size_t stride = 11;
    StateStore store(stride);
    constexpr std::uint64_t n = 20'000;
    std::vector<const std::uint8_t *> ptrs;
    ptrs.reserve(n);
    for (std::uint64_t v = 0; v < n; ++v) {
        const auto s = counterState(stride, v);
        const auto [id, fresh] = store.intern(s.data());
        ASSERT_TRUE(fresh);
        ASSERT_EQ(id, v);
        ptrs.push_back(store.at(static_cast<std::uint32_t>(v)));
    }
    EXPECT_EQ(store.size(), n);
    VState out;
    for (std::uint64_t v = 0; v < n; ++v) {
        // Pointer stability: the address recorded at intern time is
        // still the state's address after every later growth.
        EXPECT_EQ(store.at(static_cast<std::uint32_t>(v)),
                  ptrs[static_cast<std::size_t>(v)]);
        store.copyTo(static_cast<std::uint32_t>(v), out);
        EXPECT_EQ(out, counterState(stride, v));
    }
    EXPECT_GT(store.memoryBytes(), n * stride);
}

TEST(StateStore, ReserveIsIdempotentAndHonored)
{
    constexpr std::size_t stride = 3;
    StateStore store(stride, 1'000);
    const std::uint64_t cap = store.tableCapacity();
    EXPECT_GT(cap * 3 / 4, 1'000u);
    store.reserve(500); // smaller than current capacity: no-op
    EXPECT_EQ(store.tableCapacity(), cap);
    store.reserve(4'000);
    EXPECT_GT(store.tableCapacity() * 3 / 4, 4'000u);
    for (std::uint64_t v = 0; v < 100; ++v)
        store.intern(counterState(stride, v).data());
    EXPECT_EQ(store.size(), 100u);
}

TEST(StateStore, ConcurrentShardedInterningIsRaceFree)
{
    // The store's concurrency contract: intern under a per-shard
    // mutex, then read the published arena bytes from OTHER threads
    // without that lock (ids handed over through a results mutex).
    // TSan must stay quiet and every state must come back byte-exact.
    constexpr std::size_t stride = 9;
    constexpr std::size_t kShards = 4;
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t perThread = 4'000;

    struct Shard
    {
        std::mutex mu;
        StateStore store{stride};
    };
    std::vector<Shard> shards(kShards);
    std::mutex resultsMu;
    // (shard, id, value) triples published by the interning threads.
    std::vector<std::tuple<std::size_t, std::uint32_t, std::uint64_t>>
        published;

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t]() {
            for (std::uint64_t k = 0; k < perThread; ++k) {
                // Overlapping value ranges across threads, so dedup
                // races on equal states are exercised too.
                const std::uint64_t v = (t * perThread) / 2 + k;
                const auto s = counterState(stride, v);
                const std::uint64_t h = stateHash(s.data(), stride);
                const std::size_t sh =
                    static_cast<std::size_t>(h) % kShards;
                std::uint32_t id;
                bool fresh;
                {
                    std::lock_guard<std::mutex> g(shards[sh].mu);
                    std::tie(id, fresh) =
                        shards[sh].store.internHashed(s.data(), h);
                }
                if (fresh) {
                    std::lock_guard<std::mutex> g(resultsMu);
                    published.emplace_back(sh, id, v);
                }
                // Read someone else's published state WITHOUT the
                // shard lock while interning continues elsewhere.
                // The id handover through resultsMu is the
                // happens-before edge.
                if (k % 16 == 0) {
                    std::tuple<std::size_t, std::uint32_t,
                               std::uint64_t>
                        pick;
                    bool have = false;
                    {
                        std::lock_guard<std::mutex> g(resultsMu);
                        if (!published.empty()) {
                            pick = published[static_cast<std::size_t>(
                                (t + k) % published.size())];
                            have = true;
                        }
                    }
                    if (have) {
                        const auto &[psh, pid, pv] = pick;
                        EXPECT_EQ(
                            std::memcmp(
                                shards[psh].store.at(pid),
                                counterState(stride, pv).data(),
                                stride),
                            0);
                    }
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();

    // Lock-free reads after the handover.
    std::set<std::uint64_t> values;
    for (const auto &[sh, id, v] : published) {
        EXPECT_EQ(std::memcmp(shards[sh].store.at(id),
                              counterState(stride, v).data(), stride),
                  0);
        EXPECT_TRUE(values.insert(v).second)
            << "value " << v << " interned fresh twice";
    }
    std::uint64_t total = 0;
    for (auto &sh : shards)
        total += sh.store.size();
    EXPECT_EQ(total, published.size());
    EXPECT_EQ(total, values.size());
}

TEST(StateStore, LookupHashedProbesWithoutInserting)
{
    const std::size_t stride = 8;
    StateStore store(stride);
    const auto s1 = counterState(stride, 41);
    const auto s2 = counterState(stride, 42);
    const std::uint64_t h1 = stateHash(s1.data(), stride);
    const std::uint64_t h2 = stateHash(s2.data(), stride);

    EXPECT_EQ(store.lookupHashed(s1.data(), h1), StateStore::kNoId);
    EXPECT_EQ(store.size(), 0u) << "lookup must not insert";

    const auto [id1, fresh] = store.internHashed(s1.data(), h1);
    EXPECT_TRUE(fresh);
    EXPECT_EQ(store.lookupHashed(s1.data(), h1), id1);
    EXPECT_EQ(store.lookupHashed(s2.data(), h2), StateStore::kNoId);
    EXPECT_EQ(store.size(), 1u);
}

TEST(StateStore, ForcedCollisionStillFindsViolation)
{
    // With an injected constant hash every state shares one
    // fingerprint (and, in the parallel explorer, one partition), so
    // dedup rests entirely on the byte compare: both engines must
    // still find the mutant's violation.
    const verif::Mutant *m = verif::findMutant("leaf_silent_upgrade");
    ASSERT_NE(m, nullptr);
    ModelShape shape;
    const TransitionSystem ts = m->build(shape);

    for (unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ExploreLimits lim;
        lim.maxSeconds = 60.0;
        lim.threads = threads;
        lim.hash = &collidingHash;
        collidingHashCalls = 0;
        const ExploreResult r = explore(ts, lim);
        EXPECT_EQ(r.status, VerifStatus::InvariantViolated);
        EXPECT_EQ(r.violatedInvariant, m->violates);
        // Every state the engine hashed went through the hook.
        EXPECT_GE(collidingHashCalls.load(), r.statesExplored);
    }
}
