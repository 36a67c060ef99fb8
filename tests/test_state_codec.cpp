/**
 * @file
 * Property suite for the state store's delta tier: codec round-trips
 * (zero-diff dedup, all-diff anchor fallback, slab-boundary
 * crossings, randomized BFS-shaped chains), the bounded anchor-chain
 * depth invariant, exact dedup under forced fingerprint collisions,
 * and fixpoint and counterexample equality between the plain and
 * delta tiers on the bundled models across thread counts.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "verif/explorer.hpp"
#include "verif/models/flat_closed.hpp"
#include "verif/models/flat_open.hpp"
#include "verif/models/german.hpp"
#include "verif/models/mutants.hpp"
#include "verif/parallel_explorer.hpp"
#include "verif/state_store.hpp"

using namespace neo;
using namespace neo::verif;

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

/** Degenerate hash: every state shares one fingerprint, so the
 *  byte-compare fallback alone must dedup correctly. */
std::uint64_t
collidingHash(const std::uint8_t *, std::size_t)
{
    return 0x1234567812345678ULL;
}

/** xorshift64*, deterministic across platforms. */
struct Rng
{
    std::uint64_t s;
    std::uint64_t
    next()
    {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 0x2545f4914f6cdd1dULL;
    }
};

StoreTierOptions
deltaOpts(unsigned anchorEvery = 8)
{
    StoreTierOptions o;
    o.tier = StoreTier::Delta;
    o.anchorEvery = anchorEvery;
    return o;
}

struct Fixpoint
{
    VerifStatus status;
    std::uint64_t states;
    std::uint64_t transitions;
    std::vector<std::uint64_t> ruleFires;
};

Fixpoint
runTier(const TransitionSystem &ts, unsigned threads,
        const StoreTierOptions &opts)
{
    ExploreLimits lim;
    lim.maxStates = 2'000'000;
    lim.maxSeconds = 120.0;
    lim.threads = threads;
    lim.store = opts;
    const ExploreResult r = threads > 1 ? exploreParallel(ts, lim)
                                        : explore(ts, lim);
    return {r.status, r.statesExplored, r.transitionsFired,
            r.ruleFires};
}

void
expectSameFixpoint(const Fixpoint &got, const Fixpoint &ref)
{
    EXPECT_EQ(got.status, ref.status);
    EXPECT_EQ(got.states, ref.states);
    EXPECT_EQ(got.transitions, ref.transitions);
    EXPECT_EQ(got.ruleFires, ref.ruleFires);
}

} // namespace

// ----------------------------------------------------------------
// Delta codec round-trip properties.
// ----------------------------------------------------------------

TEST(StateCodec, ZeroDiffSuccessorDedups)
{
    // A successor byte-identical to its parent is the SAME state;
    // the delta path must fall through to dedup, not store an empty
    // diff record.
    constexpr std::size_t stride = 24;
    StateStore store(stride, 0, nullptr, deltaOpts());
    const auto s = counterState(stride, 42);
    const auto [id, fresh] = store.intern(s.data());
    ASSERT_TRUE(fresh);
    const auto [id2, fresh2] = store.intern(s.data(), id, s.data());
    EXPECT_FALSE(fresh2);
    EXPECT_EQ(id2, id);
    EXPECT_EQ(store.size(), 1u);
}

TEST(StateCodec, AllDiffStatesFallBackToAnchors)
{
    // States differing from their base in EVERY byte: a diff record
    // would exceed the full stride, so the codec must store anchors
    // (hop 0) and still round-trip byte-exactly.
    constexpr std::size_t stride = 32;
    StoreTierOptions opts = deltaOpts();
    StateStore store(stride, 0, nullptr, opts);
    std::vector<std::vector<std::uint8_t>> all;
    Rng rng{7};
    std::uint32_t prev = StateStore::kNoId;
    for (std::uint64_t v = 0; v < 500; ++v) {
        std::vector<std::uint8_t> s(stride);
        for (auto &b : s)
            b = static_cast<std::uint8_t>(rng.next() | 1); // never 0
        // Flip parity per round so consecutive states differ
        // everywhere (odd vs even bytes).
        if (v % 2 == 1) {
            for (auto &b : s)
                b = static_cast<std::uint8_t>(b << 1);
        }
        const auto [id, fresh] =
            store.intern(s.data(), prev,
                         prev == StateStore::kNoId
                             ? nullptr
                             : all.back().data());
        ASSERT_TRUE(fresh);
        all.push_back(s);
        prev = id;
    }
    VState out;
    for (std::uint32_t id = 0; id < all.size(); ++id) {
        store.copyTo(id, out);
        EXPECT_EQ(0, std::memcmp(out.data(), all[id].data(), stride))
            << "id " << id;
    }
}

TEST(StateCodec, RandomizedChainsRoundTripAcrossSlabBoundaries)
{
    // BFS-shaped randomized workload: each new state mutates a
    // random already-interned base in a few positions, interned with
    // that base in hand (like the explorers). 30k states cross
    // several index/byte slab boundaries (first index slab holds
    // 1024 entries); every id must reconstruct byte-exactly and
    // every re-intern must dedup to the original id.
    constexpr std::size_t stride = 40;
    StateStore store(stride, 0, nullptr, deltaOpts());
    std::vector<std::vector<std::uint8_t>> all;
    Rng rng{0x9e3779b97f4a7c15ULL};

    auto s0 = counterState(stride, 1);
    ASSERT_TRUE(store.intern(s0.data()).second);
    all.push_back(s0);

    while (all.size() < 30'000) {
        const std::uint32_t base = static_cast<std::uint32_t>(
            rng.next() % all.size());
        std::vector<std::uint8_t> s = all[base];
        const unsigned nMut = 1 + rng.next() % 4;
        for (unsigned m = 0; m < nMut; ++m)
            s[rng.next() % stride] =
                static_cast<std::uint8_t>(rng.next());
        const auto [id, fresh] =
            store.intern(s.data(), base, all[base].data());
        if (!fresh) {
            // Collided with an existing state: the id must point at
            // identical bytes.
            ASSERT_LT(id, all.size());
            EXPECT_EQ(all[id], s);
            continue;
        }
        ASSERT_EQ(id, all.size());
        all.push_back(std::move(s));
    }

    VState out;
    for (std::uint32_t id = 0; id < all.size(); ++id) {
        store.copyTo(id, out);
        ASSERT_EQ(0, std::memcmp(out.data(), all[id].data(), stride))
            << "id " << id;
        EXPECT_LE(store.hopOf(id), store.anchorEvery());
    }
    // Dedup still exact after the chains are deep.
    for (std::uint32_t id = 0; id < all.size(); id += 997) {
        const auto [got, fresh] = store.intern(all[id].data());
        EXPECT_FALSE(fresh);
        EXPECT_EQ(got, id);
    }
}

TEST(StateCodec, AnchorChainDepthIsBounded)
{
    // A maximally unfavourable workload for chain depth: one long
    // chain, each state a 1-byte diff of the previous. hopOf must
    // never exceed anchorEvery (a delta may base on any record of
    // hop < K, so hops span 0..K), for several anchorEvery values
    // including the degenerate 1 (deltas only directly off anchors).
    constexpr std::size_t stride = 16;
    for (unsigned k : {1u, 2u, 8u, 32u}) {
        StateStore store(stride, 0, nullptr, deltaOpts(k));
        std::vector<std::uint8_t> s = counterState(stride, 0);
        std::uint32_t prev = StateStore::kNoId;
        std::vector<std::uint8_t> prevBytes;
        for (std::uint64_t v = 0; v < 5'000; ++v) {
            s = counterState(stride, v);
            const auto [id, fresh] = store.intern(
                s.data(), prev,
                prevBytes.empty() ? nullptr : prevBytes.data());
            ASSERT_TRUE(fresh);
            ASSERT_LE(store.hopOf(id), k) << "anchorEvery=" << k;
            prev = id;
            prevBytes = s;
        }
    }
}

TEST(StateCodec, DeltaWithForcedCollisionsStaysExact)
{
    // Same contract as the plain store's collision test, but through
    // the delta codec: with every fingerprint identical, dedup rests
    // on byte compares that RECONSTRUCT through anchor chains.
    constexpr std::size_t stride = 12;
    StoreTierOptions opts = deltaOpts();
    opts.hash = &collidingHash;
    StateStore store(stride, 0, nullptr, opts);
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
    }
    EXPECT_EQ(store.size(), n);
}

// ----------------------------------------------------------------
// Fixpoint equality across tiers, models and thread counts.
// ----------------------------------------------------------------

TEST(StateCodec, FixpointEqualAcrossTiersOnAllModels)
{
    struct Named
    {
        std::string name;
        TransitionSystem ts;
    };
    std::vector<Named> models;
    {
        ModelShape shape;
        models.push_back({"german/N=3", buildGermanModel(3, shape)});
    }
    {
        ModelShape shape;
        models.push_back(
            {"closed/neomesi/N=3",
             buildClosedModel(3, VerifFeatures::neoMESI(), shape)});
    }
    {
        ModelShape shape;
        models.push_back(
            {"closed/moesi/N=3",
             buildClosedModel(3, VerifFeatures::withOwned(), shape)});
    }
    {
        ModelShape shape;
        models.push_back(
            {"open/neomesi/N=3",
             buildOpenModel(3, VerifFeatures::neoMESI(),
                            CompositionMethod::Modified, shape)});
    }

    for (const Named &m : models) {
        SCOPED_TRACE(m.name);
        const Fixpoint ref = runTier(m.ts, 1, {});
        ASSERT_EQ(ref.status, VerifStatus::Verified);

        for (unsigned threads : {1u, 2u, 4u, 8u}) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            expectSameFixpoint(runTier(m.ts, threads, {}), ref);
            expectSameFixpoint(runTier(m.ts, threads, deltaOpts()),
                               ref);
        }
    }
}

TEST(StateCodec, DeltaTierReproducesViolationAndTrace)
{
    const Mutant *m = findMutant("leaf_silent_upgrade");
    ASSERT_NE(m, nullptr);
    ModelShape shape;
    const TransitionSystem ts = m->build(shape);

    ExploreLimits plain;
    plain.maxSeconds = 60.0;
    const ExploreResult ref = explore(ts, plain);
    ASSERT_EQ(ref.status, VerifStatus::InvariantViolated);

    ExploreLimits lim = plain;
    lim.store = deltaOpts();
    const ExploreResult r = explore(ts, lim);
    EXPECT_EQ(r.status, VerifStatus::InvariantViolated);
    EXPECT_EQ(r.violatedInvariant, ref.violatedInvariant);
    EXPECT_EQ(r.trace, ref.trace) << "the BFS order is tier-"
                                     "independent, so the trace is "
                                     "too";
    EXPECT_EQ(r.badState, ref.badState);
}
