/**
 * @file
 * Arena-interned state storage for the exploration engines, with an
 * optional delta tier.
 *
 * Murphi-lineage checkers win capacity battles by refusing to pay
 * per-state heap structure: canonical states live contiguously in
 * bump-allocated slabs (one `numVars()`-stride record each, no vector
 * header, no malloc chunk rounding) and the visited set is a flat
 * open-addressing table of 32-bit fingerprint + 32-bit arena index.
 * The paper's push-button methodology (§4.1) depends on exactly this
 * kind of throughput — the original Neo construction blew a >200 GB
 * budget before it was redesigned — so every engine here (sequential
 * BFS, the sharded parallel explorer, the trace shrinker) dedupes
 * through this store instead of `std::unordered_map<VState, id>`.
 *
 * Both tiers keep every state's full bytes recoverable, and a
 * fingerprint hit is always confirmed by a byte compare, so a verdict
 * is exact under either:
 *
 *  - StoreTier::Plain — one fixed-stride full record per state.
 *
 *  - StoreTier::Delta — a state is stored as a varint-encoded diff
 *    against an earlier state (its BFS parent when the engine has it
 *    in hand, else the previously interned state), with full-record
 *    anchors every `anchorEvery` hops so any state reconstructs in a
 *    bounded walk. BFS neighbours differ in a handful of variables,
 *    so the per-state payload drops from `stride` bytes to a few.
 *
 * Concurrency contract: intern() and reserve() require external
 * synchronization (the parallel explorer wraps each shard's store in
 * that shard's mutex). at()/copyTo()/stride() are safe to call
 * WITHOUT the lock for any id whose publication happened-before the
 * call (e.g. an id received through the frontier ring): slab pointers
 * live in fixed-size arrays that are never reallocated, and a state's
 * bytes — including every delta record on its anchor chain — are
 * written exactly once, before its id escapes the lock.
 */

#ifndef NEO_VERIF_STATE_STORE_HPP
#define NEO_VERIF_STATE_STORE_HPP

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "verif/transition_system.hpp"

namespace neo
{

/**
 * 64-bit state hash: 8-byte chunks folded with multiply-xor and a
 * murmur3-style finalizer. Low bits select the parallel explorer's
 * shard, high 32 bits are the visited-table fingerprint, so both
 * halves must avalanche. Roughly 8x fewer data-dependent steps than
 * the byte-wise FNV-1a it replaces — the hash runs once per generated
 * successor, which makes it hot-path.
 */
inline std::uint64_t
stateHash(const std::uint8_t *p, std::size_t n)
{
    std::uint64_t h = 0x9e3779b97f4a7c15ULL ^
                      (static_cast<std::uint64_t>(n) *
                       0xff51afd7ed558ccdULL);
    while (n >= 8) {
        std::uint64_t k;
        std::memcpy(&k, p, 8);
        k *= 0xff51afd7ed558ccdULL;
        k ^= k >> 29;
        h = (h ^ k) * 0x2545f4914f6cdd1dULL;
        p += 8;
        n -= 8;
    }
    if (n > 0) {
        std::uint64_t k = 0;
        std::memcpy(&k, p, n);
        k *= 0xff51afd7ed558ccdULL;
        k ^= k >> 29;
        h = (h ^ k) * 0x2545f4914f6cdd1dULL;
    }
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 29;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 32;
    return h;
}

/** How state payloads are represented inside the store. */
enum class StoreTier : std::uint8_t
{
    Plain = 0, ///< fixed-stride full records
    Delta = 1, ///< varint parent-diff records with anchor chains
};

const char *storeTierName(StoreTier t);

/**
 * Tier configuration, carried by ExploreLimits into every engine and
 * forwarded verbatim to each StateStore they build.
 */
struct StoreTierOptions
{
    StoreTier tier = StoreTier::Plain;
    /** Max delta-chain hops before a full anchor record (Delta). */
    unsigned anchorEvery = 8;
    /** Test-only hash override (forced-collision suites); nullptr
     *  uses stateHash(). */
    std::uint64_t (*hash)(const std::uint8_t *, std::size_t) = nullptr;
};

/**
 * Interning store: a bump arena of state records plus an
 * open-addressing visited table (linear probing, power-of-two
 * capacity, fingerprint pre-filter before the byte compare).
 *
 * Arena ids are dense 32-bit insertion indices — the engines use them
 * directly as state ids, and index their parent/depth side arrays
 * with them. Slab k holds `firstSlab << k` elements, so a fixed array
 * of slab pointers addresses 2^40+ states without ever reallocating
 * the directory (which is what makes lock-free at() reads sound).
 */
class StateStore
{
  public:
    using HashFn = std::uint64_t (*)(const std::uint8_t *,
                                     std::size_t);

    /** Arena id sentinel for an empty table slot / a lookup miss /
     *  "no delta base". */
    static constexpr std::uint32_t kNoId = 0xffffffffu;

    /**
     * @param stride bytes per state (`ts.numVars()`)
     * @param expectedStates pre-size the table and first slab for
     *        this many states (0 = start minimal and grow)
     * @param hash override the state hash — tests inject degenerate
     *        hashes to force fingerprint collisions; nullptr uses
     *        stateHash() (opts.hash, when set, wins over this)
     * @param opts capacity tier
     */
    explicit StateStore(std::size_t stride,
                        std::uint64_t expectedStates = 0,
                        HashFn hash = nullptr,
                        const StoreTierOptions &opts = {});

    StateStore(const StateStore &) = delete;
    StateStore &operator=(const StateStore &) = delete;
    StateStore(StateStore &&) = delete;

    ~StateStore();

    /**
     * Intern one canonical state: @return (arena id, freshly
     * inserted). A state equal byte-for-byte to an already-interned
     * one returns the existing id — the fingerprint pre-filter
     * rejects almost all non-equal probes, and a full byte compare
     * (reconstructing through the delta codec when needed) confirms
     * every fingerprint hit, so hash collisions can never conflate
     * two distinct states.
     */
    std::pair<std::uint32_t, bool> intern(const std::uint8_t *state)
    {
        return internHashed(state, hash_(state, stride_));
    }
    std::pair<std::uint32_t, bool> intern(const VState &s)
    {
        return intern(s.data());
    }
    /** Intern with an explicit delta base (see internHashed below);
     *  hashes internally. */
    std::pair<std::uint32_t, bool>
    intern(const std::uint8_t *state, std::uint32_t baseId,
           const std::uint8_t *baseBytes)
    {
        return internHashed(state, hash_(state, stride_), baseId,
                            baseBytes);
    }
    /** Intern with a precomputed stateHash() value — the parallel
     *  explorer hashes once for shard selection and reuses it. The
     *  delta base defaults to the most recently interned state. */
    std::pair<std::uint32_t, bool>
    internHashed(const std::uint8_t *state, std::uint64_t hash)
    {
        return internHashed(state, hash, kNoId, nullptr);
    }
    /**
     * Intern with an explicit delta base (Delta tier): @p baseId is
     * an id already interned HERE and @p baseBytes its full bytes
     * (the BFS engines have the parent state in hand when expanding,
     * so no reconstruction is paid on the hot path). kNoId/nullptr
     * falls back to the previously interned state; ignored in the
     * Plain tier.
     */
    std::pair<std::uint32_t, bool>
    internHashed(const std::uint8_t *state, std::uint64_t hash,
                 std::uint32_t baseId, const std::uint8_t *baseBytes);

    /**
     * Probe-only lookup: the id @p state would dedup to, or kNoId if
     * it has never been interned. Never inserts, never grows the
     * table, leaves the probe histogram untouched. Same external-
     * synchronization contract as intern() (it reads the table the
     * interns mutate) — the parallel explorer calls it under the
     * shard mutex to decide whether a successor needs one of the
     * maxStates insertion tokens before committing to an intern.
     */
    std::uint32_t lookupHashed(const std::uint8_t *state,
                               std::uint64_t hash) const;

    /**
     * Batch intern under ONE external lock acquisition: interns
     * @p states[0..n) (hashes precomputed in @p hashes) in order and
     * writes (id, inserted) per element to @p out. All elements share
     * one delta base — @p baseId/@p baseBytes exactly as in
     * internHashed(); the parallel explorer groups a dequeued state's
     * successors by shard and passes the parent once per group.
     * Duplicates WITHIN the batch dedup exactly like repeated
     * intern() calls (the second occurrence returns the first's id),
     * so batch-of-N is id-for-id identical to N single interns — the
     * property tests/test_state_store.cpp pins.
     */
    void internBatchHashed(const std::uint8_t *const *states,
                           const std::uint64_t *hashes, std::size_t n,
                           std::uint32_t baseId,
                           const std::uint8_t *baseBytes,
                           std::pair<std::uint32_t, bool> *out);

    /**
     * Bytes of an interned state; stable for the store's lifetime.
     * Plain tier only — Delta records must be reconstructed through
     * copyTo() (fatal otherwise).
     */
    const std::uint8_t *at(std::uint32_t id) const
    {
        if (tier_ != StoreTier::Plain)
            badTierAt();
        return record(id);
    }

    /** Full bytes of state @p id into @p out; reconstructs through
     *  the anchor chain in the Delta tier. */
    void copyTo(std::uint32_t id, VState &out) const
    {
        if (tier_ == StoreTier::Plain) {
            const std::uint8_t *p = record(id);
            out.assign(p, p + stride_);
        } else {
            out.resize(stride_);
            reconstruct(id, out.data());
        }
    }

    /** Delta-chain hops from @p id to its anchor (0 = @p id is an
     *  anchor). Bounded by anchorEvery; 0 in the Plain tier. */
    unsigned hopOf(std::uint32_t id) const;

    std::uint64_t size() const { return size_; }
    std::size_t stride() const { return stride_; }
    std::uint64_t tableCapacity() const { return capacity_; }
    StoreTier tier() const { return tier_; }
    unsigned anchorEvery() const { return anchorEvery_; }

    /**
     * Actual live footprint charged against `maxMemoryBytes`:
     * interned payload bytes (state records, or delta records plus
     * their anchor index), slab bookkeeping, and the full table
     * allocation. Untouched tail pages of the newest slab are
     * virtual-only (never written), so they are not charged.
     */
    std::uint64_t memoryBytes() const;

    /** Grow the table (and size the first arena slab, when nothing
     *  has been interned yet) to hold @p expectedStates without
     *  further rehashing. */
    void reserve(std::uint64_t expectedStates);

    /** Insert-probe distance histogram: bucket b counts interns that
     *  probed [2^(b-1), 2^b) slots past their home (bucket 0 = direct
     *  hit). Fills the bench's probe-quality report. */
    static constexpr std::size_t kProbeBuckets = 16;
    const std::array<std::uint64_t, kProbeBuckets> &
    probeHistogram() const
    {
        return probeHist_;
    }

  private:
    struct Slot
    {
        std::uint32_t fp;
        std::uint32_t id;
    };

    static constexpr unsigned kMaxSlabs = 40;
    static constexpr std::uint64_t kMinCapacity = 64;

    std::size_t probeStart(std::uint32_t fp) const
    {
        // Fibonacci spread of the 32-bit fingerprint; growth rehashes
        // from the stored fingerprints alone, no arena reads.
        return static_cast<std::size_t>(
            (fp * 2654435769u) >> (32 - lgCapacity_));
    }

    /** A geometric slab family: fixed pointer directory (never
     *  reallocated — the lock-free read guarantee), element-granular
     *  addressing shared by plain records, delta bytes and the delta
     *  index. */
    struct Arena
    {
        std::uint8_t *slabs[kMaxSlabs] = {};
        unsigned nSlabs = 0;
        unsigned firstLog2 = 10;
        std::uint64_t capacity = 0; ///< elements the slabs can hold
        std::size_t elemSize = 1;
    };

    // Element address: slab k holds `1 << (firstLog2 + k)` elements,
    // so slab k's first element is `((1 << k) - 1) << firstLog2` and
    // the owning slab of idx is found with one bit-scan — no
    // division, no directory realloc.
    static std::uint8_t *arenaPtr(const Arena &a, std::uint64_t idx)
    {
        const std::uint64_t q = (idx >> a.firstLog2) + 1;
        const unsigned k =
            static_cast<unsigned>(std::bit_width(q)) - 1;
        const std::uint64_t base = ((1ULL << k) - 1) << a.firstLog2;
        return a.slabs[k] + (idx - base) * a.elemSize;
    }
    static void arenaGrow(Arena &a);
    static void arenaFree(Arena &a);

    std::uint8_t *record(std::uint32_t id) const
    {
        return arenaPtr(states_, id);
    }
    bool equalsStored(std::uint32_t id, const std::uint8_t *state) const
    {
        if (tier_ == StoreTier::Plain)
            return std::memcmp(record(id), state, stride_) == 0;
        reconstruct(id, cmpBuf_.data());
        return std::memcmp(cmpBuf_.data(), state, stride_) == 0;
    }
    [[noreturn]] void badTierAt() const;
    void allocTable(std::uint64_t capacity);
    void growTable();

    // Tier internals.
    std::uint32_t pushPlain(const std::uint8_t *state);
    std::uint32_t pushDelta(const std::uint8_t *state,
                            std::uint32_t baseId,
                            const std::uint8_t *baseBytes);
    void reconstruct(std::uint32_t id, std::uint8_t *out) const;

    std::size_t stride_;
    HashFn hash_;
    StoreTier tier_ = StoreTier::Plain;
    unsigned anchorEvery_ = 8;

    Arena states_; ///< Plain: stride-sized records
    Arena bytes_;  ///< Delta: varint records, byte-granular
    Arena index_;  ///< Delta: 8-byte (offset<<8 | hop) per id
    std::uint64_t byteTail_ = 0; ///< Delta: next free byte offset

    /** Previously interned state's bytes (Delta): the fallback delta
     *  base when the caller has no parent in hand (cross-shard
     *  parents in the parallel explorer). */
    std::vector<std::uint8_t> lastState_;
    std::uint32_t lastId_ = kNoId;
    /** Reconstruction scratch for the intern-side byte compare. */
    mutable std::vector<std::uint8_t> cmpBuf_;

    Slot *table_ = nullptr;
    std::uint64_t capacity_ = 0;
    unsigned lgCapacity_ = 0;
    std::uint64_t size_ = 0;

    std::array<std::uint64_t, kProbeBuckets> probeHist_{};
};

} // namespace neo

#endif // NEO_VERIF_STATE_STORE_HPP
