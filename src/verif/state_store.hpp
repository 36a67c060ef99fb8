/**
 * @file
 * Arena-interned state storage for the exploration engines.
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
 * Every state keeps its full bytes, and a fingerprint hit is always
 * confirmed by a byte compare, so a verdict is exact.
 *
 * Concurrency contract: intern() and reserve() require external
 * synchronization (the parallel explorer wraps each shard's store in
 * that shard's mutex). at()/copyTo()/stride() are safe to call
 * WITHOUT the lock for any id whose publication happened-before the
 * call (e.g. an id received through the frontier ring): slab pointers
 * live in a fixed-size array that is never reallocated, and a state's
 * bytes are written exactly once, before its id escapes the lock.
 */

#ifndef NEO_VERIF_STATE_STORE_HPP
#define NEO_VERIF_STATE_STORE_HPP

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>

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

    /** Arena id sentinel for an empty table slot / a lookup miss. */
    static constexpr std::uint32_t kNoId = 0xffffffffu;

    /**
     * @param stride bytes per state (`ts.numVars()`)
     * @param expectedStates pre-size the table and first slab for
     *        this many states (0 = start minimal and grow)
     * @param hash override the state hash — tests inject degenerate
     *        hashes to force fingerprint collisions; nullptr uses
     *        stateHash()
     */
    explicit StateStore(std::size_t stride,
                        std::uint64_t expectedStates = 0,
                        HashFn hash = nullptr);

    StateStore(const StateStore &) = delete;
    StateStore &operator=(const StateStore &) = delete;
    StateStore(StateStore &&) = delete;

    ~StateStore();

    /**
     * Intern one canonical state: @return (arena id, freshly
     * inserted). A state equal byte-for-byte to an already-interned
     * one returns the existing id — the fingerprint pre-filter
     * rejects almost all non-equal probes, and a full byte compare
     * confirms every fingerprint hit, so hash collisions can never
     * conflate two distinct states.
     */
    std::pair<std::uint32_t, bool> intern(const std::uint8_t *state)
    {
        return internHashed(state, hash_(state, stride_));
    }
    std::pair<std::uint32_t, bool> intern(const VState &s)
    {
        return intern(s.data());
    }
    /** Intern with a precomputed hash — the parallel explorer hashes
     *  once for shard selection and reuses it. */
    std::pair<std::uint32_t, bool>
    internHashed(const std::uint8_t *state, std::uint64_t hash);

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

    /** Bytes of an interned state; stable for the store's lifetime. */
    const std::uint8_t *at(std::uint32_t id) const { return record(id); }

    /** Full bytes of state @p id into @p out. */
    void copyTo(std::uint32_t id, VState &out) const
    {
        const std::uint8_t *p = at(id);
        out.assign(p, p + stride_);
    }

    std::uint64_t size() const { return size_; }
    std::size_t stride() const { return stride_; }
    std::uint64_t tableCapacity() const { return capacity_; }

    /**
     * Actual live footprint charged against `maxMemoryBytes`: the
     * interned records, slab bookkeeping, and the full table
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

    // Record address: slab k holds `1 << (firstLog2_ + k)` records,
    // so slab k's first record is `((1 << k) - 1) << firstLog2_` and
    // the owning slab of id is found with one bit-scan — no division,
    // no directory realloc.
    std::uint8_t *record(std::uint32_t id) const
    {
        const std::uint64_t q = (std::uint64_t{id} >> firstLog2_) + 1;
        const unsigned k =
            static_cast<unsigned>(std::bit_width(q)) - 1;
        const std::uint64_t base = ((1ULL << k) - 1) << firstLog2_;
        return slabs_[k] + (id - base) * stride_;
    }
    bool equalsStored(std::uint32_t id, const std::uint8_t *state) const
    {
        return std::memcmp(record(id), state, stride_) == 0;
    }
    void growArena();
    void allocTable(std::uint64_t capacity);
    void growTable();

    std::size_t stride_;
    HashFn hash_;

    /** Geometric slab family: a fixed pointer directory (never
     *  reallocated — the lock-free read guarantee). */
    std::uint8_t *slabs_[kMaxSlabs] = {};
    unsigned nSlabs_ = 0;
    unsigned firstLog2_ = 10;
    std::uint64_t arenaCapacity_ = 0; ///< records the slabs can hold

    Slot *table_ = nullptr;
    std::uint64_t capacity_ = 0;
    unsigned lgCapacity_ = 0;
    std::uint64_t size_ = 0;

    std::array<std::uint64_t, kProbeBuckets> probeHist_{};
};

} // namespace neo

#endif // NEO_VERIF_STATE_STORE_HPP
