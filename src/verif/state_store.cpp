#include "verif/state_store.hpp"

#include <new>

#include "sim/logging.hpp"

namespace neo
{

namespace
{

unsigned
log2Ceil(std::uint64_t n)
{
    unsigned lg = 0;
    while ((1ULL << lg) < n)
        ++lg;
    return lg;
}

/** LEB128. Delta records are tiny (a few diffs against the BFS
 *  parent), so byte-granular varints are where the tier's 10x+ comes
 *  from; the decoder is branch-light because >1-byte values are rare
 *  in practice (ids under 2^28 and gaps under 128). */
std::size_t
encodeVarint(std::uint64_t v, std::uint8_t *out)
{
    std::size_t n = 0;
    while (v >= 0x80) {
        out[n++] = static_cast<std::uint8_t>(v) | 0x80;
        v >>= 7;
    }
    out[n++] = static_cast<std::uint8_t>(v);
    return n;
}

std::uint64_t
decodeVarint(const std::uint8_t *&p)
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    for (;;) {
        const std::uint8_t b = *p++;
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if ((b & 0x80) == 0)
            return v;
        shift += 7;
    }
}

} // namespace

const char *
storeTierName(StoreTier t)
{
    switch (t) {
    case StoreTier::Plain:
        return "plain";
    case StoreTier::Delta:
        return "delta";
    }
    return "?";
}

StateStore::StateStore(std::size_t stride,
                       std::uint64_t expectedStates, HashFn hash,
                       const StoreTierOptions &opts)
    : stride_(stride == 0 ? 1 : stride),
      hash_(opts.hash != nullptr
                ? opts.hash
                : (hash != nullptr ? hash : &stateHash)),
      tier_(opts.tier), anchorEvery_(opts.anchorEvery)
{
    if (anchorEvery_ < 1)
        anchorEvery_ = 1;
    if (anchorEvery_ > 255)
        anchorEvery_ = 255; // hop field is 8 bits

    states_.elemSize = stride_;
    index_.elemSize = 8;
    bytes_.elemSize = 1;
    // A delta record never exceeds stride_ + 16 bytes (bigger diffs
    // fall back to an anchor), so the first byte slab must fit one.
    bytes_.firstLog2 = 16;
    if ((1ULL << bytes_.firstLog2) < stride_ + 16)
        bytes_.firstLog2 = log2Ceil(stride_ + 16);

    std::uint64_t cap = kMinCapacity;
    if (expectedStates > 0) {
        // 0.75 load factor: capacity > expected * 4/3.
        while (cap * 3 / 4 <= expectedStates)
            cap <<= 1;
        unsigned firstLog2 = log2Ceil(expectedStates);
        if (firstLog2 < 10)
            firstLog2 = 10;
        states_.firstLog2 = firstLog2;
        index_.firstLog2 = firstLog2;
    }
    lgCapacity_ = log2Ceil(cap);
    allocTable(cap);

    if (tier_ == StoreTier::Delta) {
        lastState_.reserve(stride_);
        cmpBuf_.resize(stride_);
    }
}

StateStore::~StateStore()
{
    arenaFree(states_);
    arenaFree(bytes_);
    arenaFree(index_);
    ::operator delete(table_);
}

// ---------------------------------------------------------------- //
// Arenas                                                           //
// ---------------------------------------------------------------- //

void
StateStore::arenaGrow(Arena &a)
{
    const unsigned k = a.nSlabs;
    if (k >= kMaxSlabs)
        neo_fatal("state arena exhausted: 2^40+ elements");
    const std::uint64_t elems = 1ULL << (a.firstLog2 + k);
    a.slabs[k] = static_cast<std::uint8_t *>(::operator new(
        static_cast<std::size_t>(elems * a.elemSize)));
    a.nSlabs = k + 1;
    a.capacity += elems;
}

void
StateStore::arenaFree(Arena &a)
{
    for (unsigned k = 0; k < a.nSlabs; ++k)
        ::operator delete(a.slabs[k]);
    a.nSlabs = 0;
    a.capacity = 0;
}

// ---------------------------------------------------------------- //
// Table                                                            //
// ---------------------------------------------------------------- //

void
StateStore::allocTable(std::uint64_t capacity)
{
    table_ = static_cast<Slot *>(::operator new(
        static_cast<std::size_t>(capacity * sizeof(Slot))));
    capacity_ = capacity;
    // All-ones bytes ⇒ every slot's id is kNoId (empty); fp is only
    // read behind a non-empty id, so its garbage value is dead.
    std::memset(table_, 0xff,
                static_cast<std::size_t>(capacity * sizeof(Slot)));
}

void
StateStore::growTable()
{
    Slot *old = table_;
    const std::uint64_t oldCap = capacity_;
    ++lgCapacity_;
    allocTable(oldCap << 1);
    const std::size_t mask = static_cast<std::size_t>(capacity_) - 1;
    for (std::uint64_t s = 0; s < oldCap; ++s) {
        const Slot slot = old[s];
        if (slot.id == kNoId)
            continue;
        std::size_t i = probeStart(slot.fp);
        while (table_[i].id != kNoId)
            i = (i + 1) & mask;
        table_[i] = slot;
    }
    ::operator delete(old);
}

void
StateStore::reserve(std::uint64_t expectedStates)
{
    if (expectedStates == 0)
        return;
    const unsigned lg = log2Ceil(expectedStates);
    if (states_.nSlabs == 0 && lg > states_.firstLog2)
        states_.firstLog2 = lg;
    if (index_.nSlabs == 0 && lg > index_.firstLog2)
        index_.firstLog2 = lg;
    std::uint64_t cap = capacity_;
    while (cap * 3 / 4 <= expectedStates)
        cap <<= 1;
    while (capacity_ < cap)
        growTable();
}

// ---------------------------------------------------------------- //
// Tier payloads                                                    //
// ---------------------------------------------------------------- //

[[noreturn]] void
StateStore::badTierAt() const
{
    neo_fatal("delta-tier states must be read through copyTo(), "
              "not at()");
}

std::uint32_t
StateStore::pushPlain(const std::uint8_t *state)
{
    if (size_ == states_.capacity)
        arenaGrow(states_);
    const std::uint32_t id = static_cast<std::uint32_t>(size_);
    std::memcpy(record(id), state, stride_);
    ++size_;
    return id;
}

std::uint32_t
StateStore::pushDelta(const std::uint8_t *state,
                      std::uint32_t baseId,
                      const std::uint8_t *baseBytes)
{
    // Resolve the delta base: the caller's BFS parent when provided,
    // else the previously interned state (the parallel explorer's
    // cross-shard fallback — BFS locality makes consecutive interns
    // near-neighbours too).
    const std::uint8_t *bb = nullptr;
    std::uint32_t bid = kNoId;
    if (baseId != kNoId && baseBytes != nullptr && baseId < size_) {
        bid = baseId;
        bb = baseBytes;
    } else if (lastId_ != kNoId) {
        bid = lastId_;
        bb = lastState_.data();
    }

    std::uint8_t enc[5 + 3 + 3 * 256];
    std::size_t encLen = 0;
    unsigned hop = 0;
    if (bb != nullptr) {
        const unsigned baseHop = hopOf(bid);
        if (baseHop < anchorEvery_) {
            // Trial-encode; abandon for an anchor the moment the
            // record stops paying for itself.
            std::uint8_t diffs[3 * 256];
            std::size_t dn = 0;
            std::uint32_t nDiffs = 0;
            std::size_t prev = 0;
            bool fits = stride_ > 8; // tiny strides: anchors only
            if (fits) {
                for (std::size_t i = 0; i < stride_; ++i) {
                    if (state[i] == bb[i])
                        continue;
                    if (dn + 4 > sizeof(diffs) ||
                        dn + 12 >= stride_) {
                        fits = false;
                        break;
                    }
                    const std::uint64_t gap =
                        nDiffs == 0 ? i : i - prev - 1;
                    dn += encodeVarint(gap, diffs + dn);
                    diffs[dn++] = state[i];
                    prev = i;
                    ++nDiffs;
                }
            }
            if (fits) {
                encLen = encodeVarint(bid, enc);
                encLen += encodeVarint(nDiffs, enc + encLen);
                std::memcpy(enc + encLen, diffs, dn);
                encLen += dn;
                if (encLen < stride_)
                    hop = baseHop + 1;
                else
                    encLen = 0; // anchor wins after all
            }
        }
    }

    const std::uint64_t rec = hop != 0 ? encLen : stride_;
    // Records never straddle a slab: pad to the next slab when the
    // current one cannot fit this record (offsets stay monotone and
    // a record is always contiguous for the lock-free readers).
    for (;;) {
        if (byteTail_ == bytes_.capacity) {
            arenaGrow(bytes_);
            continue;
        }
        const std::uint64_t q = (byteTail_ >> bytes_.firstLog2) + 1;
        const unsigned k =
            static_cast<unsigned>(std::bit_width(q)) - 1;
        const std::uint64_t slabEnd =
            (((1ULL << k) - 1) << bytes_.firstLog2) +
            (1ULL << (bytes_.firstLog2 + k));
        if (byteTail_ + rec <= slabEnd)
            break;
        byteTail_ = slabEnd;
    }
    std::uint8_t *dst = arenaPtr(bytes_, byteTail_);
    std::memcpy(dst, hop != 0 ? enc : state,
                static_cast<std::size_t>(rec));
    const std::uint64_t offset = byteTail_;
    byteTail_ += rec;

    const std::uint32_t id = static_cast<std::uint32_t>(size_);
    if (size_ == index_.capacity)
        arenaGrow(index_);
    const std::uint64_t entry = (offset << 8) | hop;
    std::memcpy(arenaPtr(index_, id), &entry, 8);
    ++size_;

    lastState_.assign(state, state + stride_);
    lastId_ = id;
    return id;
}

unsigned
StateStore::hopOf(std::uint32_t id) const
{
    if (tier_ != StoreTier::Delta || id >= size_)
        return 0;
    std::uint64_t entry;
    std::memcpy(&entry, arenaPtr(index_, id), 8);
    return static_cast<unsigned>(entry & 0xff);
}

void
StateStore::reconstruct(std::uint32_t id, std::uint8_t *out) const
{
    // Walk the chain to the anchor (≤ anchorEvery_ hops), then apply
    // the diffs newest-last. Every record on the chain was fully
    // written before `id` was published, so lock-free reads see
    // complete bytes.
    std::uint64_t offs[256];
    unsigned n = 0;
    std::uint32_t cur = id;
    for (;;) {
        std::uint64_t entry;
        std::memcpy(&entry, arenaPtr(index_, cur), 8);
        offs[n++] = entry >> 8;
        if ((entry & 0xff) == 0)
            break;
        const std::uint8_t *r = arenaPtr(bytes_, entry >> 8);
        cur = static_cast<std::uint32_t>(decodeVarint(r));
    }
    std::memcpy(out, arenaPtr(bytes_, offs[n - 1]), stride_);
    for (unsigned i = n - 1; i-- > 0;) {
        const std::uint8_t *r = arenaPtr(bytes_, offs[i]);
        decodeVarint(r); // base id, already consumed via the chain
        const std::uint64_t nDiffs = decodeVarint(r);
        std::size_t pos = 0;
        for (std::uint64_t d = 0; d < nDiffs; ++d) {
            const std::uint64_t gap = decodeVarint(r);
            pos = d == 0 ? static_cast<std::size_t>(gap)
                         : pos + static_cast<std::size_t>(gap) + 1;
            out[pos] = *r++;
        }
    }
}

// ---------------------------------------------------------------- //
// Interning                                                        //
// ---------------------------------------------------------------- //

std::pair<std::uint32_t, bool>
StateStore::internHashed(const std::uint8_t *state,
                         std::uint64_t hash, std::uint32_t baseId,
                         const std::uint8_t *baseBytes)
{
    const std::uint32_t fp = static_cast<std::uint32_t>(hash >> 32);
    const std::size_t mask =
        static_cast<std::size_t>(capacity_) - 1;
    std::size_t i = probeStart(fp);
    std::size_t probes = 0;
    for (;;) {
        const Slot slot = table_[i];
        if (slot.id == kNoId)
            break;
        if (slot.fp == fp && equalsStored(slot.id, state))
            return {slot.id, false};
        i = (i + 1) & mask;
        ++probes;
    }
    const std::uint32_t id =
        tier_ == StoreTier::Delta
            ? pushDelta(state, baseId, baseBytes)
            : pushPlain(state);
    table_[i] = Slot{fp, id};

    unsigned bucket =
        probes == 0
            ? 0
            : static_cast<unsigned>(std::bit_width(probes));
    if (bucket >= kProbeBuckets)
        bucket = kProbeBuckets - 1;
    ++probeHist_[bucket];

    if (size_ * 4 >= capacity_ * 3)
        growTable();
    return {id, true};
}

std::uint32_t
StateStore::lookupHashed(const std::uint8_t *state,
                         std::uint64_t hash) const
{
    const std::uint32_t fp = static_cast<std::uint32_t>(hash >> 32);
    const std::size_t mask =
        static_cast<std::size_t>(capacity_) - 1;
    std::size_t i = probeStart(fp);
    for (;;) {
        const Slot slot = table_[i];
        if (slot.id == kNoId)
            return kNoId;
        if (slot.fp == fp && equalsStored(slot.id, state))
            return slot.id;
        i = (i + 1) & mask;
    }
}

void
StateStore::internBatchHashed(const std::uint8_t *const *states,
                              const std::uint64_t *hashes,
                              std::size_t n, std::uint32_t baseId,
                              const std::uint8_t *baseBytes,
                              std::pair<std::uint32_t, bool> *out)
{
    // One pass of ordinary interns: each element sees every earlier
    // element's insertion (in-batch dedup), delta records chain off
    // the shared base exactly as the single-intern path would, and
    // table growth mid-batch is handled by the intern itself.
    for (std::size_t k = 0; k < n; ++k)
        out[k] = internHashed(states[k], hashes[k], baseId, baseBytes);
}

std::uint64_t
StateStore::memoryBytes() const
{
    std::uint64_t bytes = sizeof(StateStore);
    // Touched payload only: untouched tail pages of the newest slab
    // were never written, so they are virtual, not resident.
    if (tier_ == StoreTier::Plain) {
        bytes += size_ * stride_;
    } else {
        // Both the varint records AND the anchor index are charged —
        // the index is 8 bytes/state, often bigger than the records
        // themselves, and forgetting it once broke the ±5% bound.
        bytes += byteTail_ + size_ * index_.elemSize;
        bytes += lastState_.capacity() + cmpBuf_.capacity();
    }
    const std::uint64_t nSlabs =
        states_.nSlabs + bytes_.nSlabs + index_.nSlabs;
    bytes += nSlabs * 32; // allocator/bookkeeping headers
    bytes += capacity_ * sizeof(Slot);
    return bytes;
}

} // namespace neo
