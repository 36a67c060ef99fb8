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

} // namespace

StateStore::StateStore(std::size_t stride,
                       std::uint64_t expectedStates, HashFn hash)
    : stride_(stride == 0 ? 1 : stride),
      hash_(hash != nullptr ? hash : &stateHash)
{
    std::uint64_t cap = kMinCapacity;
    if (expectedStates > 0) {
        // 0.75 load factor: capacity > expected * 4/3.
        while (cap * 3 / 4 <= expectedStates)
            cap <<= 1;
        const unsigned lg = log2Ceil(expectedStates);
        if (lg > firstLog2_)
            firstLog2_ = lg;
    }
    lgCapacity_ = log2Ceil(cap);
    allocTable(cap);
}

StateStore::~StateStore()
{
    for (unsigned k = 0; k < nSlabs_; ++k)
        ::operator delete(slabs_[k]);
    ::operator delete(table_);
}

// ---------------------------------------------------------------- //
// Arena                                                            //
// ---------------------------------------------------------------- //

void
StateStore::growArena()
{
    const unsigned k = nSlabs_;
    if (k >= kMaxSlabs)
        neo_fatal("state arena exhausted: 2^40+ elements");
    const std::uint64_t records = 1ULL << (firstLog2_ + k);
    slabs_[k] = static_cast<std::uint8_t *>(::operator new(
        static_cast<std::size_t>(records * stride_)));
    nSlabs_ = k + 1;
    arenaCapacity_ += records;
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
    if (nSlabs_ == 0 && lg > firstLog2_)
        firstLog2_ = lg;
    std::uint64_t cap = capacity_;
    while (cap * 3 / 4 <= expectedStates)
        cap <<= 1;
    while (capacity_ < cap)
        growTable();
}

// ---------------------------------------------------------------- //
// Interning                                                        //
// ---------------------------------------------------------------- //

std::pair<std::uint32_t, bool>
StateStore::internHashed(const std::uint8_t *state, std::uint64_t hash)
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
    if (size_ == arenaCapacity_)
        growArena();
    const std::uint32_t id = static_cast<std::uint32_t>(size_);
    std::memcpy(record(id), state, stride_);
    ++size_;
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
StateStore::prefetchCandidate(std::uint64_t hash) const
{
    const std::uint32_t fp = static_cast<std::uint32_t>(hash >> 32);
    const std::size_t mask =
        static_cast<std::size_t>(capacity_) - 1;
    for (std::size_t i = probeStart(fp);; i = (i + 1) & mask) {
        const Slot slot = table_[i];
        if (slot.id == kNoId)
            return;
        if (slot.fp == fp) {
            const std::uint8_t *p = record(slot.id);
            __builtin_prefetch(p);
            __builtin_prefetch(p + stride_ - 1);
            return;
        }
    }
}

std::uint64_t
StateStore::memoryBytes() const
{
    // Touched records only: untouched tail pages of the newest slab
    // were never written, so they are virtual, not resident.
    return sizeof(StateStore) + size_ * stride_ +
           nSlabs_ * 32 + // allocator/bookkeeping headers
           capacity_ * sizeof(Slot);
}

} // namespace neo
