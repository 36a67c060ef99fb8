/**
 * @file
 * Bounded lock-free MPMC ring buffer + spill-backed frontier queue.
 *
 * The parallel explorer's per-worker frontier used to be a
 * mutex-guarded vector; with the visited set already lock-free on the
 * read side (state_store.hpp), the push/pop mutex pair was the
 * dominant synchronization cost on BM_CheckerParallelScaling. The
 * replacement is the classic Vyukov bounded MPMC queue: each cell
 * carries an atomic sequence number, producers and consumers claim
 * positions with a CAS on the enqueue/dequeue counters, and the
 * per-cell sequence handshake orders the payload access so no cell is
 * read before its writer's release store or rewritten before its
 * reader's release store.
 *
 * Happens-before contract (replacing the old intern -> mutex-push ->
 * mutex-pop chain): a producer writes the payload, then
 * release-stores the cell sequence; the consumer acquire-loads that
 * sequence before touching the payload. For the explorer this is what
 * publishes an interned state id: the id's arena bytes are written
 * under the owning shard's mutex BEFORE the push, the push's release
 * store sequences-after the unlock, and the popper's acquire load
 * therefore sees the fully-written arena record — copyTo() stays
 * lock-free exactly as under the mutex queue.
 *
 * Boundedness never deadlocks the work-stealing loop: SpillFrontier
 * wraps a ring with a mutex-guarded overflow deque. push() falls back
 * to the deque when the ring is full (counted in spillPushes()), so a
 * producer can always publish; pop() prefers the ring and drains the
 * spill only when the ring is empty. Thieves pop the same MPMC ring,
 * so "steal" and "pop" are the same operation.
 *
 * forEachQuiescent()/forEach() iterate live elements WITHOUT claiming
 * them and are only legal while every producer and consumer is parked
 * (the checkpoint pause-rendezvous): quiescence means every cell in
 * [deqPos, enqPos) has a fully-published payload and nobody is
 * concurrently recycling cells.
 */

#ifndef NEO_VERIF_MPMC_RING_HPP
#define NEO_VERIF_MPMC_RING_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>

namespace neo
{

template <typename T>
class MpmcRing
{
  public:
    /** @param capacity element slots, rounded up to a power of two
     *  (minimum 4) so positions fold with a mask. */
    explicit MpmcRing(std::size_t capacity)
    {
        std::size_t cap = 4;
        while (cap < capacity)
            cap <<= 1;
        mask_ = cap - 1;
        cells_ = std::make_unique<Cell[]>(cap);
        for (std::size_t i = 0; i < cap; ++i)
            cells_[i].seq.store(i, std::memory_order_relaxed);
        enqPos_.store(0, std::memory_order_relaxed);
        deqPos_.store(0, std::memory_order_relaxed);
    }

    MpmcRing(const MpmcRing &) = delete;
    MpmcRing &operator=(const MpmcRing &) = delete;

    /** @return false when the ring is full (caller spills). */
    bool
    tryPush(T v)
    {
        Cell *cell;
        std::size_t pos = enqPos_.load(std::memory_order_relaxed);
        for (;;) {
            cell = &cells_[pos & mask_];
            const std::size_t seq =
                cell->seq.load(std::memory_order_acquire);
            const auto dif = static_cast<std::intptr_t>(seq) -
                             static_cast<std::intptr_t>(pos);
            if (dif == 0) {
                // The cell is free for exactly this position; claim
                // it. A weak CAS failure reloads pos and retries.
                if (enqPos_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed))
                    break;
            } else if (dif < 0) {
                return false; // full: the cell still holds lap pos-cap
            } else {
                pos = enqPos_.load(std::memory_order_relaxed);
            }
        }
        cell->val = std::move(v);
        cell->seq.store(pos + 1, std::memory_order_release);
        return true;
    }

    /** @return false when the ring is empty. */
    bool
    tryPop(T &out)
    {
        Cell *cell;
        std::size_t pos = deqPos_.load(std::memory_order_relaxed);
        for (;;) {
            cell = &cells_[pos & mask_];
            const std::size_t seq =
                cell->seq.load(std::memory_order_acquire);
            const auto dif = static_cast<std::intptr_t>(seq) -
                             static_cast<std::intptr_t>(pos + 1);
            if (dif == 0) {
                if (deqPos_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed))
                    break;
            } else if (dif < 0) {
                return false; // empty: the producer has not published
            } else {
                pos = deqPos_.load(std::memory_order_relaxed);
            }
        }
        out = std::move(cell->val);
        // Recycle the cell for the producer one lap ahead.
        cell->seq.store(pos + mask_ + 1, std::memory_order_release);
        return true;
    }

    std::size_t capacity() const { return mask_ + 1; }

    /** Racy size estimate (monitoring only). */
    std::size_t
    sizeApprox() const
    {
        const std::size_t e = enqPos_.load(std::memory_order_relaxed);
        const std::size_t d = deqPos_.load(std::memory_order_relaxed);
        return e >= d ? e - d : 0;
    }

    /** Fixed allocation charged against the memory budget. */
    std::uint64_t
    memoryBytes() const
    {
        return static_cast<std::uint64_t>(capacity()) * sizeof(Cell);
    }

    /** Visit every queued element oldest-first without consuming it.
     *  Legal ONLY while all producers/consumers are quiescent (the
     *  checkpoint rendezvous): then every position in [deq, enq) is a
     *  fully-published cell. */
    template <typename Fn>
    void
    forEachQuiescent(Fn &&fn) const
    {
        const std::size_t e = enqPos_.load(std::memory_order_acquire);
        for (std::size_t pos =
                 deqPos_.load(std::memory_order_acquire);
             pos != e; ++pos)
            fn(cells_[pos & mask_].val);
    }

  private:
    struct Cell
    {
        std::atomic<std::size_t> seq;
        T val;
    };

    std::unique_ptr<Cell[]> cells_;
    std::size_t mask_ = 0;
    /** On separate cache lines: producers hammer enqPos_, consumers
     *  deqPos_; sharing a line would put the counters' CAS traffic
     *  back on one contended line like the old mutex. */
    alignas(64) std::atomic<std::size_t> enqPos_;
    alignas(64) std::atomic<std::size_t> deqPos_;
};

/**
 * A never-full frontier: a bounded MPMC ring with a mutex-guarded
 * overflow deque. The ring absorbs the steady-state traffic
 * lock-free; the deque only sees the bursts that outrun consumers, so
 * boundedness can never wedge a producer that still holds work.
 */
template <typename T>
class SpillFrontier
{
  public:
    explicit SpillFrontier(std::size_t ringCapacity)
        : ring_(ringCapacity)
    {
    }

    /** Never fails: full ring -> spill deque. */
    void
    push(T v)
    {
        if (ring_.tryPush(std::move(v)))
            return;
        std::lock_guard<std::mutex> g(mu_);
        spill_.push_back(std::move(v));
        ++spillPushes_;
    }

    /** Ring first (lock-free fast path), then the spill deque
     *  oldest-first. */
    bool
    pop(T &out)
    {
        if (ring_.tryPop(out))
            return true;
        std::lock_guard<std::mutex> g(mu_);
        if (spill_.empty())
            return false;
        out = std::move(spill_.front());
        spill_.pop_front();
        return true;
    }

    /** Thieves pop the same MPMC ring — no separate steal end. */
    bool steal(T &out) { return pop(out); }

    /** Quiescent-only iteration over ring + spill (checkpoint
     *  serialization; see MpmcRing::forEachQuiescent). */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        ring_.forEachQuiescent(fn);
        std::lock_guard<std::mutex> g(mu_);
        for (const T &v : spill_)
            fn(v);
    }

    /** Pushes that overflowed into the spill deque (cumulative). */
    std::uint64_t
    spillPushes() const
    {
        std::lock_guard<std::mutex> g(mu_);
        return spillPushes_;
    }

    std::size_t
    spillDepth() const
    {
        std::lock_guard<std::mutex> g(mu_);
        return spill_.size();
    }

    /** Standing footprint: the ring's fixed cell array (the spill
     *  deque's elements are charged per-item by the engine). */
    std::uint64_t memoryBytes() const { return ring_.memoryBytes(); }

  private:
    MpmcRing<T> ring_;
    mutable std::mutex mu_;
    std::deque<T> spill_;
    std::uint64_t spillPushes_ = 0;
};

} // namespace neo

#endif // NEO_VERIF_MPMC_RING_HPP
