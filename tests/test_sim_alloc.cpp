/**
 * @file
 * The event kernel's steady state allocates nothing: once its node pool
 * and heap have grown, scheduling and running one-shot lambdas of up to
 * EventQueue::oneShotBytes reuses them. This binary replaces the global
 * operator new with a counting one, so it stands alone.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/event_queue.hpp"

namespace
{

std::atomic<std::uint64_t> allocations{0};

} // namespace

void *
operator new(std::size_t n)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n != 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace neo;

TEST(EventQueueAlloc, SteadyStateOneShotsAllocateNothing)
{
    EventQueue q;
    std::uint64_t sum = 0;
    const std::array<std::uint64_t, 5> payload{1, 2, 3, 4, 5};
    // Each cycle keeps up to three one-shots in flight: one at the
    // largest size the pool accepts, one with a small capture and one
    // with none, at staggered ticks.
    auto cycle = [&](std::uint64_t i) {
        auto big = [s = &sum, payload] { *s += payload[4]; };
        static_assert(sizeof(big) == EventQueue::oneShotBytes);
        q.schedule(q.curTick() + 1 + i % 3, big);
        q.schedule(q.curTick() + 2, [s = &sum, i] { *s += i & 1; });
        q.schedule(q.curTick() + 1, [] {});
        q.runOne();
        q.runOne();
        q.runOne();
    };
    for (std::uint64_t i = 0; i < 1'000; ++i)
        cycle(i);
    const std::uint64_t before = allocations.load();
    for (std::uint64_t i = 0; i < 100'000; ++i)
        cycle(i);
    const std::uint64_t during = allocations.load() - before;
    q.run();
    EXPECT_EQ(during, 0u);
    EXPECT_GT(sum, 100'000u * 5);
    EXPECT_TRUE(q.empty());
}

/** Where CounterSeesAllocations parks its block, so the compiler
 *  cannot elide the new/delete pair. */
void *volatile escaped = nullptr;

TEST(EventQueueAlloc, CounterSeesAllocations)
{
    // The counting operator new is the one in use.
    const std::uint64_t before = allocations.load();
    escaped = new std::array<int, 64>{};
    EXPECT_EQ(allocations.load() - before, 1u);
    delete static_cast<std::array<int, 64> *>(escaped);
}

} // namespace
