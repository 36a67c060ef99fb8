/**
 * @file
 * Unit tests for the simulation kernel: event ordering, cancellation,
 * limits, pooled one-shot lifetimes, RNG determinism and distribution
 * sanity, statistics.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"

using namespace neo;

namespace
{

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.curTick(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(7, [&order, i] { order.push_back(i); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsMayScheduleEvents)
{
    EventQueue q;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 10)
            q.schedule(q.curTick() + 5, chain);
    };
    q.schedule(0, chain);
    q.run();
    EXPECT_EQ(fired, 10);
    EXPECT_EQ(q.curTick(), 45u);
}

TEST(EventQueue, RespectsTickLimit)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.schedule(100, [&] { ++fired; });
    q.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(q.empty());
    q.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RespectsEventLimit)
{
    EventQueue q;
    for (int i = 0; i < 100; ++i)
        q.schedule(static_cast<Tick>(i), [] {});
    EXPECT_EQ(q.run(maxTick, 40), 40u);
    EXPECT_EQ(q.pending(), 60u);
}

class CountingEvent : public Event
{
  public:
    void process() override { ++count; }
    int count = 0;
};

TEST(EventQueue, DescheduleCancels)
{
    EventQueue q;
    CountingEvent ev;
    q.schedule(&ev, 10);
    EXPECT_TRUE(ev.scheduled());
    q.deschedule(&ev);
    EXPECT_FALSE(ev.scheduled());
    q.run();
    EXPECT_EQ(ev.count, 0);
    // Rescheduling after a cancel works (generation bump).
    q.schedule(&ev, 20);
    q.run();
    EXPECT_EQ(ev.count, 1);
}

/** Counts how many of its copies are destroyed; moved-from shells do
 *  not count, so each scheduled callable counts once. */
struct DtorCounter
{
    explicit DtorCounter(int *dtors, int *calls)
        : dtors_(dtors), calls_(calls)
    {
    }
    DtorCounter(DtorCounter &&o) noexcept
        : dtors_(std::exchange(o.dtors_, nullptr)), calls_(o.calls_)
    {
    }
    DtorCounter(const DtorCounter &) = delete;
    ~DtorCounter()
    {
        if (dtors_ != nullptr)
            ++*dtors_;
    }
    void operator()() { ++*calls_; }

    int *dtors_;
    int *calls_;
};

TEST(EventQueue, OneShotIsDestroyedOnceWhenItFires)
{
    int dtors = 0, calls = 0;
    {
        EventQueue q;
        q.schedule(5, DtorCounter(&dtors, &calls));
        EXPECT_EQ(dtors, 0);
        q.run();
        EXPECT_EQ(calls, 1);
        EXPECT_EQ(dtors, 1); // right after it ran, not with the queue
    }
    EXPECT_EQ(dtors, 1);
}

TEST(EventQueue, PendingOneShotIsDestroyedOnceWithTheQueue)
{
    int dtors = 0, calls = 0;
    {
        EventQueue q;
        q.schedule(5, DtorCounter(&dtors, &calls));
        q.schedule(500, DtorCounter(&dtors, &calls));
        q.run(100);
        EXPECT_EQ(calls, 1);
        EXPECT_EQ(dtors, 1);
        EXPECT_EQ(q.pending(), 1u);
    }
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(dtors, 2);
}

TEST(EventQueue, OneShotMaySchedulePastRecycledNodes)
{
    // Each one-shot schedules the next from inside its own call, while
    // earlier nodes are back on the free list; a capture that landed
    // in the wrong node would break the countdown or the tick trail.
    EventQueue q;
    std::vector<Tick> ticks;
    std::function<void(int)> step = [&](int left) {
        ticks.push_back(q.curTick());
        if (left == 0)
            return;
        q.schedule(q.curTick() + 3, [&step, left] { step(left - 1); });
        q.schedule(q.curTick() + 1, [&ticks] { ticks.push_back(0); });
    };
    q.schedule(0, [&step] { step(20); });
    EXPECT_EQ(q.run(), 41u);
    ASSERT_EQ(ticks.size(), 41u);
    for (std::size_t i = 0; i < 21; ++i)
        EXPECT_EQ(ticks[2 * i], 3 * i) << "step " << i;
    for (std::size_t i = 1; i < 41; i += 2)
        EXPECT_EQ(ticks[i], 0u);
}

TEST(EventQueue, MoveOnlyCaptureFiresAndFrees)
{
    EventQueue q;
    int got = 0;
    auto box = std::make_unique<int>(7);
    q.schedule(1, [&got, b = std::move(box)] { got = *b; });
    q.run();
    EXPECT_EQ(got, 7);
}

TEST(Random, DeterministicPerSeed)
{
    Random a(42), b(42), c(43);
    bool diverged = false;
    for (int i = 0; i < 100; ++i) {
        const auto va = a.next();
        EXPECT_EQ(va, b.next());
        if (va != c.next())
            diverged = true;
    }
    EXPECT_TRUE(diverged);
}

TEST(Random, BelowIsInRangeAndCoversIt)
{
    Random rng(7);
    std::vector<int> seen(10, 0);
    for (int i = 0; i < 10'000; ++i) {
        const auto v = rng.below(10);
        ASSERT_LT(v, 10u);
        ++seen[v];
    }
    for (int i = 0; i < 10; ++i)
        EXPECT_GT(seen[i], 700) << "bucket " << i << " starved";
}

TEST(Random, ChanceMatchesProbability)
{
    Random rng(11);
    int hits = 0;
    for (int i = 0; i < 100'000; ++i)
        hits += rng.chance(0.25) ? 1 : 0;
    EXPECT_NEAR(hits / 100'000.0, 0.25, 0.01);
}

TEST(Random, GeometricHasRequestedMean)
{
    Random rng(13);
    double total = 0;
    constexpr int n = 200'000;
    for (int i = 0; i < n; ++i)
        total += static_cast<double>(rng.geometric(8.0));
    EXPECT_NEAR(total / n, 8.0, 0.5);
}

TEST(SampleStat, WelfordMatchesClosedForm)
{
    SampleStat s("x");
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.sample(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stdev(), 2.138, 0.001); // sample stdev
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
}

TEST(SampleStat, EdgeCases)
{
    SampleStat s("x");
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stdev(), 0.0);
    s.sample(3.5);
    EXPECT_EQ(s.mean(), 3.5);
    EXPECT_EQ(s.stdev(), 0.0); // single sample
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h("lat", 10.0, 4);
    for (double v : {0.0, 5.0, 15.0, 35.0, 39.9, 40.0, 1000.0})
        h.sample(v);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 0u);
    EXPECT_EQ(h.bucket(3), 2u);
    EXPECT_EQ(h.bucket(4), 2u); // overflow
    EXPECT_EQ(h.count(), 7u);
}

} // namespace
