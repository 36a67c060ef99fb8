/**
 * @file
 * The discrete-event simulation kernel.
 *
 * A single EventQueue orders Events by (tick, insertion sequence), so
 * same-tick events run in a deterministic FIFO order. Controllers and
 * the network schedule work by posting events; the kernel owns global
 * simulated time.
 *
 * One-shot callables (schedule(tick, fn)) live inside pooled nodes the
 * queue owns: the callable is built in the node's inline buffer, run,
 * destroyed, and the node goes back to a free list. Steady-state
 * scheduling therefore allocates nothing.
 */

#ifndef NEO_SIM_EVENT_QUEUE_HPP
#define NEO_SIM_EVENT_QUEUE_HPP

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hpp"
#include "sim/types.hpp"

namespace neo
{

class EventQueue;

/**
 * Base class for schedulable work. Derive and implement process(), or
 * use EventQueue::schedule(tick, fn) for one-shot lambdas.
 */
class Event
{
  public:
    virtual ~Event() = default;

    /** Callback invoked when simulated time reaches the scheduled tick. */
    virtual void process() = 0;

    /** True while sitting in an event queue. */
    bool scheduled() const { return scheduled_; }

    /** Tick this event is scheduled for (valid only while scheduled). */
    Tick when() const { return when_; }

  private:
    friend class EventQueue;

    bool scheduled_ = false;
    /** A pooled one-shot node owned by the queue. */
    bool owned_ = false;
    Tick when_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t generation_ = 0;
};

/**
 * A priority queue of events plus the global simulated clock.
 */
class EventQueue
{
  public:
    /** Largest one-shot callable schedule(tick, fn) accepts. */
    static constexpr std::size_t oneShotBytes = 48;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue();

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /**
     * Schedule @p ev at absolute time @p when (>= curTick()).
     * The caller retains ownership of the event.
     */
    void schedule(Event *ev, Tick when);

    /** Remove a pending event; it may later be rescheduled. */
    void deschedule(Event *ev);

    /**
     * Schedule a one-shot callable at absolute time @p when. The
     * callable is moved into a pooled node and destroyed right after
     * it runs (or with the queue, if it never does).
     */
    template <typename F>
    void schedule(Tick when, F &&fn);

    /** True when no events are pending. */
    bool empty() const { return live_ != 0 ? false : true; }

    /** Number of live (non-cancelled) pending events. */
    std::uint64_t pending() const { return live_; }

    /**
     * Run events until the queue drains, @p limit ticks pass, or
     * @p max_events events have been processed.
     *
     * @return number of events processed.
     */
    std::uint64_t run(Tick limit = maxTick,
                      std::uint64_t max_events = UINT64_MAX);

    /** Process exactly one event if any is pending.
     *  @return true if an event ran. */
    bool runOne();

    /**
     * Ask the current run() loop to return after the event in
     * progress (used by the watchdog to abort a hung simulation).
     * Cleared on the next run() entry.
     */
    void requestStop() { stopRequested_ = true; }

    /** Total events processed over the queue's lifetime. */
    std::uint64_t processedCount() const { return processed_; }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        std::uint64_t generation;
        Event *ev;

        bool
        operator>(const Entry &o) const
        {
            if (when != o.when)
                return when > o.when;
            return seq > o.seq;
        }
    };

    /** A pooled node holding one one-shot callable in place. */
    class OneShot final : public Event
    {
      public:
        /** Runs the callable (if @p run) and destroys it. */
        using CallFn = void (*)(void *buf, bool run);

        void process() override { call(buf, true); }

        alignas(std::max_align_t) unsigned char buf[oneShotBytes];
        CallFn call = nullptr;
        OneShot *nextFree = nullptr;
    };

    /** A free node, from the free list or freshly pooled. */
    OneShot *acquire();

    std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>
        queue_;
    /** Every one-shot node ever made; a deque keeps them in place. */
    std::deque<OneShot> pool_;
    OneShot *free_ = nullptr;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t live_ = 0;
    std::uint64_t processed_ = 0;
    bool stopRequested_ = false;
};

template <typename F>
void
EventQueue::schedule(Tick when, F &&fn)
{
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= oneShotBytes,
                  "one-shot callable exceeds EventQueue::oneShotBytes; "
                  "capture less, or capture a pointer");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "one-shot callable is over-aligned");
    OneShot *node = acquire();
    ::new (static_cast<void *>(node->buf)) Fn(std::forward<F>(fn));
    node->call = [](void *buf, bool run) {
        Fn &f = *std::launder(static_cast<Fn *>(buf));
        if (run)
            f();
        f.~Fn();
    };
    schedule(node, when);
}

} // namespace neo

#endif // NEO_SIM_EVENT_QUEUE_HPP
