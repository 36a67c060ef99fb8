#include "event_queue.hpp"

namespace neo
{

EventQueue::~EventQueue()
{
    // Destroy the callables of one-shots that never fired. Only pooled
    // nodes are touched: caller-owned events are left alone.
    for (OneShot &node : pool_) {
        if (node.scheduled_)
            node.call(node.buf, false);
    }
}

EventQueue::OneShot *
EventQueue::acquire()
{
    if (free_ == nullptr) {
        OneShot &node = pool_.emplace_back();
        node.owned_ = true;
        return &node;
    }
    OneShot *node = free_;
    free_ = node->nextFree;
    return node;
}

void
EventQueue::schedule(Event *ev, Tick when)
{
    neo_assert(ev != nullptr, "scheduling null event");
    neo_assert(!ev->scheduled_, "event already scheduled");
    neo_assert(when >= curTick_, "scheduling event in the past: when=",
               when, " curTick=", curTick_);
    ev->scheduled_ = true;
    ev->when_ = when;
    ev->seq_ = nextSeq_++;
    ++ev->generation_;
    queue_.push(Entry{when, ev->seq_, ev->generation_, ev});
    ++live_;
}

void
EventQueue::deschedule(Event *ev)
{
    neo_assert(ev != nullptr && ev->scheduled_,
               "descheduling an unscheduled event");
    // Lazy deletion: bump the generation so the stale heap entry is
    // skipped when popped.
    ev->scheduled_ = false;
    ++ev->generation_;
    --live_;
}

bool
EventQueue::runOne()
{
    while (!queue_.empty()) {
        Entry e = queue_.top();
        queue_.pop();
        if (e.generation != e.ev->generation_ || !e.ev->scheduled_)
            continue; // cancelled entry
        neo_assert(e.when >= curTick_, "event queue went backwards");
        curTick_ = e.when;
        e.ev->scheduled_ = false;
        --live_;
        ++processed_;
        Event *ev = e.ev;
        const bool owned = ev->owned_;
        ev->process();
        if (owned) {
            // The callable ran and is destroyed; recycle the node.
            auto *node = static_cast<OneShot *>(ev);
            node->nextFree = free_;
            free_ = node;
        }
        return true;
    }
    return false;
}

std::uint64_t
EventQueue::run(Tick limit, std::uint64_t max_events)
{
    std::uint64_t n = 0;
    stopRequested_ = false;
    while (n < max_events) {
        // Peek for the limit check without consuming cancelled entries.
        bool found = false;
        while (!queue_.empty()) {
            const Entry &e = queue_.top();
            if (e.generation != e.ev->generation_ || !e.ev->scheduled_) {
                queue_.pop();
                continue;
            }
            found = true;
            break;
        }
        if (!found)
            break;
        if (queue_.top().when > limit)
            break;
        runOne();
        ++n;
        if (stopRequested_)
            break;
    }
    return n;
}

} // namespace neo
