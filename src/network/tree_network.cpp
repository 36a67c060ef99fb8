#include "tree_network.hpp"

#include <algorithm>

namespace neo
{

TreeNetwork::TreeNetwork(std::string name, EventQueue &eventq,
                         const NetworkParams &params)
    : SimObject(std::move(name), eventq), params_(params),
      jitterRng_(params.jitterSeed)
{
}

NodeId
TreeNetwork::addNode(MessageConsumer *sink, NodeId parent)
{
    neo_assert(sink != nullptr, "network node needs a sink");
    const auto id = static_cast<NodeId>(nodes_.size());
    NodeInfo info;
    info.sink = sink;
    info.parent = parent;
    if (parent == invalidNode) {
        info.depth = 0;
    } else {
        neo_assert(parent < nodes_.size(), "unknown parent node ", parent);
        info.depth = nodes_[parent].depth + 1;
        nodes_[parent].children.push_back(id);
    }
    nodes_.push_back(std::move(info));
    linkBusy_.resize(nodes_.size() * 2, 0);
    return id;
}

unsigned
TreeNetwork::hops(NodeId a, NodeId b) const
{
    neo_assert(a < nodes_.size() && b < nodes_.size(),
               "hops on unregistered node");
    unsigned n = 0;
    NodeId x = a;
    NodeId y = b;
    while (nodes_[x].depth > nodes_[y].depth) {
        x = nodes_[x].parent;
        ++n;
    }
    while (nodes_[y].depth > nodes_[x].depth) {
        y = nodes_[y].parent;
        ++n;
    }
    while (x != y) {
        x = nodes_[x].parent;
        y = nodes_[y].parent;
        n += 2;
    }
    return n;
}

void
TreeNetwork::scheduleDelivery(MessagePtr msg, Tick arrive)
{
    MessageConsumer *sink = nodes_[msg->dst].sink;
    eventq().schedule(arrive, [this, sink, m = std::move(msg)]() mutable {
        ++delivered_;
        sink->deliver(std::move(m));
    });
}

void
TreeNetwork::deliver(MessagePtr msg)
{
    neo_assert(msg->src < nodes_.size() && msg->dst < nodes_.size(),
               "message endpoints not registered");
    neo_assert(msg->src != msg->dst, "message to self: ",
               msg->describe());

    const Tick now = curTick();

    // First offering of this payload: stamp its transport identity.
    // (Protocol-level reissues build fresh Message objects, so they
    // get fresh ids; only fault duplicates share one.)
    if (msg->msgId == 0)
        msg->msgId = ++msgSeq_;

    FaultInjector::Decision fate;
    if (faults_ != nullptr)
        fate = faults_->decide(msg->msgId, now, msg->src, msg->dst);
    if (fate.drop) {
        ++messages_;
        bytes_ += msg->sizeBytes;
        return; // the payload evaporates
    }

    const auto ser_ticks = static_cast<Tick>(
        static_cast<double>(msg->sizeBytes) / params_.bytesPerTick + 0.999);

    // Find the lowest common ancestor, collecting the downward leg.
    NodeId lca;
    downPath_.clear();
    {
        NodeId cx = msg->src;
        NodeId cy = msg->dst;
        while (nodes_[cx].depth > nodes_[cy].depth)
            cx = nodes_[cx].parent;
        while (nodes_[cy].depth > nodes_[cx].depth) {
            downPath_.push_back(cy);
            cy = nodes_[cy].parent;
        }
        while (cx != cy) {
            downPath_.push_back(cy);
            cx = nodes_[cx].parent;
            cy = nodes_[cy].parent;
        }
        lca = cx;
        // downPath_ holds child endpoints from dst upward; reverse so
        // we traverse from the LCA downward.
        std::reverse(downPath_.begin(), downPath_.end());
    }

    // Store-and-forward over the path, charging per-link latency +
    // serialization + occupancy.
    Tick arrive = now;
    unsigned hop_count = 0;
    for (NodeId cx = msg->src; cx != lca; cx = nodes_[cx].parent) {
        Tick &busy = linkBusy(cx, true);
        Tick start = std::max(arrive, busy);
        if (faults_ != nullptr) {
            const Tick release = faults_->linkRelease(cx, true, start);
            if (release != start) {
                faults_->noteHold(msg->msgId, now, msg->src, msg->dst,
                                  release);
                if (release == maxTick) {
                    // Permanently severed: park instead of scheduling
                    // an event at infinity, so the queue can drain.
                    ++messages_;
                    bytes_ += msg->sizeBytes;
                    ++parkedMessages_;
                    parked_.push_back(std::move(msg));
                    return;
                }
                start = release;
            }
        }
        busy = start + ser_ticks;
        arrive = start + ser_ticks + params_.linkLatency;
        ++hop_count;
    }
    // Downward links: from the LCA to dst.
    for (NodeId child_end : downPath_) {
        Tick &busy = linkBusy(child_end, false);
        Tick start = std::max(arrive, busy);
        if (faults_ != nullptr) {
            const Tick release =
                faults_->linkRelease(child_end, false, start);
            if (release != start) {
                faults_->noteHold(msg->msgId, now, msg->src, msg->dst,
                                  release);
                if (release == maxTick) {
                    ++messages_;
                    bytes_ += msg->sizeBytes;
                    ++parkedMessages_;
                    parked_.push_back(std::move(msg));
                    return;
                }
                start = release;
            }
        }
        busy = start + ser_ticks;
        arrive = start + ser_ticks + params_.linkLatency;
        ++hop_count;
    }

    if (params_.maxJitter > 0)
        arrive += jitterRng_.below(params_.maxJitter + 1);
    arrive += fate.delay;

    ++messages_;
    bytes_ += msg->sizeBytes;
    hopStat_.sample(static_cast<double>(hop_count));
    latencyStat_.sample(static_cast<double>(arrive - now));

    if (fate.duplicate) {
        // The clone keeps the original's msgId; ingress dedup at the
        // destination recognizes and discards the extra copy.
        MessagePtr copy = msg->clone();
        scheduleDelivery(std::move(copy), arrive + fate.dupSkew);
    }
    scheduleDelivery(std::move(msg), arrive);
}

void
TreeNetwork::addStats(StatGroup &group) const
{
    group.add(&messages_);
    group.add(&bytes_);
    group.add(&hopStat_);
    group.add(&latencyStat_);
    group.add(&delivered_);
    group.add(&parkedMessages_);
}

} // namespace neo
