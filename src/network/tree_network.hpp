/**
 * @file
 * Tree-topology interconnection network.
 *
 * The physical network mirrors the logical coherence tree: one
 * bidirectional link per parent-child edge, with a crossbar at each
 * internal node, so sibling traffic crosses two links via the shared
 * parent switch and arbitrary (non-sibling) traffic is routed through
 * the lowest common ancestor. Links have a fixed per-hop latency and a
 * serialization bandwidth (Table 1: 1 cycle, 32 GB/s => 16 B/cycle at
 * 2 GHz); contention is modeled with per-directed-link occupancy.
 *
 * The network does NOT guarantee point-to-point ordering (the paper's
 * NeoMESI is designed for such networks, which is why its directories
 * block): an optional bounded random jitter can reorder same-path
 * messages.
 */

#ifndef NEO_NETWORK_TREE_NETWORK_HPP
#define NEO_NETWORK_TREE_NETWORK_HPP

#include <cstdint>
#include <vector>

#include "network/message.hpp"
#include "sim/fault.hpp"
#include "sim/random.hpp"
#include "sim/sim_object.hpp"
#include "sim/stats.hpp"

namespace neo
{

struct NetworkParams
{
    Tick linkLatency = 1;
    /** Bytes transferable per tick on one link (32 GB/s / 2 GHz). */
    double bytesPerTick = 16.0;
    /** Max extra random delay per message; 0 keeps delivery FIFO. */
    Tick maxJitter = 0;
    std::uint64_t jitterSeed = 1;
};

class TreeNetwork : public SimObject, public MessageConsumer
{
  public:
    TreeNetwork(std::string name, EventQueue &eventq,
                const NetworkParams &params);

    /**
     * Register a node. The root is added with parent == invalidNode;
     * every other node names an already-registered parent.
     * @return the new node's id.
     */
    NodeId addNode(MessageConsumer *sink, NodeId parent);

    /** Route and deliver a message after the modeled delay. */
    void deliver(MessagePtr msg) override;

    /** Path length in links between two registered nodes. */
    unsigned hops(NodeId a, NodeId b) const;

    NodeId parentOf(NodeId n) const { return nodes_.at(n).parent; }
    const std::vector<NodeId> &
    childrenOf(NodeId n) const
    {
        return nodes_.at(n).children;
    }
    std::size_t numNodes() const { return nodes_.size(); }

    /** True when a and b share the same parent (or one is the other's
     *  parent — one link apart either way in the tree). */
    bool
    areSiblings(NodeId a, NodeId b) const
    {
        return nodes_.at(a).parent != invalidNode &&
               nodes_.at(a).parent == nodes_.at(b).parent;
    }

    const Scalar &messageCount() const { return messages_; }
    const Scalar &totalBytes() const { return bytes_; }
    const SampleStat &hopStat() const { return hopStat_; }
    const SampleStat &latencyStat() const { return latencyStat_; }
    /** Messages handed to a sink (excludes drops and parked traffic;
     *  includes fault-injected duplicate copies). */
    const Scalar &deliveredCount() const { return delivered_; }
    /** Messages parked forever behind a permanent blackout. */
    const Scalar &parkedCount() const { return parkedMessages_; }

    /**
     * Install (or clear) the transport fault injector. With no
     * injector the data path is bit-identical to the fault-free
     * network. Not owned; must outlive the network's use of it.
     */
    void setFaultInjector(FaultInjector *fi) { faults_ = fi; }
    FaultInjector *faultInjector() { return faults_; }

    void addStats(StatGroup &group) const;

  private:
    struct NodeInfo
    {
        MessageConsumer *sink = nullptr;
        NodeId parent = invalidNode;
        unsigned depth = 0;
        std::vector<NodeId> children;
    };

    /** Occupancy of one directed link, keyed by (childEnd, up?). */
    Tick &
    linkBusy(NodeId child_end, bool upward)
    {
        return linkBusy_[(static_cast<std::size_t>(child_end) << 1) |
                         (upward ? 1 : 0)];
    }

    /** Schedule the sink handoff of @p msg at @p arrive. */
    void scheduleDelivery(MessagePtr msg, Tick arrive);

    NetworkParams params_;
    std::vector<NodeInfo> nodes_;
    /** Busy-until tick per directed link, at childEnd << 1 | up. */
    std::vector<Tick> linkBusy_;
    /** deliver()'s downward leg: child endpoints from the LCA down. */
    std::vector<NodeId> downPath_;
    Random jitterRng_;
    FaultInjector *faults_ = nullptr;
    std::uint64_t msgSeq_ = 0;
    /** Traffic caught behind a permanent blackout: held, never
     *  scheduled, so a severed subtree drains the event queue fast. */
    std::vector<MessagePtr> parked_;

    Scalar messages_{"network.messages"};
    Scalar bytes_{"network.bytes"};
    SampleStat hopStat_{"network.hops"};
    SampleStat latencyStat_{"network.latency"};
    Scalar delivered_{"network.delivered"};
    Scalar parkedMessages_{"network.parked"};
};

} // namespace neo

#endif // NEO_NETWORK_TREE_NETWORK_HPP
