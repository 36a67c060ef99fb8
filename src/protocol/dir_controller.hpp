/**
 * @file
 * Directory controller: internal and root nodes of the hierarchy.
 *
 * Each directory is collocated with a cache (L2/L3 per Figure 7) and
 * provides MESI (MOESI under NS-MOESI) permissions for its children,
 * exactly as Section 3 describes:
 *
 *  - It keeps, per block, the Neo `Permission` variable summarizing
 *    the permission the whole subtree below it appears to hold, and
 *    enforces the permission principle (no child may exceed it).
 *  - When a child request cannot be satisfied under the current
 *    Permission, the request is relayed to the parent directory,
 *    indistinguishably from how an L1 talks to a directory (this is
 *    what makes an Open Neo System implement a leaf).
 *  - Directories block per-block from request receipt until the
 *    requester's Unblock (NeoMESI assumes no point-to-point network
 *    ordering); under NS-MOESI the block is released as soon as the
 *    responses are dispatched (non-blocking directories, §5.1.2).
 *  - The hierarchy is fully inclusive in metadata: children hold a
 *    block only if the directory tracks it, children are recalled
 *    before a directory eviction, and children send explicit eviction
 *    notifications (PutS/PutE/PutM/PutO).
 *
 * The root directory owns all blocks (its Permission is conceptually M
 * for the whole address space) and fronts the DRAM model.
 */

#ifndef NEO_PROTOCOL_DIR_CONTROLLER_HPP
#define NEO_PROTOCOL_DIR_CONTROLLER_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/cache_array.hpp"
#include "mem/dram.hpp"
#include "network/tree_network.hpp"
#include "protocol/coherence_msg.hpp"
#include "protocol/protocol_config.hpp"
#include "sim/fault.hpp"
#include "sim/sim_object.hpp"
#include "sim/stats.hpp"

namespace neo
{

/** Transaction modes of a directory TBE. */
enum class DirMode : std::uint8_t
{
    LocalRead,  ///< child GetS satisfiable within the subtree
    LocalWrite, ///< child GetM satisfiable within the subtree
    FetchRead,  ///< child GetS relayed to the parent
    FetchWrite, ///< child GetM relayed to the parent (incl. upgrades)
    ExtRead,    ///< parent Fwd_GetS being served
    ExtWrite,   ///< parent Fwd_GetM being served
    ExtInv,     ///< parent Inv being served (recursive invalidation)
    Evict,      ///< recalling children before a capacity eviction
    EvictWB,    ///< writeback sent; awaiting the parent's PutAck
};

const char *dirModeName(DirMode m);

class DirController : public SimObject, public MessageConsumer
{
  public:
    using TraceFn = std::function<void(const std::string &)>;

    /**
     * Construct an intermediate directory (parent is a registered
     * node) or the root (parent == invalidNode, @p dram non-null).
     */
    DirController(std::string name, EventQueue &eventq, TreeNetwork &net,
                  NodeId parent, const CacheGeometry &geom,
                  const ProtocolConfig &cfg, DramModel *dram = nullptr);

    NodeId nodeId() const { return nodeId_; }
    NodeId parentId() const { return parent_; }
    bool isRoot() const { return parent_ == invalidNode; }

    void deliver(MessagePtr msg) override;

    void setTrace(TraceFn fn) { trace_ = std::move(fn); }

    /** The Neo Permission variable for @p addr (I when untracked). */
    Perm blockPerm(Addr addr) const;

    /** True when no transaction is in flight at this directory. */
    bool quiescent() const { return tbes_.empty() && retryQueue_.empty(); }

    /** Directory-entry view for the global coherence checker. */
    struct EntryView
    {
        Addr addr;
        Perm perm;
        std::uint64_t sharers; ///< bitmask over child slots
        int owner;             ///< child slot or -1
        bool dataValid;
        bool dirty;
    };
    void forEachEntry(const std::function<void(const EntryView &)> &fn)
        const;

    /** Child node id for a slot index (checker support). */
    NodeId childAt(std::size_t slot) const;
    std::size_t numChildren() const;

    /** Render in-flight transaction state (deadlock diagnostics). */
    std::string debugDump() const;

    /**
     * Arm fault recovery: ingress duplicate suppression, stale
     * response/reissue tolerance, and a periodic sweep that re-drives
     * transactions idle for a full directory timeout. Never called on
     * fault-free runs, keeping them bit-identical.
     */
    void setResilience(const RecoveryParams &rec);

    /** Requests parked waiting for a way or a retired TBE. */
    std::size_t retryQueueDepth() const { return retryQueue_.size(); }

    // Statistics (§5.3: blocked-request fractions are
    // blockedArrivals / requestArrivals).
    const Scalar &requestArrivals() const { return requestArrivals_; }
    const Scalar &blockedArrivals() const { return blockedArrivals_; }
    /** Sweep/reissue-triggered re-sends of outstanding messages. */
    const Scalar &redrives() const { return redrives_; }
    const Scalar &staleDrops() const { return staleDrops_; }
    const Scalar &dupDrops() const { return dupDrops_; }
    void addStats(StatGroup &group) const;

  private:
    struct DirEntry
    {
        Perm perm = Perm::I;
        std::uint64_t sharers = 0;
        int owner = -1;
        /** Collocated copy usable to serve readers. */
        bool dataValid = false;
        /** Collocated copy dirty wrt the parent level. */
        bool dirty = false;
        /** Unblocks outstanding under non-blocking directories. */
        std::uint8_t pendingUnblocks = 0;
    };

    struct TBE
    {
        DirMode mode = DirMode::LocalRead;
        NodeId requester = invalidNode; ///< local child being served
        NodeId extTarget = invalidNode; ///< Fwd data destination
        bool extToParent = false;
        NodeId globalRequester = invalidNode;
        int acksLeft = 0;
        bool waitingData = false;
        bool waitingUnblock = false;
        /** Dirty data gathered for / carried by this transaction. */
        bool dirtyCarried = false;
        /** The requester's Unblock reported migrated dirty data. */
        bool unblockDirty = false;
        /** Permission the requester reported achieving (NS relays
         *  learn the grant from the Unblock, not from Data). */
        Perm unblockGrant = Perm::I;
        /** A Data grant from this directory's own copy, dispatched
         *  once all invalidation acks are in. */
        bool grantPending = false;
        Perm grantPerm = Perm::S;
        bool grantDirty = false;
        /** An owner-child forward, dispatched once acks are in. */
        bool fwdPending = false;
        MsgType fwdType = MsgType::FwdGetS;
        NodeId fwdTo = invalidNode;
        NodeId fwdTarget = invalidNode;
        bool fwdToParent = false;
        /** Parent Inv nested inside a Fetch* (§ deadlock avoidance). */
        bool subInvActive = false;
        int subInvAcksLeft = 0;
        /** The in-flight grant itself was revoked by a nested Inv or a
         *  relayed Fwd_GetM. */
        bool grantRevoked = false;
        /** A Fwd_GetS was relayed at the in-flight requester: an
         *  exclusive achievement degrades to O (or S). */
        bool fwdSRelayed = false;
        /** Writeback pending for Evict/EvictWB. */
        MsgType putType = MsgType::PutS;
        std::deque<MessagePtr> deferred;

        // Fault-recovery bookkeeping (all zero when resilience is off).
        /** End-to-end transaction identity (see CoherenceMsg). */
        std::uint64_t serial = 0;
        NodeId serialOwner = invalidNode;
        /** Last tick this transaction made observable progress. */
        Tick lastActivity = 0;
        /** Child slots with an unacknowledged Inv outstanding. */
        std::uint64_t invMask = 0;
        std::uint64_t subInvMask = 0;
        /** The armed grant/fwd was actually put on the wire (the
         *  armed fields persist, so a re-drive can re-send them). */
        bool grantDispatched = false;
        NodeId lastGrantDest = invalidNode;
        bool fwdDispatched = false;
        /** Dirty flag of the EvictWB writeback (for re-drives). */
        bool putDirty = false;
        /** Sweep re-drives consumed (bounded by maxRetries). */
        unsigned redrives = 0;
        /** Recorded when the fetch-retirement Unblock goes out, so a
         *  retired transaction can replay it (see RetiredTxn). */
        bool sentUnblock = false;
        Perm achievedGrant = Perm::I;
        bool achievedDirty = false;
    };

    /** Retired transaction identity: a reissued request matching one
     *  of these is a stale in-flight copy, absorbed rather than
     *  re-executed against already-moved-on metadata. */
    struct RetiredTxn
    {
        Addr addr = 0;
        NodeId requester = invalidNode;
        NodeId serialOwner = invalidNode;
        std::uint64_t serial = 0;
        /** This transaction ended with an Unblock to the parent; a
         *  re-driven grant re-elicits it (the original may have been
         *  dropped, leaving the parent waiting forever). */
        bool sentUnblock = false;
        Perm achieved = Perm::I; ///< grant the Unblock reported
        bool dirtyUp = false;    ///< dirtiness the Unblock carried
    };

    /** Emit "<name>: <args...>" to the trace sink. The arguments are
     *  formatted only when a sink is installed. */
    template <typename... Args>
    void
    trace(const Args &...args)
    {
        if (trace_)
            trace_(detail::concat(name(), ": ", args...));
    }
    std::unique_ptr<CoherenceMsg> make(MsgType t, Addr addr, NodeId dst);
    void send(std::unique_ptr<CoherenceMsg> msg);

    /** Lazily build the child slot table from the network topology. */
    void ensureChildren();
    int slotOf(NodeId child);

    DirEntry *entryOf(Addr addr) { return cache_.peek(addr); }

    /** Process a fresh (non-deferred, idle-block) message. */
    void process(std::unique_ptr<CoherenceMsg> msg);

    /**
     * Route a request/demand against the block's busy state: special
     * demand handling, deferral, or fresh processing.
     */
    void routeOrDefer(std::unique_ptr<CoherenceMsg> msg,
                      bool count_blocked);

    void handleChildGetS(std::unique_ptr<CoherenceMsg> msg);
    void handleChildGetM(std::unique_ptr<CoherenceMsg> msg);
    void handleChildPut(const CoherenceMsg &msg);
    void handleParentInv(const CoherenceMsg &msg);
    void handleParentFwdGetS(const CoherenceMsg &msg);
    void handleParentFwdGetM(const CoherenceMsg &msg);

    void handleData(const CoherenceMsg &msg);
    void handleInvAck(const CoherenceMsg &msg);
    void handleUnblock(const CoherenceMsg &msg);
    void handlePutAck(const CoherenceMsg &msg);

    /** Demands that arrive while a writeback is racing (EvictWB). */
    void handleDemandDuringEvictWB(TBE &tbe, const CoherenceMsg &msg);

    /** Serve an old-epoch Fwd demand nested inside a Fetch*
     *  transaction (non-blocking directories only).
     *  @return false when the demand must wait for returning data. */
    bool handleFwdDuringFetch(TBE &tbe, const CoherenceMsg &msg);
    /** Parent Inv nested inside Fetch* (the deadlock-avoidance path). */
    void handleInvDuringFetch(TBE &tbe, const CoherenceMsg &msg);

    /**
     * Grant phase of a write at this level: invalidate local sharers,
     * route data to the requester (from the owner child, the collocated
     * copy, or DRAM at the root).
     */
    void localWritePhase(Addr addr, TBE &tbe, DirEntry &entry);

    /** Arm the Data grant for a local read from this level's copy. */
    void armLocalGrant(Addr addr, TBE &tbe, DirEntry &entry);

    /** Make room for @p addr, evicting if needed.
     *  @return true when an entry exists/was allocated. */
    bool makeRoom(Addr addr, std::unique_ptr<CoherenceMsg> &msg);

    void startEviction(Addr victim);

    /** Relay a request up: to the parent, or to DRAM at the root. */
    void sendUpward(MsgType t, Addr addr, bool dirty,
                    std::uint64_t serial = 0,
                    NodeId serial_owner = invalidNode);

    /**
     * Absorb a reissued GetS/GetM: re-drive the matching in-flight
     * transaction, or drop a stale copy of a retired one.
     * @return true when the message was consumed.
     */
    bool absorbReissue(const CoherenceMsg &msg);

    /**
     * A response for a retired transaction (a re-driven grant whose
     * original completed here) re-elicits the retirement Unblock the
     * parent may have lost. @return true when @p msg matched one.
     */
    bool replayRetiredUnblock(const CoherenceMsg &msg);

    /** Re-send every outstanding message of a stuck transaction. */
    void redrive(Addr addr, TBE &tbe);

    /** Arm the periodic stuck-transaction sweep while TBEs exist. */
    void maybeScheduleSweep();
    void sweep();

    /** Check completion conditions and retire the TBE if met. */
    void completeIfReady(Addr addr);
    void retire(Addr addr);

    bool isChild(NodeId n);

    TreeNetwork &net_;
    NodeId nodeId_ = invalidNode;
    NodeId parent_ = invalidNode;
    ProtocolConfig cfg_;
    CacheArray<DirEntry> cache_;
    DramModel *dram_ = nullptr;
    std::unordered_map<Addr, TBE> tbes_;
    std::vector<NodeId> children_;
    std::unordered_map<NodeId, int> slotMap_;
    std::deque<MessagePtr> retryQueue_;
    bool draining_ = false;
    TraceFn trace_;

    // Fault-recovery state (dormant until setResilience()).
    bool resilient_ = false;
    RecoveryParams rec_;
    std::uint64_t serialCtr_ = 0; ///< serials for dir-originated Puts
    bool sweepScheduled_ = false;
    DedupWindow dedup_{4096};
    std::deque<RetiredTxn> recentRetired_;

    Scalar requestArrivals_;
    Scalar blockedArrivals_;
    Scalar relaysUp_;
    Scalar localSatisfied_;
    Scalar evictions_;
    Scalar recalls_;
    Scalar dramReads_;
    Scalar dramWrites_;
    Scalar redrives_;
    Scalar staleDrops_;
    Scalar dupDrops_;
};

} // namespace neo

#endif // NEO_PROTOCOL_DIR_CONTROLLER_HPP
