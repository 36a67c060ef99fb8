/**
 * @file
 * The leaf node of the hierarchy: a private L1 cache controller.
 *
 * In Neo terms this is the leaf L that every Open Neo System must
 * implement (Section 2.3.3). It services one in-order core with a
 * single outstanding demand miss, maintains a MESI (or MOESI, under
 * NS-MOESI) line state machine with the transient states needed for
 * an unordered network, and participates in the inclusive hierarchy
 * with explicit eviction notifications (PutS/PutE/PutM/PutO).
 */

#ifndef NEO_PROTOCOL_L1_CONTROLLER_HPP
#define NEO_PROTOCOL_L1_CONTROLLER_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>

#include "mem/cache_array.hpp"
#include "network/tree_network.hpp"
#include "protocol/coherence_msg.hpp"
#include "protocol/protocol_config.hpp"
#include "sim/fault.hpp"
#include "sim/sim_object.hpp"
#include "sim/stats.hpp"

namespace neo
{

/** L1 line states: stable MOESI plus transients.
 *  _D suffix: awaiting a Data grant. _A suffix: awaiting a PutAck. */
enum class L1State : std::uint8_t
{
    I,
    S,
    E,
    M,
    O,
    IS_D,   ///< GetS issued from I
    IM_D,   ///< GetM issued from I
    SM_D,   ///< GetM issued from S (upgrade)
    OM_D,   ///< GetM issued from O (upgrade)
    IS_D_I, ///< IS_D that was invalidated in flight (non-blocking dirs)
    IS_D_F, ///< IS_D holding buffered Fwd demands (we were granted E)
    IM_D_F, ///< IM_D holding buffered Fwd demands to satisfy after Data
    SI_A,   ///< PutS issued
    EI_A,   ///< PutE issued
    MI_A,   ///< PutM issued
    OI_A,   ///< PutO issued
    II_A,   ///< Put raced with an Inv/Fwd; awaiting (stale) PutAck
};

const char *l1StateName(L1State s);

/** True for states a replacement policy may victimize. */
constexpr bool
l1Stable(L1State s)
{
    return s == L1State::I || s == L1State::S || s == L1State::E ||
           s == L1State::M || s == L1State::O;
}

/** The coherence permission a state confers (transients keep the
 *  permission of the stable state they came from, per Neo sums). */
Perm l1StatePerm(L1State s);

class L1Controller : public SimObject, public MessageConsumer
{
  public:
    using TraceFn = std::function<void(const std::string &)>;
    using DoneFn = std::function<void()>;

    /**
     * @param parent network id of this cache's directory
     * @param geom L1 geometry (Table 1: 32 KB, 2-way, 2-cycle)
     */
    L1Controller(std::string name, EventQueue &eventq, TreeNetwork &net,
                 NodeId parent, const CacheGeometry &geom,
                 const ProtocolConfig &cfg);

    NodeId nodeId() const { return nodeId_; }
    NodeId parentId() const { return parent_; }

    /** True while a core request is outstanding. */
    bool busy() const { return req_.has_value(); }

    /**
     * Issue a load (@p is_write false) or store from the core. Exactly
     * one request may be outstanding; @p done fires at completion.
     */
    void coreRequest(Addr addr, bool is_write, DoneFn done);

    void deliver(MessagePtr msg) override;

    /** Install a per-event trace callback (protocol walkthroughs). */
    void setTrace(TraceFn fn) { trace_ = std::move(fn); }

    /**
     * Observe every message-driven line transition:
     * (pre-state, message type, post-state). Conformance tests check
     * these against the verified model's leaf state machine.
     */
    using TransitionObserver =
        std::function<void(Addr, L1State pre, MsgType, L1State post)>;
    void
    setTransitionObserver(TransitionObserver fn)
    {
        observer_ = std::move(fn);
    }

    /** Permission currently held for @p addr (I when not resident). */
    Perm blockPerm(Addr addr) const;

    /** Raw line state for @p addr (I when not resident). */
    L1State blockState(Addr addr) const;

    /** True when no line is in a transient state (checker precondition). */
    bool quiescent() const;

    /**
     * Arm the fault-recovery machinery: transaction serials, ingress
     * duplicate suppression, stale-message tolerance, and (when
     * rec.timeout > 0) timeout/backoff reissue of requests and Puts.
     * Never called on fault-free runs, keeping them bit-identical.
     */
    void setResilience(const RecoveryParams &rec);

    /** Render in-flight state for deadlock postmortems. */
    std::string debugDump() const;

    /** Iterate (addr, state) over resident lines. */
    void forEachLine(
        const std::function<void(Addr, L1State)> &fn) const;

    // Statistics.
    const Scalar &hits() const { return hits_; }
    const Scalar &misses() const { return misses_; }
    const Scalar &upgrades() const { return upgrades_; }
    const Scalar &evictions() const { return evictions_; }
    /** Misses whose data arrived from a non-parent, non-sibling node —
     *  the §5.3 "satisfied using non-sibling communication" counter. */
    const Scalar &nonSiblingData() const { return nonSiblingData_; }
    /** Timeout-driven reissues of GetS/GetM/Put*. */
    const Scalar &retries() const { return retries_; }
    /** Stale responses/demands recognized and absorbed. */
    const Scalar &staleDrops() const { return staleDrops_; }
    /** Transport duplicates filtered at ingress. */
    const Scalar &dupDrops() const { return dupDrops_; }
    /** Miss latency of transactions that needed >= 1 reissue. */
    const SampleStat &recoveryLatency() const { return recoveryLatency_; }
    void addStats(StatGroup &group) const;

  private:
    struct Line
    {
        L1State state = L1State::I;
    };

    /** The single outstanding core request. */
    struct CoreReq
    {
        Addr addr = 0;
        bool isWrite = false;
        DoneFn done;
        bool issued = false; ///< GetS/GetM sent (or waiting on evict)
        std::uint64_t serial = 0;          ///< transaction serial
        MsgType issuedType = MsgType::GetS; ///< for reissue
        unsigned attempts = 0;             ///< issues so far
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
    void send(std::unique_ptr<CoherenceMsg> msg);
    std::unique_ptr<CoherenceMsg> make(MsgType t, Addr addr, NodeId dst);

    /** Try to start (or restart) the pending core request. */
    void pump();

    /** Begin eviction of @p victim to make room. */
    void startEviction(Addr victim, Line &line);

    /**
     * Finish the outstanding request: callback + Unblock reporting the
     * permission this leaf ended the transaction with (@p achieved)
     * and whether migrated dirtiness rides up with it.
     */
    void complete(Perm achieved, bool carry_dirty);

    void handleData(const CoherenceMsg &msg);
    void handleInv(const CoherenceMsg &msg);
    void handleFwdGetS(const CoherenceMsg &msg);
    void handleFwdGetM(const CoherenceMsg &msg);
    void handlePutAck(const CoherenceMsg &msg);

    /** Destination for the data demanded by a Fwd message. */
    NodeId fwdDest(const CoherenceMsg &msg) const;

    /** A Fwd demand buffered while the data grant is in flight. */
    struct PendingFwd
    {
        bool isGetM = false;
        NodeId target = invalidNode;
        bool toParent = false;
        std::uint64_t serial = 0; ///< demand's transaction identity
        NodeId serialOwner = invalidNode;
    };

    /** An eviction Put awaiting its ack, eligible for reissue. */
    struct PendingPut
    {
        std::uint64_t serial = 0;
        MsgType type = MsgType::PutS;
        bool dirty = false;
        unsigned attempts = 0;
        std::uint64_t epoch = 0; ///< guards the one-shot timer chain
    };

    /** Recently finished transaction; lets a duplicate/re-driven Data
     *  grant re-elicit the Unblock the directory may have lost. */
    struct Completed
    {
        Addr addr = 0;
        std::uint64_t serial = 0;
        Perm achieved = Perm::I;
        bool dirty = false;
    };

    /** Dirty bit of a recently sent InvAck, so a re-acked duplicate
     *  Inv does not lose migrated dirtiness. */
    struct AckMemo
    {
        Addr addr = 0;
        bool dirty = false;
    };

    /** Arm (or re-arm) the demand-reissue timer with backoff. */
    void armReqTimer();
    void onReqTimeout(std::uint64_t epoch);
    void armPutTimer(Addr addr, std::uint64_t epoch);
    void onPutTimeout(Addr addr, std::uint64_t epoch);
    /** Remember an InvAck's dirty bit (bounded memory). */
    void noteAck(Addr addr, bool dirty);
    /** Dirty bit recorded for @p addr, if any. */
    bool recallAckDirty(Addr addr) const;

    TreeNetwork &net_;
    NodeId nodeId_ = invalidNode;
    NodeId parent_ = invalidNode;
    ProtocolConfig cfg_;
    CacheArray<Line> cache_;
    std::optional<CoreReq> req_;
    /** Demands buffered while in IM_D_F (non-blocking directories can
     *  forward several readers/writers at us back to back). */
    std::vector<PendingFwd> bufferedFwds_;
    TraceFn trace_;
    TransitionObserver observer_;

    // Fault-recovery state. Dormant (and never consulted on hot paths
    // beyond a bool test) until setResilience() arms it.
    bool resilient_ = false;
    RecoveryParams rec_;
    std::uint64_t serialCtr_ = 0;
    std::uint64_t reqEpoch_ = 0;  ///< invalidates pending req timers
    std::uint64_t putEpochCtr_ = 0;
    DedupWindow dedup_{4096};
    std::unordered_map<Addr, PendingPut> puts_;
    std::deque<Completed> completed_;
    std::deque<AckMemo> ackMemos_;

    Scalar hits_;
    Scalar misses_;
    Scalar upgrades_;
    Scalar evictions_;
    Scalar invsReceived_;
    Scalar fwdsServed_;
    Scalar nonSiblingData_;
    Scalar retries_;
    Scalar staleDrops_;
    Scalar dupDrops_;
    SampleStat missLatency_;
    SampleStat recoveryLatency_;
    Tick missStart_ = 0;
};

} // namespace neo

#endif // NEO_PROTOCOL_L1_CONTROLLER_HPP
