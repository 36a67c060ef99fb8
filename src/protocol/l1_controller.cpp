#include "l1_controller.hpp"

#include <sstream>

namespace neo
{

const char *
l1StateName(L1State s)
{
    switch (s) {
      case L1State::I:
        return "I";
      case L1State::S:
        return "S";
      case L1State::E:
        return "E";
      case L1State::M:
        return "M";
      case L1State::O:
        return "O";
      case L1State::IS_D:
        return "IS_D";
      case L1State::IM_D:
        return "IM_D";
      case L1State::SM_D:
        return "SM_D";
      case L1State::OM_D:
        return "OM_D";
      case L1State::IS_D_I:
        return "IS_D_I";
      case L1State::IS_D_F:
        return "IS_D_F";
      case L1State::IM_D_F:
        return "IM_D_F";
      case L1State::SI_A:
        return "SI_A";
      case L1State::EI_A:
        return "EI_A";
      case L1State::MI_A:
        return "MI_A";
      case L1State::OI_A:
        return "OI_A";
      case L1State::II_A:
        return "II_A";
    }
    return "?";
}

Perm
l1StatePerm(L1State s)
{
    // Eviction transients (*I_A) relinquished their permission when
    // the Put left; their effective coherence permission is I.
    switch (s) {
      case L1State::S:
      case L1State::SM_D:
        return Perm::S;
      case L1State::E:
        return Perm::E;
      case L1State::M:
        return Perm::M;
      case L1State::O:
      case L1State::OM_D:
        return Perm::O;
      default:
        return Perm::I;
    }
}

L1Controller::L1Controller(std::string name, EventQueue &eventq,
                           TreeNetwork &net, NodeId parent,
                           const CacheGeometry &geom,
                           const ProtocolConfig &cfg)
    : SimObject(std::move(name), eventq), net_(net), parent_(parent),
      cfg_(cfg), cache_(geom),
      hits_(this->name() + ".hits"), misses_(this->name() + ".misses"),
      upgrades_(this->name() + ".upgrades"),
      evictions_(this->name() + ".evictions"),
      invsReceived_(this->name() + ".invs_received"),
      fwdsServed_(this->name() + ".fwds_served"),
      nonSiblingData_(this->name() + ".non_sibling_data"),
      retries_(this->name() + ".retries"),
      staleDrops_(this->name() + ".stale_drops"),
      dupDrops_(this->name() + ".dup_drops"),
      missLatency_(this->name() + ".miss_latency"),
      recoveryLatency_(this->name() + ".recovery_latency")
{
    nodeId_ = net_.addNode(this, parent);
}

void
L1Controller::setResilience(const RecoveryParams &rec)
{
    rec_ = rec;
    resilient_ = true;
}

std::string
L1Controller::debugDump() const
{
    std::ostringstream os;
    if (req_.has_value()) {
        os << name() << ": req addr=0x" << std::hex << req_->addr
           << std::dec << (req_->isWrite ? " W" : " R")
           << (req_->issued ? " issued" : " queued");
        if (req_->serial != 0)
            os << " serial=" << req_->serial
               << " attempts=" << req_->attempts;
        os << "\n";
    }
    forEachLine([&](Addr a, L1State s) {
        if (!l1Stable(s))
            os << name() << ": 0x" << std::hex << a << std::dec << " "
               << l1StateName(s) << "\n";
    });
    for (const auto &[addr, pp] : puts_)
        os << name() << ": pending " << msgTypeName(pp.type) << " 0x"
           << std::hex << addr << std::dec << " serial=" << pp.serial
           << " attempts=" << pp.attempts << "\n";
    if (!bufferedFwds_.empty())
        os << name() << ": " << bufferedFwds_.size()
           << " buffered Fwd demand(s)\n";
    return os.str();
}

void
L1Controller::armReqTimer()
{
    if (!resilient_ || rec_.timeout == 0)
        return;
    const std::uint64_t epoch = ++reqEpoch_;
    eventq().schedule(curTick() + rec_.backoff(req_->attempts),
                      [this, epoch]() { onReqTimeout(epoch); });
}

void
L1Controller::onReqTimeout(std::uint64_t epoch)
{
    if (epoch != reqEpoch_ || !req_.has_value() || !req_->issued)
        return; // completed or superseded
    if (req_->attempts > rec_.maxRetries)
        return; // give up; the watchdog will report the stall
    ++req_->attempts;
    ++retries_;
    trace("reissue ", msgTypeName(req_->issuedType));
    auto msg = make(req_->issuedType, req_->addr, parent_);
    msg->globalRequester = nodeId_;
    msg->serial = req_->serial;
    msg->serialOwner = nodeId_;
    send(std::move(msg));
    armReqTimer();
}

void
L1Controller::armPutTimer(Addr addr, std::uint64_t epoch)
{
    if (rec_.timeout == 0)
        return;
    const auto it = puts_.find(addr);
    if (it == puts_.end() || it->second.epoch != epoch)
        return;
    eventq().schedule(curTick() + rec_.backoff(it->second.attempts),
                      [this, addr, epoch]() { onPutTimeout(addr, epoch); });
}

void
L1Controller::onPutTimeout(Addr addr, std::uint64_t epoch)
{
    const auto it = puts_.find(addr);
    if (it == puts_.end() || it->second.epoch != epoch)
        return; // acked (or superseded) meanwhile
    PendingPut &pp = it->second;
    if (pp.attempts > rec_.maxRetries)
        return;
    ++pp.attempts;
    ++retries_;
    trace("reissue ", msgTypeName(pp.type));
    auto msg = make(pp.type, addr, parent_);
    msg->dirty = pp.dirty;
    if (pp.dirty)
        msg->sizeBytes = dataMsgBytes;
    msg->serial = pp.serial;
    msg->serialOwner = nodeId_;
    send(std::move(msg));
    armPutTimer(addr, epoch);
}

void
L1Controller::noteAck(Addr addr, bool dirty)
{
    if (!resilient_)
        return;
    ackMemos_.push_front(AckMemo{addr, dirty});
    if (ackMemos_.size() > 64)
        ackMemos_.pop_back();
}

bool
L1Controller::recallAckDirty(Addr addr) const
{
    for (const auto &m : ackMemos_)
        if (m.addr == addr)
            return m.dirty;
    return false;
}

std::unique_ptr<CoherenceMsg>
L1Controller::make(MsgType t, Addr addr, NodeId dst)
{
    return makeMsg(t, addr, nodeId_, dst);
}

void
L1Controller::send(std::unique_ptr<CoherenceMsg> msg)
{
    if (msg->type == MsgType::Data)
        msg->fromCache = true;
    trace("send ", *msg);
    net_.deliver(std::move(msg));
}

Perm
L1Controller::blockPerm(Addr addr) const
{
    const Line *line = cache_.peek(cache_.addressMap().blockAlign(addr));
    return line != nullptr ? l1StatePerm(line->state) : Perm::I;
}

L1State
L1Controller::blockState(Addr addr) const
{
    const Line *line = cache_.peek(cache_.addressMap().blockAlign(addr));
    return line != nullptr ? line->state : L1State::I;
}

bool
L1Controller::quiescent() const
{
    bool quiet = true;
    const_cast<CacheArray<Line> &>(cache_).forEach(
        [&quiet](Addr, Line &l) {
            if (!l1Stable(l.state))
                quiet = false;
        });
    return quiet && !req_.has_value();
}

void
L1Controller::forEachLine(
    const std::function<void(Addr, L1State)> &fn) const
{
    const_cast<CacheArray<Line> &>(cache_).forEach(
        [&fn](Addr a, Line &l) { fn(a, l.state); });
}

void
L1Controller::coreRequest(Addr addr, bool is_write, DoneFn done)
{
    neo_assert(!req_.has_value(), name(), ": second outstanding request");
    CoreReq req;
    req.addr = cache_.addressMap().blockAlign(addr);
    req.isWrite = is_write;
    req.done = std::move(done);
    req_.emplace(std::move(req));
    pump();
}

void
L1Controller::pump()
{
    if (!req_.has_value() || req_->issued)
        return;

    const Addr addr = req_->addr;
    Line *line = cache_.find(addr);

    if (line != nullptr && line->state != L1State::I) {
        if (!l1Stable(line->state)) {
            // The line is mid-eviction (same-set or same-block churn);
            // retry when its Put completes.
            return;
        }
        const L1State s = line->state;
        if (!req_->isWrite ||
            s == L1State::M || s == L1State::E) {
            // Hit. Stores to E upgrade silently (the point of E).
            if (req_->isWrite && s == L1State::E)
                line->state = L1State::M;
            ++hits_;
            DoneFn done = std::move(req_->done);
            req_.reset();
            eventq().schedule(
                curTick() + cache_.geometry().accessLatency,
                [done = std::move(done)]() { done(); });
            return;
        }
        // Write to S or O: upgrade through the directory.
        ++upgrades_;
        req_->issued = true;
        missStart_ = curTick();
        line->state = (s == L1State::O) ? L1State::OM_D : L1State::SM_D;
        auto msg = make(MsgType::GetM, addr, parent_);
        msg->globalRequester = nodeId_;
        if (resilient_) {
            req_->serial = ++serialCtr_;
            req_->issuedType = MsgType::GetM;
            req_->attempts = 1;
            msg->serial = req_->serial;
            msg->serialOwner = nodeId_;
        }
        send(std::move(msg));
        armReqTimer();
        return;
    }

    // Miss: ensure a way is available.
    if (line == nullptr && !cache_.hasFreeWay(addr)) {
        auto victim = cache_.victimFor(
            addr, [](Addr, const Line &l) { return l1Stable(l.state) &&
                                                   l.state != L1State::I; });
        if (!victim.has_value()) {
            // Every way is mid-transaction; retry on the next PutAck.
            return;
        }
        Line *vline = cache_.peek(*victim);
        startEviction(*victim, *vline);
        return; // pump() re-runs when the PutAck lands
    }

    if (line == nullptr)
        line = &cache_.allocate(addr);

    ++misses_;
    req_->issued = true;
    missStart_ = curTick();
    line->state = req_->isWrite ? L1State::IM_D : L1State::IS_D;
    auto msg = make(req_->isWrite ? MsgType::GetM : MsgType::GetS, addr,
                    parent_);
    msg->globalRequester = nodeId_;
    if (resilient_) {
        req_->serial = ++serialCtr_;
        req_->issuedType = msg->type;
        req_->attempts = 1;
        msg->serial = req_->serial;
        msg->serialOwner = nodeId_;
    }
    send(std::move(msg));
    armReqTimer();
}

void
L1Controller::startEviction(Addr victim, Line &line)
{
    ++evictions_;
    MsgType t = MsgType::PutS;
    L1State next = L1State::SI_A;
    bool dirty = false;
    switch (line.state) {
      case L1State::S:
        break;
      case L1State::E:
        t = MsgType::PutE;
        next = L1State::EI_A;
        break;
      case L1State::M:
        t = MsgType::PutM;
        next = L1State::MI_A;
        dirty = true;
        break;
      case L1State::O:
        t = MsgType::PutO;
        next = L1State::OI_A;
        dirty = true;
        break;
      default:
        neo_panic(name(), ": evicting unstable line ",
                  l1StateName(line.state));
    }
    line.state = next;
    auto msg = make(t, victim, parent_);
    msg->dirty = dirty;
    if (dirty)
        msg->sizeBytes = dataMsgBytes; // writeback carries the block
    if (resilient_) {
        const std::uint64_t serial = ++serialCtr_;
        const std::uint64_t epoch = ++putEpochCtr_;
        puts_[victim] = PendingPut{serial, t, dirty, 1, epoch};
        msg->serial = serial;
        msg->serialOwner = nodeId_;
        send(std::move(msg));
        armPutTimer(victim, epoch);
        return;
    }
    send(std::move(msg));
}

void
L1Controller::complete(Perm achieved, bool carry_dirty)
{
    neo_assert(req_.has_value(), name(), ": completion without request");
    missLatency_.sample(static_cast<double>(curTick() - missStart_));
    // Unblock the directory chain; the dirty flag propagates migrated
    // ownership up to the level that absorbs it (Fig. 4's (9)/(10)),
    // and the grant reports the permission this transaction left the
    // leaf with (NS relays learn their grant from this since the data
    // bypassed them; buffered Fwds may have already downgraded us).
    auto ub = make(MsgType::Unblock, req_->addr, parent_);
    ub->dirty = carry_dirty;
    ub->grant = achieved;
    ub->sizeBytes = dataMsgBytes; // Unblock carries the valid data
    if (resilient_) {
        ++reqEpoch_; // cancel any pending reissue timer
        if (req_->serial != 0) {
            if (req_->attempts > 1)
                recoveryLatency_.sample(
                    static_cast<double>(curTick() - missStart_));
            ub->serial = req_->serial;
            ub->serialOwner = nodeId_;
            // The window must outlive the directory's reissue sweep:
            // an Unblock loss is only repaired when a re-driven grant
            // finds the finished transaction here, and the first
            // redrive can lag the loss by ~2 sweep periods while this
            // L1 keeps completing misses every few hundred ticks.
            completed_.push_front(Completed{req_->addr, req_->serial,
                                            achieved, carry_dirty});
            if (completed_.size() > 1024)
                completed_.pop_back();
        }
    }
    send(std::move(ub));
    DoneFn done = std::move(req_->done);
    req_.reset();
    eventq().schedule(curTick() + cache_.geometry().accessLatency,
                      [done = std::move(done)]() { done(); });
}

NodeId
L1Controller::fwdDest(const CoherenceMsg &msg) const
{
    return msg.respondToParent ? parent_ : msg.target;
}

void
L1Controller::deliver(MessagePtr msg)
{
    auto *cm = dynamic_cast<CoherenceMsg *>(msg.get());
    neo_assert(cm != nullptr, name(), ": non-coherence message");
    if (resilient_ && cm->msgId != 0 && dedup_.seen(cm->msgId)) {
        ++dupDrops_;
        trace("dup-drop ", *cm);
        return;
    }
    trace("recv ", *cm);
    const L1State pre = blockState(cm->addr);
    switch (cm->type) {
      case MsgType::Data:
        handleData(*cm);
        break;
      case MsgType::Inv:
        handleInv(*cm);
        break;
      case MsgType::FwdGetS:
        handleFwdGetS(*cm);
        break;
      case MsgType::FwdGetM:
        handleFwdGetM(*cm);
        break;
      case MsgType::PutAck:
        handlePutAck(*cm);
        break;
      default:
        neo_panic(name(), ": unexpected message ", cm->describe());
    }
    if (observer_)
        observer_(cm->addr, pre, cm->type, blockState(cm->addr));
}

void
L1Controller::handleData(const CoherenceMsg &msg)
{
    if (resilient_) {
        const bool current = req_.has_value() && req_->issued &&
                             req_->addr == msg.addr &&
                             msg.serialOwner == nodeId_ &&
                             msg.serial != 0 &&
                             msg.serial == req_->serial;
        if (!current) {
            // Stale or repeated grant. If it matches a transaction we
            // already finished, the directory re-drove the grant
            // because our Unblock was lost: send the Unblock again.
            for (const auto &c : completed_) {
                if (c.addr == msg.addr && c.serial == msg.serial &&
                    msg.serialOwner == nodeId_) {
                    auto ub = make(MsgType::Unblock, msg.addr, parent_);
                    ub->dirty = c.dirty;
                    ub->grant = c.achieved;
                    ub->sizeBytes = dataMsgBytes;
                    ub->serial = c.serial;
                    ub->serialOwner = nodeId_;
                    send(std::move(ub));
                    break;
                }
            }
            ++staleDrops_;
            return;
        }
    }
    Line *line = cache_.peek(msg.addr);
    neo_assert(line != nullptr, name(), ": Data for non-resident block");
    if (msg.fromCache && msg.src != parent_ &&
        !net_.areSiblings(nodeId_, msg.src))
        ++nonSiblingData_;
    switch (line->state) {
      case L1State::IS_D:
        line->state = (msg.grant == Perm::E && cfg_.exclusiveState)
                          ? L1State::E
                          : L1State::S;
        complete(l1StatePerm(line->state), msg.dirty);
        break;
      case L1State::IS_D_I:
        // Invalidated in flight: use the value once, then drop. The
        // Unblock reports I so no level re-registers us as a sharer.
        line->state = L1State::I;
        complete(Perm::I, msg.dirty);
        cache_.erase(msg.addr);
        break;
      case L1State::IM_D:
      case L1State::SM_D:
      case L1State::OM_D:
        line->state = L1State::M;
        complete(Perm::M, true);
        break;
      case L1State::IS_D_F:
      case L1State::IM_D_F: {
        // Serve the buffered Fwd demands now that the data arrived,
        // in arrival order, BEFORE unblocking: the Unblock must report
        // the permission we end up with (O after serving a reader, I
        // after handing the block to a writer).
        line->state = line->state == L1State::IS_D_F
                          ? (msg.grant == Perm::E ? L1State::E
                                                  : L1State::S)
                          : L1State::M;
        auto pending = std::move(bufferedFwds_);
        bufferedFwds_.clear();
        for (const auto &fwd : pending) {
            auto replay = make(fwd.isGetM ? MsgType::FwdGetM
                                          : MsgType::FwdGetS,
                               msg.addr, nodeId_);
            replay->target = fwd.target;
            replay->respondToParent = fwd.toParent;
            replay->serial = fwd.serial;
            replay->serialOwner = fwd.serialOwner;
            if (fwd.isGetM)
                handleFwdGetM(*replay);
            else
                handleFwdGetS(*replay);
        }
        // The replays may have erased the line; re-derive the state.
        Line *after = cache_.peek(msg.addr);
        const Perm achieved =
            after != nullptr ? l1StatePerm(after->state) : Perm::I;
        complete(achieved, achieved == Perm::M);
        break;
      }
      default:
        neo_panic(name(), ": Data in state ", l1StateName(line->state));
    }
}

void
L1Controller::handleInv(const CoherenceMsg &msg)
{
    Line *line = cache_.peek(msg.addr);
    ++invsReceived_;
    if (line == nullptr) {
        // The Inv chased a grant we already consumed use-once (the
        // IS_D_I path erases the line on Data), or — under fault
        // recovery — it is a re-driven Inv whose original ack was
        // dropped. Re-ack, restoring the remembered dirty bit so
        // migrated dirtiness is not lost with the retry.
        neo_assert(cfg_.nonBlockingDir || resilient_, name(),
                   ": Inv for non-resident block");
        auto ack = make(MsgType::InvAck, msg.addr, parent_);
        if (resilient_) {
            ++staleDrops_;
            ack->dirty = recallAckDirty(msg.addr);
            if (ack->dirty)
                ack->sizeBytes = dataMsgBytes;
        }
        send(std::move(ack));
        return;
    }
    bool dirty = false;
    switch (line->state) {
      case L1State::S:
      case L1State::E:
        line->state = L1State::I;
        break;
      case L1State::M:
      case L1State::O:
        dirty = true;
        line->state = L1State::I;
        break;
      case L1State::SM_D:
        line->state = L1State::IM_D;
        break;
      case L1State::OM_D:
        dirty = true;
        line->state = L1State::IM_D;
        break;
      case L1State::IM_D_F:
        // Old-epoch Inv against the shared copy we upgraded from;
        // the buffered demands still apply to our incoming M.
        neo_assert(cfg_.nonBlockingDir || resilient_, name(),
                   ": Inv during IM_D_F under a blocking directory");
        break;
      case L1State::IS_D:
        neo_assert(cfg_.nonBlockingDir || resilient_, name(),
                   ": Inv during IS_D under a blocking directory");
        line->state = L1State::IS_D_I;
        break;
      case L1State::SI_A:
      case L1State::EI_A:
        line->state = L1State::II_A;
        break;
      case L1State::MI_A:
      case L1State::OI_A:
        dirty = true;
        line->state = L1State::II_A;
        break;
      default:
        if (resilient_) {
            // Re-driven Inv against a transient that already answered
            // the original (IM_D, IS_D_I, II_A, ...): re-ack with the
            // remembered dirty bit, leaving the state alone.
            ++staleDrops_;
            auto stale = make(MsgType::InvAck, msg.addr, parent_);
            stale->dirty = recallAckDirty(msg.addr);
            if (stale->dirty)
                stale->sizeBytes = dataMsgBytes;
            send(std::move(stale));
            return;
        }
        neo_panic(name(), ": Inv in state ", l1StateName(line->state));
    }
    noteAck(msg.addr, dirty);
    auto ack = make(MsgType::InvAck, msg.addr, parent_);
    ack->dirty = dirty;
    if (dirty)
        ack->sizeBytes = dataMsgBytes; // ack carries the dirty block
    send(std::move(ack));
    if (line->state == L1State::I)
        cache_.erase(msg.addr);
}

void
L1Controller::handleFwdGetS(const CoherenceMsg &msg)
{
    Line *line = cache_.peek(msg.addr);
    ++fwdsServed_;
    const NodeId dest = fwdDest(msg);
    if (line == nullptr) {
        // Epoch-crossed demand under back-to-back directories (or a
        // re-driven demand under fault recovery): our copy is already
        // gone, but the reader is starving; supply it (values are
        // untracked; see DESIGN.md deviations).
        neo_assert(cfg_.nonBlockingDir || resilient_, name(),
                   ": Fwd_GetS for absent block");
        if (resilient_ && !cfg_.nonBlockingDir)
            ++staleDrops_;
        auto data = make(MsgType::Data, msg.addr, dest);
        data->grant = Perm::S;
        data->serial = msg.serial;
        data->serialOwner = msg.serialOwner;
        send(std::move(data));
        return;
    }

    auto supply = [&](bool dirty_to_reader) {
        auto data = make(MsgType::Data, msg.addr, dest);
        data->grant = Perm::S;
        data->dirty = dirty_to_reader;
        data->serial = msg.serial;
        data->serialOwner = msg.serialOwner;
        send(std::move(data));
        // NS-MESI: the owner also sends a copy to its parent (the new
        // owner) directly, saving the relay hop (Fig. 5, time (5)).
        if (cfg_.nonSiblingFwd && !cfg_.ownedState &&
            !msg.respondToParent && dest != parent_) {
            auto copy = make(MsgType::Data, msg.addr, parent_);
            copy->grant = Perm::S;
            copy->dirty = true;
            copy->serial = msg.serial;
            copy->serialOwner = msg.serialOwner;
            send(std::move(copy));
        }
    };

    // Under a blocking directory a Fwd that catches us mid-transaction
    // can only be a fault-recovery re-drive of a demand we already
    // served before moving on: feed the target again (stamped with the
    // demand's own transaction identity) without touching our state.
    auto staleSupply = [&]() {
        ++staleDrops_;
        auto data = make(MsgType::Data, msg.addr, dest);
        data->grant = Perm::S;
        data->serial = msg.serial;
        data->serialOwner = msg.serialOwner;
        send(std::move(data));
    };

    switch (line->state) {
      case L1State::M:
        if (cfg_.ownedState) {
            line->state = L1State::O;
            supply(false);
        } else {
            line->state = L1State::S;
            supply(true);
        }
        break;
      case L1State::E:
        // Under MOESI the directory keeps pointing at us as owner, so
        // we must stay a forwardable owner: E -> O (clean O is legal).
        line->state = cfg_.ownedState ? L1State::O : L1State::S;
        supply(false);
        break;
      case L1State::O:
        supply(false); // owner keeps supplying readers
        break;
      case L1State::OM_D:
        // Our own upgrade is queued behind this reader: serve it from
        // the O copy we still hold (non-blocking directories only).
        if (resilient_ && !cfg_.nonBlockingDir) {
            staleSupply();
            break;
        }
        neo_assert(cfg_.nonBlockingDir, name(),
                   ": Fwd_GetS during OM_D under a blocking directory");
        supply(false);
        break;
      case L1State::MI_A:
        line->state = L1State::SI_A;
        supply(true);
        break;
      case L1State::EI_A:
        if (!cfg_.ownedState)
            line->state = L1State::SI_A;
        supply(false);
        break;
      case L1State::OI_A:
        supply(false);
        break;
      case L1State::SI_A:
        if (resilient_ && !cfg_.nonBlockingDir) {
            staleSupply();
            break;
        }
        neo_assert(cfg_.nonBlockingDir, name(),
                   ": Fwd_GetS during SI_A under a blocking directory");
        supply(false);
        break;
      case L1State::IM_D:
      case L1State::SM_D:
      case L1State::IM_D_F:
        // The directory made us owner and forwarded a reader before
        // our own data grant arrived (back-to-back processing).
        if (resilient_ && !cfg_.nonBlockingDir) {
            staleSupply();
            break;
        }
        neo_assert(cfg_.nonBlockingDir, name(),
                   ": Fwd_GetS during ", l1StateName(line->state),
                   " under a blocking directory");
        line->state = L1State::IM_D_F;
        bufferedFwds_.push_back(
            PendingFwd{false, msg.target, msg.respondToParent,
                       msg.serial, msg.serialOwner});
        break;
      case L1State::IS_D:
      case L1State::IS_D_F:
        // We were granted E and a reader was forwarded at us before
        // the data arrived.
        if (resilient_ && !cfg_.nonBlockingDir) {
            staleSupply();
            break;
        }
        neo_assert(cfg_.nonBlockingDir, name(),
                   ": Fwd_GetS during ", l1StateName(line->state),
                   " under a blocking directory");
        line->state = L1State::IS_D_F;
        bufferedFwds_.push_back(
            PendingFwd{false, msg.target, msg.respondToParent,
                       msg.serial, msg.serialOwner});
        break;
      case L1State::IS_D_I: {
        // Our own grant was revoked mid-flight; still feed the reader.
        neo_assert(cfg_.nonBlockingDir || resilient_, name(),
                   ": Fwd_GetS during IS_D_I under a blocking dir");
        auto data = make(MsgType::Data, msg.addr, dest);
        data->grant = Perm::S;
        data->serial = msg.serial;
        data->serialOwner = msg.serialOwner;
        send(std::move(data));
        break;
      }
      default:
        if (resilient_) {
            staleSupply();
            break;
        }
        neo_panic(name(), ": Fwd_GetS in state ",
                  l1StateName(line->state));
    }
}

void
L1Controller::handleFwdGetM(const CoherenceMsg &msg)
{
    Line *line = cache_.peek(msg.addr);
    ++fwdsServed_;
    const NodeId dest = fwdDest(msg);
    if (line == nullptr) {
        neo_assert(cfg_.nonBlockingDir || resilient_, name(),
                   ": Fwd_GetM for absent block");
        if (resilient_ && !cfg_.nonBlockingDir)
            ++staleDrops_;
        auto data = make(MsgType::Data, msg.addr, dest);
        data->grant = Perm::M;
        data->dirty = true;
        data->serial = msg.serial;
        data->serialOwner = msg.serialOwner;
        send(std::move(data));
        return;
    }

    auto supply = [&](bool dirty) {
        auto data = make(MsgType::Data, msg.addr, dest);
        data->grant = Perm::M;
        data->dirty = dirty;
        data->serial = msg.serial;
        data->serialOwner = msg.serialOwner;
        send(std::move(data));
    };

    // See handleFwdGetS: under a blocking directory a mid-transaction
    // Fwd is a fault-recovery re-drive; re-feed the writer with the
    // demand's transaction identity, leaving our state alone.
    auto staleSupply = [&]() {
        ++staleDrops_;
        auto data = make(MsgType::Data, msg.addr, dest);
        data->grant = Perm::M;
        data->dirty = true;
        data->serial = msg.serial;
        data->serialOwner = msg.serialOwner;
        send(std::move(data));
    };

    switch (line->state) {
      case L1State::M:
        supply(true);
        line->state = L1State::I;
        break;
      case L1State::E:
        supply(false);
        line->state = L1State::I;
        break;
      case L1State::O:
        supply(true);
        line->state = L1State::I;
        break;
      case L1State::OM_D:
        // A competing writer won the race at the directory: hand the
        // block over; our own GetM grant will re-supply us.
        if (resilient_ && !cfg_.nonBlockingDir) {
            staleSupply();
            break;
        }
        neo_assert(cfg_.nonBlockingDir, name(),
                   ": Fwd_GetM during OM_D under a blocking directory");
        supply(true);
        line->state = L1State::IM_D;
        break;
      case L1State::MI_A:
      case L1State::OI_A:
        supply(true);
        line->state = L1State::II_A;
        break;
      case L1State::EI_A:
        supply(false);
        line->state = L1State::II_A;
        break;
      case L1State::SI_A:
        // A back-to-back directory saw us as the last forwardable
        // copy while our PutS is in flight; feed the writer.
        if (resilient_ && !cfg_.nonBlockingDir) {
            staleSupply();
            break;
        }
        neo_assert(cfg_.nonBlockingDir, name(),
                   ": Fwd_GetM during SI_A under a blocking directory");
        supply(false);
        line->state = L1State::II_A;
        break;
      case L1State::IM_D:
      case L1State::SM_D:
      case L1State::IM_D_F:
        if (resilient_ && !cfg_.nonBlockingDir) {
            staleSupply();
            break;
        }
        neo_assert(cfg_.nonBlockingDir, name(),
                   ": Fwd_GetM during ", l1StateName(line->state),
                   " under a blocking directory");
        line->state = L1State::IM_D_F;
        bufferedFwds_.push_back(
            PendingFwd{true, msg.target, msg.respondToParent,
                       msg.serial, msg.serialOwner});
        break;
      case L1State::IS_D:
      case L1State::IS_D_F:
        // Granted E; a writer was forwarded at us before our data.
        if (resilient_ && !cfg_.nonBlockingDir) {
            staleSupply();
            break;
        }
        neo_assert(cfg_.nonBlockingDir, name(),
                   ": Fwd_GetM during ", l1StateName(line->state),
                   " under a blocking directory");
        line->state = L1State::IS_D_F;
        bufferedFwds_.push_back(
            PendingFwd{true, msg.target, msg.respondToParent,
                       msg.serial, msg.serialOwner});
        break;
      case L1State::IS_D_I: {
        neo_assert(cfg_.nonBlockingDir || resilient_, name(),
                   ": Fwd_GetM during IS_D_I under a blocking dir");
        auto data = make(MsgType::Data, msg.addr, dest);
        data->grant = Perm::M;
        data->serial = msg.serial;
        data->serialOwner = msg.serialOwner;
        send(std::move(data));
        break;
      }
      default:
        if (resilient_) {
            staleSupply();
            break;
        }
        neo_panic(name(), ": Fwd_GetM in state ",
                  l1StateName(line->state));
    }
    if (line->state == L1State::I)
        cache_.erase(msg.addr);
}

void
L1Controller::handlePutAck(const CoherenceMsg &msg)
{
    if (resilient_) {
        // Only the ack for the outstanding Put retires it; acks for
        // reissued copies of an already-retired Put are stale.
        const auto it = puts_.find(msg.addr);
        if (it == puts_.end() || it->second.serial != msg.serial) {
            ++staleDrops_;
            return;
        }
        puts_.erase(it);
    }
    Line *line = cache_.peek(msg.addr);
    neo_assert(line != nullptr, name(), ": PutAck for absent block");
    switch (line->state) {
      case L1State::SI_A:
      case L1State::EI_A:
      case L1State::MI_A:
      case L1State::OI_A:
      case L1State::II_A:
        cache_.erase(msg.addr);
        break;
      default:
        if (resilient_) {
            ++staleDrops_;
            break;
        }
        neo_panic(name(), ": PutAck in state ",
                  l1StateName(line->state));
    }
    pump(); // a pending miss may have been waiting for this way
}

void
L1Controller::addStats(StatGroup &group) const
{
    group.add(&hits_);
    group.add(&misses_);
    group.add(&upgrades_);
    group.add(&evictions_);
    group.add(&invsReceived_);
    group.add(&fwdsServed_);
    group.add(&nonSiblingData_);
    group.add(&retries_);
    group.add(&staleDrops_);
    group.add(&dupDrops_);
    group.add(&missLatency_);
    group.add(&recoveryLatency_);
}

} // namespace neo
