#include "dir_controller.hpp"

#include <bit>

namespace neo
{

namespace
{

constexpr std::uint64_t
bitOf(int slot)
{
    return 1ULL << static_cast<unsigned>(slot);
}

} // namespace

const char *
dirModeName(DirMode m)
{
    switch (m) {
      case DirMode::LocalRead:
        return "LocalRead";
      case DirMode::LocalWrite:
        return "LocalWrite";
      case DirMode::FetchRead:
        return "FetchRead";
      case DirMode::FetchWrite:
        return "FetchWrite";
      case DirMode::ExtRead:
        return "ExtRead";
      case DirMode::ExtWrite:
        return "ExtWrite";
      case DirMode::ExtInv:
        return "ExtInv";
      case DirMode::Evict:
        return "Evict";
      case DirMode::EvictWB:
        return "EvictWB";
    }
    return "?";
}

DirController::DirController(std::string name, EventQueue &eventq,
                             TreeNetwork &net, NodeId parent,
                             const CacheGeometry &geom,
                             const ProtocolConfig &cfg, DramModel *dram)
    : SimObject(std::move(name), eventq), net_(net), parent_(parent),
      cfg_(cfg), cache_(geom), dram_(dram),
      requestArrivals_(this->name() + ".request_arrivals"),
      blockedArrivals_(this->name() + ".blocked_arrivals"),
      relaysUp_(this->name() + ".relays_up"),
      localSatisfied_(this->name() + ".local_satisfied"),
      evictions_(this->name() + ".evictions"),
      recalls_(this->name() + ".recalls"),
      dramReads_(this->name() + ".dram_reads"),
      dramWrites_(this->name() + ".dram_writes"),
      redrives_(this->name() + ".redrives"),
      staleDrops_(this->name() + ".stale_drops"),
      dupDrops_(this->name() + ".dup_drops")
{
    neo_assert((parent == invalidNode) == (dram != nullptr),
               "exactly the root directory fronts the DRAM");
    nodeId_ = net_.addNode(this, parent);
}

std::unique_ptr<CoherenceMsg>
DirController::make(MsgType t, Addr addr, NodeId dst)
{
    return makeMsg(t, addr, nodeId_, dst);
}

void
DirController::send(std::unique_ptr<CoherenceMsg> msg)
{
    trace("send ", *msg);
    net_.deliver(std::move(msg));
}

void
DirController::ensureChildren()
{
    if (!children_.empty())
        return;
    children_ = net_.childrenOf(nodeId_);
    neo_assert(children_.size() <= 64,
               "directory supports at most 64 children");
    for (std::size_t i = 0; i < children_.size(); ++i)
        slotMap_[children_[i]] = static_cast<int>(i);
}

int
DirController::slotOf(NodeId child)
{
    ensureChildren();
    auto it = slotMap_.find(child);
    neo_assert(it != slotMap_.end(), name(), ": ", child,
               " is not a child");
    return it->second;
}

bool
DirController::isChild(NodeId n)
{
    ensureChildren();
    return slotMap_.count(n) != 0;
}

Perm
DirController::blockPerm(Addr addr) const
{
    const DirEntry *e = cache_.peek(addr);
    return e != nullptr ? e->perm : Perm::I;
}

void
DirController::forEachEntry(
    const std::function<void(const EntryView &)> &fn) const
{
    const_cast<CacheArray<DirEntry> &>(cache_).forEach(
        [&fn](Addr a, DirEntry &e) {
            fn(EntryView{a, e.perm, e.sharers, e.owner, e.dataValid,
                         e.dirty});
        });
}

NodeId
DirController::childAt(std::size_t slot) const
{
    const_cast<DirController *>(this)->ensureChildren();
    return children_.at(slot);
}

std::size_t
DirController::numChildren() const
{
    const_cast<DirController *>(this)->ensureChildren();
    return children_.size();
}

void
DirController::setResilience(const RecoveryParams &rec)
{
    rec_ = rec;
    resilient_ = true;
}

void
DirController::deliver(MessagePtr msg)
{
    auto *raw = dynamic_cast<CoherenceMsg *>(msg.get());
    neo_assert(raw != nullptr, name(), ": non-coherence message");
    if (resilient_ && raw->msgId != 0 && dedup_.seen(raw->msgId)) {
        ++dupDrops_;
        trace("dup-drop ", *raw);
        return;
    }
    trace("recv ", *raw);
    msg.release();
    std::unique_ptr<CoherenceMsg> cm(raw);

    if (isResponse(cm->type)) {
        switch (cm->type) {
          case MsgType::Data:
            handleData(*cm);
            break;
          case MsgType::InvAck:
            handleInvAck(*cm);
            break;
          case MsgType::PutAck:
            handlePutAck(*cm);
            break;
          case MsgType::Unblock:
            handleUnblock(*cm);
            break;
          default:
            neo_panic("unreachable");
        }
        maybeScheduleSweep();
        return;
    }

    if (isRequest(cm->type))
        ++requestArrivals_;

    routeOrDefer(std::move(cm), true);
    maybeScheduleSweep();
}

void
DirController::routeOrDefer(std::unique_ptr<CoherenceMsg> cm,
                            bool count_blocked)
{
    if (resilient_ &&
        (cm->type == MsgType::GetS || cm->type == MsgType::GetM) &&
        absorbReissue(*cm))
        return;

    auto it = tbes_.find(cm->addr);
    if (it != tbes_.end()) {
        TBE &tbe = it->second;
        if (cm->type == MsgType::Inv &&
            (tbe.mode == DirMode::FetchRead ||
             tbe.mode == DirMode::FetchWrite)) {
            // A parent Inv must not wait behind our pending fetch or
            // the hierarchy deadlocks (we wait up, parent waits down).
            handleInvDuringFetch(tbe, *cm);
            return;
        }
        if (tbe.mode == DirMode::EvictWB && isDemand(cm->type)) {
            // Our writeback is racing the parent's transaction; answer
            // from the copy we still hold (the L1 MI_A analogue).
            handleDemandDuringEvictWB(tbe, *cm);
            return;
        }
        if ((tbe.mode == DirMode::FetchRead ||
             tbe.mode == DirMode::FetchWrite) &&
            (cm->type == MsgType::FwdGetS ||
             cm->type == MsgType::FwdGetM)) {
            // With write transfers serialized at the parent, a Fwd
            // landing during our own fetch is an older-epoch demand
            // against the copy this subtree still owns (or a demand
            // racing the grant itself); serve or relay it now —
            // deferring a servable demand would close a cross-subtree
            // wait cycle (our grant depends on its completion).
            if (handleFwdDuringFetch(tbe, *cm))
                return;
            // Old data still in flight back to us: hold the demand.
            tbe.deferred.push_back(std::move(cm));
            return;
        }
        if (isRequest(cm->type) && count_blocked)
            ++blockedArrivals_;
        tbe.deferred.push_back(std::move(cm));
        return;
    }

    process(std::move(cm));
}

void
DirController::process(std::unique_ptr<CoherenceMsg> msg)
{
    switch (msg->type) {
      case MsgType::GetS:
        handleChildGetS(std::move(msg));
        break;
      case MsgType::GetM:
        handleChildGetM(std::move(msg));
        break;
      case MsgType::PutS:
      case MsgType::PutE:
      case MsgType::PutM:
      case MsgType::PutO:
        handleChildPut(*msg);
        break;
      case MsgType::Inv:
        handleParentInv(*msg);
        break;
      case MsgType::FwdGetS:
        handleParentFwdGetS(*msg);
        break;
      case MsgType::FwdGetM:
        handleParentFwdGetM(*msg);
        break;
      default:
        neo_panic(name(), ": cannot process ", msg->describe());
    }
}

bool
DirController::absorbReissue(const CoherenceMsg &msg)
{
    if (msg.serial == 0)
        return false;
    auto it = tbes_.find(msg.addr);
    if (it != tbes_.end()) {
        TBE &tbe = it->second;
        if (tbe.requester == msg.src &&
            tbe.serialOwner == msg.serialOwner &&
            tbe.serial == msg.serial) {
            // The requester timed out on a transaction we are still
            // working: re-send whatever of ours is outstanding.
            ++staleDrops_;
            redrive(msg.addr, tbe);
            return true;
        }
        return false; // a different transaction: defer normally
    }
    // No TBE. If we retired this transaction, its requester completed
    // (retirement needs the Unblock), so this copy was in flight
    // before completion and is stale: absorb it. Re-executing it
    // would race metadata that has already moved on.
    for (const auto &r : recentRetired_) {
        if (r.addr == msg.addr && r.requester == msg.src &&
            r.serialOwner == msg.serialOwner &&
            r.serial == msg.serial) {
            ++staleDrops_;
            return true;
        }
    }
    return false; // never seen (the original was dropped): process it
}

bool
DirController::replayRetiredUnblock(const CoherenceMsg &msg)
{
    if (!resilient_ || msg.serial == 0)
        return false;
    for (const auto &r : recentRetired_) {
        if (r.addr != msg.addr || r.serial != msg.serial ||
            r.serialOwner != msg.serialOwner)
            continue;
        if (r.sentUnblock && !isRoot()) {
            // Our Unblock may have been the lost message; the parent
            // re-drove its grant to ask for it again.
            auto ub = make(MsgType::Unblock, msg.addr, parent_);
            ub->dirty = r.dirtyUp;
            ub->grant = r.achieved;
            ub->sizeBytes = dataMsgBytes;
            ub->serial = r.serial;
            ub->serialOwner = r.serialOwner;
            send(std::move(ub));
        }
        ++staleDrops_;
        return true;
    }
    return false;
}

void
DirController::redrive(Addr addr, TBE &tbe)
{
    ++redrives_;
    tbe.lastActivity = curTick();
    ensureChildren();
    for (std::size_t s = 0; s < children_.size(); ++s) {
        const auto bit = bitOf(static_cast<int>(s));
        if ((tbe.invMask | tbe.subInvMask) & bit)
            send(make(MsgType::Inv, addr, children_[s]));
    }
    const bool fetching = tbe.mode == DirMode::FetchRead ||
                          tbe.mode == DirMode::FetchWrite;
    if (fetching &&
        (tbe.waitingData ||
         (cfg_.nonSiblingFwd && tbe.waitingUnblock))) {
        // The upward relay (or its answer) may have been lost.
        auto req = make(tbe.mode == DirMode::FetchRead ? MsgType::GetS
                                                       : MsgType::GetM,
                        addr, parent_);
        req->globalRequester = tbe.globalRequester;
        req->serial = tbe.serial;
        req->serialOwner = tbe.serialOwner;
        send(std::move(req));
    }
    if (tbe.fwdDispatched &&
        (tbe.fwdToParent ? tbe.waitingData : tbe.waitingUnblock)) {
        auto fwd = make(tbe.fwdType, addr, tbe.fwdTo);
        fwd->target = tbe.fwdTarget;
        fwd->respondToParent = tbe.fwdToParent;
        fwd->globalRequester = tbe.globalRequester;
        fwd->serial = tbe.serial;
        fwd->serialOwner = tbe.serialOwner;
        send(std::move(fwd));
    }
    if (tbe.grantDispatched && tbe.waitingUnblock) {
        auto data = make(MsgType::Data, addr, tbe.lastGrantDest);
        data->grant = tbe.grantPerm;
        data->dirty = tbe.grantDirty;
        data->serial = tbe.serial;
        data->serialOwner = tbe.serialOwner;
        send(std::move(data));
    }
    if (tbe.mode == DirMode::EvictWB && !isRoot()) {
        auto put = make(tbe.putType, addr, parent_);
        put->dirty = tbe.putDirty;
        if (tbe.putDirty)
            put->sizeBytes = dataMsgBytes;
        put->serial = tbe.serial;
        put->serialOwner = tbe.serialOwner;
        send(std::move(put));
    }
}

void
DirController::maybeScheduleSweep()
{
    if (!resilient_ || rec_.timeout == 0 || sweepScheduled_ ||
        tbes_.empty())
        return;
    sweepScheduled_ = true;
    eventq().schedule(curTick() + rec_.dirSweepPeriod(),
                      [this]() { sweep(); });
}

void
DirController::sweep()
{
    sweepScheduled_ = false;
    if (tbes_.empty())
        return;
    const Tick idle = rec_.dirSweepPeriod();
    const Tick now = curTick();
    bool live = false;
    for (auto &[addr, tbe] : tbes_) {
        if (tbe.redrives >= rec_.maxRetries)
            continue; // given up: the postmortem will report it
        live = true;
        if (now - tbe.lastActivity >= idle) {
            ++tbe.redrives;
            redrive(addr, tbe);
        }
    }
    // Without a live TBE the sweep stops rescheduling itself so the
    // event queue can drain to the quiescent-deadlock report; a new
    // TBE re-arms it via deliver().
    if (live)
        maybeScheduleSweep();
}

bool
DirController::makeRoom(Addr addr, std::unique_ptr<CoherenceMsg> &msg)
{
    if (cache_.peek(addr) != nullptr)
        return true;
    if (cache_.hasFreeWay(addr)) {
        DirEntry &e = cache_.allocate(addr);
        if (isRoot()) {
            // The root owns every block; memory is its backing copy.
            e.perm = Perm::M;
            e.dataValid = false;
            e.dirty = false;
        }
        return true;
    }
    auto victim = cache_.victimFor(
        addr, [this](Addr a, const DirEntry &) {
            return tbes_.count(a) == 0;
        });
    // Park the request BEFORE kicking the eviction: a recall with no
    // holders retires synchronously and drains the retry queue.
    retryQueue_.push_back(std::move(msg));
    if (victim.has_value())
        startEviction(*victim);
    return false;
}

void
DirController::startEviction(Addr victim)
{
    DirEntry *entry = cache_.peek(victim);
    neo_assert(entry != nullptr, name(), ": evicting absent block");
    ++evictions_;
    TBE tbe;
    tbe.mode = DirMode::Evict;
    tbe.lastActivity = curTick();
    // Recall every child copy (inclusive hierarchy, §4.2.2): Inv all
    // holders; the owner's ack brings the dirty block home.
    ensureChildren();
    for (std::size_t s = 0; s < children_.size(); ++s) {
        if (entry->sharers & bitOf(static_cast<int>(s))) {
            send(make(MsgType::Inv, victim, children_[s]));
            ++tbe.acksLeft;
            tbe.invMask |= bitOf(static_cast<int>(s));
            ++recalls_;
        }
    }
    entry->sharers = 0;
    entry->owner = -1;
    auto [it, inserted] = tbes_.emplace(victim, std::move(tbe));
    neo_assert(inserted, "eviction TBE already present");
    if (it->second.acksLeft == 0)
        completeIfReady(victim);
}

void
DirController::sendUpward(MsgType t, Addr addr, bool dirty,
                          std::uint64_t serial, NodeId serial_owner)
{
    neo_assert(!isRoot(), "root has no parent to relay to");
    auto msg = make(t, addr, parent_);
    msg->dirty = dirty;
    if (dirty)
        msg->sizeBytes = dataMsgBytes;
    msg->serial = serial;
    msg->serialOwner = serial_owner;
    send(std::move(msg));
}

void
DirController::handleChildGetS(std::unique_ptr<CoherenceMsg> msg)
{
    const Addr addr = msg->addr;
    if (!makeRoom(addr, msg))
        return;
    DirEntry *entry = cache_.peek(addr);
    const int slot = slotOf(msg->src);

    TBE tbe;
    tbe.requester = msg->src;
    tbe.globalRequester = msg->globalRequester;
    tbe.serial = msg->serial;
    tbe.serialOwner = msg->serialOwner;
    tbe.lastActivity = curTick();

    if (entry->owner == slot && (cfg_.nonBlockingDir || resilient_)) {
        // The recorded owner is asking for the block again: its copy
        // is gone (a use-once drop or a raced Inv); drop the stale
        // ownership record before deciding how to serve.
        entry->owner = -1;
        entry->sharers &= ~bitOf(slot);
    }

    const bool servable_here =
        entry->perm != Perm::I &&
        (entry->owner != -1 || entry->dataValid || isRoot());

    if (!servable_here) {
        // Relay up: the subtree's Permission is insufficient (or the
        // collocated copy is gone under NS forwarding). Under NS the
        // data goes straight to the global requester, so the relay
        // completes on the requester's Unblock instead of on Data.
        tbe.mode = DirMode::FetchRead;
        tbe.waitingData = !cfg_.nonSiblingFwd;
        tbe.waitingUnblock = true;
        ++relaysUp_;
        auto req = make(MsgType::GetS, addr, parent_);
        req->globalRequester = tbe.globalRequester;
        req->serial = tbe.serial;
        req->serialOwner = tbe.serialOwner;
        send(std::move(req));
        tbes_.emplace(addr, std::move(tbe));
        return;
    }

    tbe.mode = DirMode::LocalRead;
    ++localSatisfied_;
    tbe.waitingUnblock = !cfg_.nonBlockingDir;
    if (cfg_.nonBlockingDir)
        ++entry->pendingUnblocks;

    if (entry->owner != -1 && entry->owner != slot) {
        // Fetch from the owning child; data flows sibling-to-sibling
        // (Fig. 4 time (6)) or directly to the global requester under
        // NS forwarding (Fig. 5/6).
        auto fwd = make(MsgType::FwdGetS, addr,
                        children_[entry->owner]);
        fwd->target = cfg_.nonSiblingFwd ? tbe.globalRequester
                                         : tbe.requester;
        fwd->globalRequester = tbe.globalRequester;
        fwd->serial = tbe.serial;
        fwd->serialOwner = tbe.serialOwner;
        tbe.fwdDispatched = true;
        tbe.fwdType = MsgType::FwdGetS;
        tbe.fwdTo = fwd->dst;
        tbe.fwdTarget = fwd->target;
        tbe.fwdToParent = false;
        send(std::move(fwd));
        entry->sharers |= bitOf(slot);
        if (!cfg_.ownedState) {
            // MESI: ownership migrates toward this level; the
            // requester's Unblock will deliver the (dirty) data.
            entry->owner = -1;
            entry->dataValid = false;
        }
        // else MOESI: the child stays owner in O.
    } else {
        // Serve from the collocated copy (or DRAM at the root).
        neo_assert(entry->owner == -1 || entry->owner == slot, name(),
                   ": GetS from the owner");
        if (!entry->dataValid) {
            neo_assert(isRoot(), name(),
                       ": inclusive hierarchy lost the data");
            tbe.waitingData = true;
            ++dramReads_;
            const Tick delay = dram_->access(curTick());
            eventq().schedule(curTick() + delay, [this, addr]() {
                auto it = tbes_.find(addr);
                neo_assert(it != tbes_.end(), "DRAM fill without TBE");
                DirEntry *e = cache_.peek(addr);
                e->dataValid = true;
                it->second.waitingData = false;
                armLocalGrant(addr, it->second, *e);
                completeIfReady(addr);
            });
        } else {
            armLocalGrant(addr, tbe, *entry);
        }
    }
    auto [it, ok] = tbes_.emplace(addr, std::move(tbe));
    neo_assert(ok, "TBE already present");
    completeIfReady(addr);
}

void
DirController::handleChildGetM(std::unique_ptr<CoherenceMsg> msg)
{
    const Addr addr = msg->addr;
    if (!makeRoom(addr, msg))
        return;
    DirEntry *entry = cache_.peek(addr);
    const int slot = slotOf(msg->src);

    TBE tbe;
    tbe.requester = msg->src;
    tbe.globalRequester = msg->globalRequester;
    tbe.serial = msg->serial;
    tbe.serialOwner = msg->serialOwner;
    tbe.lastActivity = curTick();

    (void)slot;
    if (permRank(entry->perm) < permRank(Perm::E)) {
        // I, S or O: the permission principle forbids granting M until
        // this subtree itself holds M; relay the upgrade to the parent.
        tbe.mode = DirMode::FetchWrite;
        tbe.waitingData = !cfg_.nonSiblingFwd;
        tbe.waitingUnblock = true;
        ++relaysUp_;
        if (cfg_.nonSiblingFwd) {
            // The grant will go straight to the requester, so local
            // sharers must be invalidated concurrently with the relay.
            const int slot = slotOf(tbe.requester);
            ensureChildren();
            for (std::size_t s = 0; s < children_.size(); ++s) {
                const int si = static_cast<int>(s);
                if (si == slot)
                    continue;
                if (entry->sharers & bitOf(si)) {
                    send(make(MsgType::Inv, addr, children_[s]));
                    entry->sharers &= ~bitOf(si);
                    if (entry->owner == si)
                        entry->owner = -1;
                    ++tbe.acksLeft;
                    tbe.invMask |= bitOf(si);
                }
            }
        }
        auto req = make(MsgType::GetM, addr, parent_);
        req->globalRequester = tbe.globalRequester;
        req->serial = tbe.serial;
        req->serialOwner = tbe.serialOwner;
        send(std::move(req));
        tbes_.emplace(addr, std::move(tbe));
        return;
    }

    // E or M: satisfiable within the subtree. Write-ownership
    // transfers stay blocking even under NS-MOESI: releasing a write
    // before its Unblock lets two transfer epochs cross and deadlock
    // or double-grant M (the §4.2.2 verification cliff, mechanically).
    // Only reads get the back-to-back treatment.
    tbe.mode = DirMode::LocalWrite;
    ++localSatisfied_;
    tbe.waitingUnblock = true;
    auto [it, ok] = tbes_.emplace(addr, std::move(tbe));
    neo_assert(ok, "TBE already present");
    localWritePhase(addr, it->second, *entry);
    completeIfReady(addr);
}

/**
 * Arm the directory's own Data grant for a local read. Exclusive is
 * granted when the requester will be the sole holder (MESI).
 */
void
DirController::armLocalGrant(Addr addr, TBE &tbe, DirEntry &entry)
{
    const int slot = slotOf(tbe.requester);
    const bool sole = entry.sharers == 0 && entry.owner == -1;
    Perm grant = Perm::S;
    if (sole && cfg_.exclusiveState &&
        permRank(entry.perm) >= permRank(Perm::E)) {
        grant = Perm::E;
    }
    tbe.grantPending = true;
    tbe.grantPerm = grant;
    tbe.grantDirty = false;
    entry.sharers |= bitOf(slot);
    if (grant == Perm::E)
        entry.owner = slot;
    (void)addr;
}

void
DirController::localWritePhase(Addr addr, TBE &tbe, DirEntry &entry)
{
    const int slot = slotOf(tbe.requester);

    // Invalidate every other sharer first; the grant is armed and only
    // dispatched once the acks are in (single-writer safety).
    ensureChildren();
    for (std::size_t s = 0; s < children_.size(); ++s) {
        const int si = static_cast<int>(s);
        if (si == slot || si == entry.owner)
            continue;
        if (entry.sharers & bitOf(si)) {
            send(make(MsgType::Inv, addr, children_[s]));
            entry.sharers &= ~bitOf(si);
            ++tbe.acksLeft;
            tbe.invMask |= bitOf(si);
        }
    }

    if (entry.owner != -1 && entry.owner != slot) {
        // The owning child supplies the writer.
        tbe.fwdPending = true;
        tbe.fwdType = MsgType::FwdGetM;
        tbe.fwdTo = children_[entry.owner];
        tbe.fwdTarget = cfg_.nonSiblingFwd ? tbe.globalRequester
                                           : tbe.requester;
        entry.sharers &= ~bitOf(entry.owner);
        entry.owner = -1;
    } else {
        if (!entry.dataValid && entry.owner == -1) {
            neo_assert(isRoot(), name(),
                       ": local write lost the data");
            tbe.waitingData = true;
            ++dramReads_;
            const Tick delay = dram_->access(curTick());
            eventq().schedule(curTick() + delay, [this, addr]() {
                auto it = tbes_.find(addr);
                neo_assert(it != tbes_.end(), "DRAM fill without TBE");
                cache_.peek(addr)->dataValid = true;
                it->second.waitingData = false;
                completeIfReady(addr);
            });
        }
        tbe.grantPending = true;
        tbe.grantPerm = Perm::M;
        tbe.grantDirty = false;
    }

    // Final bookkeeping: the requester becomes the sole owner.
    entry.sharers = bitOf(slot);
    entry.owner = slot;
    entry.perm = Perm::M; // silent E->M upgrade at this level
    entry.dataValid = false;
    entry.dirty = false; // dirtiness now lives below the owner child
}

void
DirController::handleChildPut(const CoherenceMsg &msg)
{
    DirEntry *entry = cache_.peek(msg.addr);
    auto ack = make(MsgType::PutAck, msg.addr, msg.src);
    ack->serial = msg.serial; // the ack names the Put it answers
    ack->serialOwner = msg.serialOwner;
    if (entry == nullptr) {
        // Stale Put: the block was recalled while the Put was in
        // flight; the child is already in II_A.
        send(std::move(ack));
        return;
    }
    const int slot = slotOf(msg.src);
    const bool is_owner = entry->owner == slot;
    const bool is_sharer = (entry->sharers & bitOf(slot)) != 0;

    switch (msg.type) {
      case MsgType::PutM:
      case MsgType::PutO:
        if (is_owner) {
            entry->owner = -1;
            entry->sharers &= ~bitOf(slot);
            entry->dataValid = true;
            entry->dirty |= msg.dirty;
        } else if (is_sharer) {
            // Downgraded en route (a Fwd_GetS raced the Put): treat as
            // a shared-copy eviction carrying still-current data.
            entry->sharers &= ~bitOf(slot);
            if (entry->owner == -1)
                entry->dataValid = true;
        }
        break;
      case MsgType::PutE:
        if (is_owner) {
            entry->owner = -1;
            entry->sharers &= ~bitOf(slot);
            entry->dataValid = true;
        } else if (is_sharer) {
            entry->sharers &= ~bitOf(slot);
        }
        break;
      case MsgType::PutS:
        if (is_sharer)
            entry->sharers &= ~bitOf(slot);
        // A MOESI owner subtree that served readers from a clean copy
        // downgrades to S without telling us; its PutS is also the end
        // of its ownership.
        if (is_owner)
            entry->owner = -1;
        break;
      default:
        neo_panic("not a Put");
    }
    send(std::move(ack));
}

void
DirController::handleParentInv(const CoherenceMsg &msg)
{
    DirEntry *entry = cache_.peek(msg.addr);
    if (entry == nullptr) {
        // Stale Inv: we already evicted and the notifications crossed.
        send(make(MsgType::InvAck, msg.addr, parent_));
        return;
    }
    TBE tbe;
    tbe.mode = DirMode::ExtInv;
    tbe.lastActivity = curTick();
    ensureChildren();
    for (std::size_t s = 0; s < children_.size(); ++s) {
        if (entry->sharers & bitOf(static_cast<int>(s))) {
            send(make(MsgType::Inv, msg.addr, children_[s]));
            ++tbe.acksLeft;
            tbe.invMask |= bitOf(static_cast<int>(s));
        }
    }
    entry->sharers = 0;
    entry->owner = -1;
    auto [it, ok] = tbes_.emplace(msg.addr, std::move(tbe));
    neo_assert(ok, "TBE already present");
    completeIfReady(msg.addr);
}

void
DirController::handleParentFwdGetS(const CoherenceMsg &msg)
{
    DirEntry *entry = cache_.peek(msg.addr);
    if (entry == nullptr && resilient_) {
        // Re-driven demand for a block this subtree already passed on
        // and erased: feed the target again (values are untracked).
        ++staleDrops_;
        auto data = make(MsgType::Data, msg.addr,
                         msg.respondToParent ? parent_ : msg.target);
        data->grant = Perm::S;
        data->serial = msg.serial;
        data->serialOwner = msg.serialOwner;
        send(std::move(data));
        return;
    }
    neo_assert(entry != nullptr, name(), ": Fwd_GetS for absent block");
    TBE tbe;
    tbe.mode = DirMode::ExtRead;
    tbe.extTarget = msg.target;
    tbe.extToParent = msg.respondToParent;
    tbe.globalRequester = msg.globalRequester;
    tbe.serial = msg.serial;
    tbe.serialOwner = msg.serialOwner;
    tbe.lastActivity = curTick();

    if (entry->owner != -1) {
        auto fwd = make(MsgType::FwdGetS, msg.addr,
                        children_[entry->owner]);
        if (cfg_.nonSiblingFwd) {
            // NS: the data goes straight to the global requester.
            fwd->target = msg.target;
            fwd->globalRequester = msg.globalRequester;
        } else {
            // NeoMESI: the owner sends the data up to us and we relay
            // it to the sibling (Fig. 4 times (5)-(6)).
            fwd->respondToParent = true;
            tbe.waitingData = true;
        }
        fwd->serial = tbe.serial;
        fwd->serialOwner = tbe.serialOwner;
        tbe.fwdDispatched = true;
        tbe.fwdType = MsgType::FwdGetS;
        tbe.fwdTo = fwd->dst;
        tbe.fwdTarget = fwd->target;
        tbe.fwdToParent = fwd->respondToParent;
        send(std::move(fwd));
        if (!cfg_.ownedState) {
            entry->owner = -1;
            entry->dataValid = false;
        }
    } else {
        neo_assert(entry->dataValid, name(),
                   ": owner subtree without data");
        tbe.grantPending = true;
        tbe.grantPerm = Perm::S;
        if (cfg_.ownedState && entry->dirty) {
            tbe.grantDirty = false; // we keep ownership in O
        } else {
            tbe.grantDirty = entry->dirty; // pass dirtiness across
        }
    }
    auto [it, ok] = tbes_.emplace(msg.addr, std::move(tbe));
    neo_assert(ok, "TBE already present");
    completeIfReady(msg.addr);
}

void
DirController::handleParentFwdGetM(const CoherenceMsg &msg)
{
    DirEntry *entry = cache_.peek(msg.addr);
    if (entry == nullptr && resilient_) {
        // See handleParentFwdGetS: re-driven demand after we already
        // handed the block over and erased it.
        ++staleDrops_;
        auto data = make(MsgType::Data, msg.addr,
                         msg.respondToParent ? parent_ : msg.target);
        data->grant = Perm::M;
        data->dirty = true;
        data->serial = msg.serial;
        data->serialOwner = msg.serialOwner;
        send(std::move(data));
        return;
    }
    neo_assert(entry != nullptr, name(), ": Fwd_GetM for absent block");
    TBE tbe;
    tbe.mode = DirMode::ExtWrite;
    tbe.extTarget = msg.target;
    tbe.extToParent = msg.respondToParent;
    tbe.globalRequester = msg.globalRequester;
    tbe.serial = msg.serial;
    tbe.serialOwner = msg.serialOwner;
    tbe.lastActivity = curTick();

    ensureChildren();
    for (std::size_t s = 0; s < children_.size(); ++s) {
        const int si = static_cast<int>(s);
        if (si == entry->owner)
            continue;
        if (entry->sharers & bitOf(si)) {
            send(make(MsgType::Inv, msg.addr, children_[s]));
            entry->sharers &= ~bitOf(si);
            ++tbe.acksLeft;
            tbe.invMask |= bitOf(si);
        }
    }

    if (entry->owner != -1) {
        tbe.fwdPending = true;
        tbe.fwdType = MsgType::FwdGetM;
        tbe.fwdTo = children_[entry->owner];
        if (cfg_.nonSiblingFwd) {
            tbe.fwdTarget = msg.target;
            tbe.fwdToParent = false;
        } else {
            tbe.fwdToParent = true; // owner sends the data up to us
            // waitingData is set when the Fwd is dispatched
        }
        entry->sharers &= ~bitOf(entry->owner);
        entry->owner = -1;
    } else {
        neo_assert(entry->dataValid, name(),
                   ": owner subtree without data");
        tbe.grantPending = true;
        tbe.grantPerm = Perm::M;
        tbe.grantDirty = entry->dirty;
    }
    auto [it, ok] = tbes_.emplace(msg.addr, std::move(tbe));
    neo_assert(ok, "TBE already present");
    completeIfReady(msg.addr);
}

void
DirController::handleData(const CoherenceMsg &msg)
{
    // Unsolicited copies (NS-MESI owner-to-parent data, Fig. 5 (5))
    // refresh the collocated copy; the dirtiness responsibility rides
    // the requester's Unblock chain, not the copy.
    auto copy_update = [this, &msg]() {
        DirEntry *entry = cache_.peek(msg.addr);
        if (entry != nullptr && entry->owner == -1)
            entry->dataValid = true;
    };

    auto it = tbes_.find(msg.addr);
    if (it == tbes_.end()) {
        if (replayRetiredUnblock(msg))
            return;
        copy_update();
        return;
    }
    TBE &tbe = it->second;
    DirEntry *entry = cache_.peek(msg.addr);
    neo_assert(entry != nullptr, name(), ": Data for absent entry");

    if (!tbe.waitingData) {
        // This transaction is not expecting data (NS relays complete
        // on the Unblock); any Data landing now is a copy — unless it
        // is a re-driven grant for a transaction we already retired,
        // which re-elicits the Unblock the parent is waiting for.
        if (replayRetiredUnblock(msg))
            return;
        copy_update();
        return;
    }
    if (resilient_ && (msg.serial != tbe.serial ||
                       msg.serialOwner != tbe.serialOwner)) {
        // A delayed grant from an older transaction of this block:
        // adopting it could out-grant what the parent gave THIS
        // transaction, and a re-driven grant for a transaction we
        // already retired re-elicits the Unblock instead.
        if (replayRetiredUnblock(msg))
            return;
        ++staleDrops_;
        copy_update();
        return;
    }
    tbe.lastActivity = curTick();

    switch (tbe.mode) {
      case DirMode::FetchRead: {
        // Our subtree was granted msg.grant (S or E); pass it on.
        entry->perm = msg.grant;
        entry->dataValid = true;
        tbe.dirtyCarried = msg.dirty;
        tbe.waitingData = false;
        armLocalGrant(msg.addr, tbe, *entry);
        tbe.grantDirty = msg.dirty;
        if (tbe.grantPerm == Perm::E && msg.grant != Perm::E)
            tbe.grantPerm = Perm::S; // cannot out-grant our own grant
        break;
      }
      case DirMode::FetchWrite:
        entry->perm = Perm::M;
        entry->dataValid = true;
        tbe.dirtyCarried = true;
        tbe.waitingData = false;
        localWritePhase(msg.addr, tbe, *entry);
        break;
      case DirMode::ExtRead:
        // The owning child returned the data for us to relay.
        neo_assert(tbe.waitingData, name(), ": unexpected ExtRead data");
        tbe.waitingData = false;
        entry->dataValid = true;
        entry->dirty |= msg.dirty;
        tbe.grantPending = true;
        tbe.grantPerm = Perm::S;
        tbe.grantDirty = entry->dirty;
        break;
      case DirMode::ExtWrite:
        neo_assert(tbe.waitingData, name(),
                   ": unexpected ExtWrite data");
        tbe.waitingData = false;
        tbe.dirtyCarried = tbe.dirtyCarried || msg.dirty || entry->dirty;
        tbe.grantPending = true;
        tbe.grantPerm = Perm::M;
        tbe.grantDirty = tbe.dirtyCarried;
        break;
      case DirMode::LocalRead:
      case DirMode::LocalWrite:
        // Copy landing while the root's DRAM fill is pending.
        copy_update();
        return; // not a completion signal
      default:
        neo_panic(name(), ": Data in mode ", dirModeName(tbe.mode));
    }
    completeIfReady(msg.addr);
}

void
DirController::handleInvAck(const CoherenceMsg &msg)
{
    auto it = tbes_.find(msg.addr);
    if (resilient_ && it == tbes_.end()) {
        ++staleDrops_; // ack for an already-finished invalidation
        return;
    }
    neo_assert(it != tbes_.end(), name(), ": InvAck without TBE");
    TBE &tbe = it->second;
    DirEntry *entry = cache_.peek(msg.addr);
    if (resilient_ && entry == nullptr) {
        ++staleDrops_;
        return;
    }
    neo_assert(entry != nullptr, name(), ": InvAck for absent entry");
    const std::uint64_t src_bit =
        resilient_ && isChild(msg.src) ? bitOf(slotOf(msg.src)) : 0;
    if (resilient_ && src_bit == 0) {
        ++staleDrops_;
        return;
    }
    tbe.lastActivity = curTick();

    if (tbe.subInvActive) {
        if (resilient_) {
            if ((tbe.subInvMask & src_bit) == 0) {
                ++staleDrops_; // duplicate ack of this nested wave
                return;
            }
            tbe.subInvMask &= ~src_bit;
        }
        if (--tbe.subInvAcksLeft == 0) {
            // Nested parent Inv satisfied: report up, stay fetching.
            send(make(MsgType::InvAck, msg.addr, parent_));
            entry->perm = Perm::I;
            entry->dataValid = false;
            tbe.subInvActive = false;
            // The fetch itself may already have finished (its Unblock
            // can beat the nested acks under non-blocking reads).
            completeIfReady(msg.addr);
        }
        return;
    }

    if (resilient_) {
        if ((tbe.invMask & src_bit) == 0) {
            ++staleDrops_; // duplicate or reissue-crossed ack
            return;
        }
        tbe.invMask &= ~src_bit;
    }
    neo_assert(tbe.acksLeft > 0, name(), ": spurious InvAck");
    --tbe.acksLeft;
    if (msg.dirty) {
        // A recalled owner returned the dirty block.
        entry->dataValid = true;
        entry->dirty = true;
    }
    completeIfReady(msg.addr);
}

void
DirController::handleUnblock(const CoherenceMsg &msg)
{
    auto it = tbes_.find(msg.addr);
    DirEntry *entry = cache_.peek(msg.addr);
    if (it != tbes_.end() && it->second.waitingUnblock &&
        it->second.requester == msg.src &&
        (!resilient_ || (msg.serial == it->second.serial &&
                         msg.serialOwner == it->second.serialOwner))) {
        TBE &tbe = it->second;
        tbe.lastActivity = curTick();
        tbe.waitingUnblock = false;
        tbe.unblockDirty = msg.dirty;
        tbe.unblockGrant = msg.grant;
        if (entry != nullptr && entry->owner == -1)
            entry->dataValid = true;
        completeIfReady(msg.addr);
        return;
    }
    // Duplicates of a replayed Unblock must be inert under a blocking
    // directory: the metadata-only adoption below is NS bookkeeping.
    if (resilient_ && !cfg_.nonBlockingDir) {
        ++staleDrops_;
        return;
    }
    // Late Unblock under non-blocking directories: metadata only.
    if (entry != nullptr) {
        if (entry->pendingUnblocks > 0)
            --entry->pendingUnblocks;
        if (entry->owner == -1) {
            entry->dataValid = true;
            if (permRank(entry->perm) >= permRank(Perm::E))
                entry->dirty |= msg.dirty;
        }
    }
}

void
DirController::handlePutAck(const CoherenceMsg &msg)
{
    auto it = tbes_.find(msg.addr);
    if (resilient_ &&
        (it == tbes_.end() || it->second.mode != DirMode::EvictWB ||
         msg.serial != it->second.serial)) {
        ++staleDrops_; // ack for an already-retired (or reissued) Put
        return;
    }
    neo_assert(it != tbes_.end() && it->second.mode == DirMode::EvictWB,
               name(), ": PutAck without a pending writeback");
    if (cache_.peek(msg.addr) != nullptr)
        cache_.erase(msg.addr);
    retire(msg.addr);
}

bool
DirController::handleFwdDuringFetch(TBE &tbe, const CoherenceMsg &msg)
{
    {
        DirEntry *e = cache_.peek(msg.addr);
        if (e != nullptr && e->owner == -1 && !e->dataValid &&
            tbe.acksLeft > 0) {
            // The old owner's copy is riding back on an InvAck; hold
            // the demand until it lands (completeIfReady re-runs us).
            return false;
        }
    }
    // Only NS-MOESI's back-to-back read processing exposes this race;
    // write-ownership transfers are serialized at the parent, so the
    // demand is necessarily from an epoch older than our pending one
    // and applies to the copy this subtree currently owns.
    if (resilient_ && !cfg_.nonBlockingDir) {
        // A delayed or re-driven Fwd caught us after our old copy was
        // already evicted (the parent revoked our ownership when it
        // processed the Put). We have nothing to hand over; grant the
        // demanded permission directly so the parent's transaction can
        // complete — in this permission-only model the supply itself
        // carries no payload.
        auto data = make(MsgType::Data, msg.addr,
                         msg.respondToParent ? parent_ : msg.target);
        data->grant = msg.type == MsgType::FwdGetM ? Perm::M : Perm::S;
        data->dirty = msg.type == MsgType::FwdGetM;
        data->serial = msg.serial;
        data->serialOwner = msg.serialOwner;
        send(std::move(data));
        ++staleDrops_;
        return true;
    }
    neo_assert(cfg_.nonBlockingDir, name(),
               ": Fwd during a fetch under a blocking directory");
    DirEntry *entry = cache_.peek(msg.addr);
    neo_assert(entry != nullptr, name(), ": Fwd race on absent entry");
    const bool is_getm = msg.type == MsgType::FwdGetM;

    if (is_getm) {
        // Invalidate any remaining old shared copies (at most the
        // upgrading requester itself after the FetchWrite setup).
        ensureChildren();
        for (std::size_t s = 0; s < children_.size(); ++s) {
            const int si = static_cast<int>(s);
            if (si == entry->owner)
                continue;
            if (entry->sharers & bitOf(si)) {
                send(make(MsgType::Inv, msg.addr, children_[s]));
                entry->sharers &= ~bitOf(si);
                ++tbe.acksLeft;
                tbe.invMask |= bitOf(si);
            }
        }
    }

    if (entry->owner != -1) {
        // The old copy lives in a child; relay the demand down.
        auto fwd = make(msg.type, msg.addr, children_[entry->owner]);
        fwd->target = msg.target;
        fwd->respondToParent = false;
        fwd->globalRequester = msg.globalRequester;
        fwd->serial = msg.serial;
        fwd->serialOwner = msg.serialOwner;
        send(std::move(fwd));
        if (is_getm) {
            entry->sharers &= ~bitOf(entry->owner);
            entry->owner = -1;
        }
        // A read against a MOESI owner leaves the owner in place.
    } else if (entry->dataValid) {
        auto data = make(MsgType::Data, msg.addr,
                         msg.respondToParent ? parent_ : msg.target);
        data->grant = is_getm ? Perm::M : Perm::S;
        data->dirty = entry->dirty;
        data->serial = msg.serial;
        data->serialOwner = msg.serialOwner;
        send(std::move(data));
        if (is_getm) {
            entry->dataValid = false;
            entry->dirty = false;
            entry->perm = Perm::I; // superseded by our pending epoch
        }
    } else {
        // No copy here at all: the demand is racing the very grant we
        // are fetching (back-to-back reads at the parent). Relay it to
        // our in-flight requester, who buffers it until its data lands
        // (or answers from the copy it already received). Either way
        // the Unblock may already be in flight with a stale grant, so
        // record how this demand degrades what we actually keep.
        auto fwd = make(msg.type, msg.addr, tbe.requester);
        fwd->target = msg.target;
        fwd->respondToParent = false;
        fwd->globalRequester = msg.globalRequester;
        fwd->serial = msg.serial;
        fwd->serialOwner = msg.serialOwner;
        send(std::move(fwd));
        if (is_getm)
            tbe.grantRevoked = true;
        else
            tbe.fwdSRelayed = true;
    }
    return true;
}

void
DirController::handleDemandDuringEvictWB(TBE &tbe, const CoherenceMsg &msg)
{
    DirEntry *entry = cache_.peek(msg.addr);
    neo_assert(entry != nullptr, name(), ": EvictWB race on absent entry");
    (void)tbe;
    switch (msg.type) {
      case MsgType::Inv: {
        auto ack = make(MsgType::InvAck, msg.addr, parent_);
        ack->dirty = entry->dirty;
        if (entry->dirty)
            ack->sizeBytes = dataMsgBytes;
        send(std::move(ack));
        entry->perm = Perm::I;
        entry->dirty = false;
        break;
      }
      case MsgType::FwdGetS: {
        auto data = make(MsgType::Data, msg.addr,
                         msg.respondToParent ? parent_ : msg.target);
        data->grant = Perm::S;
        data->dirty = entry->dirty;
        data->serial = msg.serial;
        data->serialOwner = msg.serialOwner;
        send(std::move(data));
        entry->perm = Perm::S;
        entry->dirty = false;
        break;
      }
      case MsgType::FwdGetM: {
        auto data = make(MsgType::Data, msg.addr,
                         msg.respondToParent ? parent_ : msg.target);
        data->grant = Perm::M;
        data->dirty = entry->dirty;
        data->serial = msg.serial;
        data->serialOwner = msg.serialOwner;
        send(std::move(data));
        entry->perm = Perm::I;
        entry->dirty = false;
        break;
      }
      default:
        neo_panic("not a demand");
    }
}

void
DirController::handleInvDuringFetch(TBE &tbe, const CoherenceMsg &msg)
{
    DirEntry *entry = cache_.peek(msg.addr);
    neo_assert(entry != nullptr, name(), ": Inv race on absent entry");
    neo_assert(!tbe.subInvActive, name(), ": nested Inv twice");
    tbe.subInvActive = true;
    tbe.subInvAcksLeft = 0;
    ensureChildren();
    if (tbe.mode == DirMode::FetchRead && entry->perm == Perm::I &&
        cfg_.nonBlockingDir) {
        // No old copy exists here, so this Inv revokes the very grant
        // we are fetching (a back-to-back writer at the parent beat
        // our Unblock). Chase the grant down to the requester — it
        // answers from IS_D (use-once) — and drop the achieved
        // permission at retire.
        send(make(MsgType::Inv, msg.addr, tbe.requester));
        ++tbe.subInvAcksLeft;
        tbe.subInvMask |= bitOf(slotOf(tbe.requester));
        tbe.grantRevoked = true;
    }
    for (std::size_t s = 0; s < children_.size(); ++s) {
        if (entry->sharers & bitOf(static_cast<int>(s))) {
            send(make(MsgType::Inv, msg.addr, children_[s]));
            ++tbe.subInvAcksLeft;
            tbe.subInvMask |= bitOf(static_cast<int>(s));
        }
    }
    entry->sharers = 0;
    entry->owner = -1;
    if (tbe.subInvAcksLeft == 0) {
        send(make(MsgType::InvAck, msg.addr, parent_));
        entry->perm = Perm::I;
        entry->dataValid = false;
        tbe.subInvActive = false;
    }
}

void
DirController::completeIfReady(Addr addr)
{
    auto it = tbes_.find(addr);
    if (it == tbes_.end())
        return;
    TBE &tbe = it->second;
    DirEntry *entry = cache_.peek(addr);

    if (tbe.subInvActive || tbe.acksLeft > 0 || tbe.waitingData)
        return;

    // Acks are in: dispatch any pending owner-forward, then any
    // pending grant from our own copy.
    if (tbe.fwdPending) {
        tbe.fwdPending = false;
        tbe.fwdDispatched = true;
        auto fwd = make(tbe.fwdType, addr, tbe.fwdTo);
        fwd->target = tbe.fwdTarget;
        fwd->respondToParent = tbe.fwdToParent;
        fwd->globalRequester = tbe.globalRequester;
        fwd->serial = tbe.serial;
        fwd->serialOwner = tbe.serialOwner;
        send(std::move(fwd));
        if (tbe.fwdToParent) {
            tbe.waitingData = true;
            return;
        }
    }
    if (tbe.grantPending) {
        tbe.grantPending = false;
        NodeId dest;
        if (tbe.mode == DirMode::ExtRead ||
            tbe.mode == DirMode::ExtWrite) {
            dest = tbe.extToParent ? parent_ : tbe.extTarget;
        } else if (cfg_.nonSiblingFwd &&
                   tbe.globalRequester != invalidNode) {
            // NS: serve the originating L1 directly, however deep.
            dest = tbe.globalRequester;
        } else {
            dest = tbe.requester;
        }
        auto data = make(MsgType::Data, addr, dest);
        data->grant = tbe.grantPerm;
        data->dirty = tbe.grantDirty;
        data->serial = tbe.serial;
        data->serialOwner = tbe.serialOwner;
        send(std::move(data));
        tbe.grantDispatched = true;
        tbe.lastGrantDest = dest;
    }

    if (tbe.waitingUnblock) {
        // Acks are in; any demand held for the returning old copy can
        // now be answered (see handleFwdDuringFetch).
        if ((tbe.mode == DirMode::FetchRead ||
             tbe.mode == DirMode::FetchWrite) &&
            tbe.acksLeft == 0 && !tbe.deferred.empty()) {
            auto deferred = std::move(tbe.deferred);
            tbe.deferred.clear();
            for (auto &m : deferred) {
                auto *cm = static_cast<CoherenceMsg *>(m.get());
                if ((cm->type == MsgType::FwdGetS ||
                     cm->type == MsgType::FwdGetM) &&
                    handleFwdDuringFetch(tbe, *cm)) {
                    continue;
                }
                tbe.deferred.push_back(std::move(m));
            }
        }
        return;
    }

    if (tbe.mode == DirMode::Evict) {
        // Recall finished; move to the writeback phase.
        tbe.mode = DirMode::EvictWB;
        neo_assert(entry != nullptr, "evicting absent entry");
        if (isRoot()) {
            if (entry->dirty) {
                ++dramWrites_;
                dram_->access(curTick());
            }
            cache_.erase(addr);
            retire(addr);
            return;
        }
        if (entry->perm == Perm::I) {
            // Never granted anything; drop silently.
            cache_.erase(addr);
            retire(addr);
            return;
        }
        MsgType put;
        if (entry->dirty) {
            put = (entry->perm == Perm::O) ? MsgType::PutO
                                           : MsgType::PutM;
        } else {
            put = (entry->perm == Perm::E) ? MsgType::PutE
                                           : MsgType::PutS;
        }
        tbe.putType = put;
        tbe.putDirty = entry->dirty;
        if (resilient_) {
            tbe.serial = ++serialCtr_;
            tbe.serialOwner = nodeId_;
        }
        sendUpward(put, addr, entry->dirty, tbe.serial, tbe.serialOwner);
        // Any demands deferred during the recall can now be answered
        // from the copy in hand.
        auto deferred = std::move(tbe.deferred);
        tbe.deferred.clear();
        for (auto &m : deferred) {
            auto *cm = static_cast<CoherenceMsg *>(m.get());
            if (isDemand(cm->type)) {
                handleDemandDuringEvictWB(tbe, *cm);
            } else {
                tbe.deferred.push_back(std::move(m));
            }
        }
        return; // awaits PutAck
    }
    if (tbe.mode == DirMode::EvictWB)
        return; // awaits PutAck

    // Mode-specific retirement bookkeeping.
    switch (tbe.mode) {
      case DirMode::LocalRead:
      case DirMode::LocalWrite:
      case DirMode::FetchRead:
      case DirMode::FetchWrite: {
        neo_assert(entry != nullptr, "local retire on absent entry");
        const bool is_fetch = tbe.mode == DirMode::FetchRead ||
                              tbe.mode == DirMode::FetchWrite;
        if (is_fetch && cfg_.nonSiblingFwd && !tbe.grantRevoked) {
            // The data bypassed us; adopt what the Unblock reported.
            // Buffered Fwds may have already moved the block on, so
            // the achieved permission can be anything down to I.
            const int slot = slotOf(tbe.requester);
            Perm achieved = tbe.unblockGrant;
            if (tbe.fwdSRelayed &&
                permRank(achieved) >= permRank(Perm::E)) {
                // A reader was served out of our exclusive grant.
                achieved = cfg_.ownedState ? Perm::O : Perm::S;
            }
            entry->perm = achieved;
            if (achieved != Perm::I) {
                entry->sharers |= bitOf(slot);
                if (permRank(achieved) >= permRank(Perm::O)) {
                    entry->owner = slot;
                    entry->dataValid = false;
                }
            }
        }
        const bool carried = tbe.dirtyCarried || tbe.unblockDirty;
        bool pass_up = false;
        if (carried) {
            if (permRank(entry->perm) >= permRank(Perm::E)) {
                entry->dirty = true; // absorbed at this level
            } else {
                pass_up = true; // an S subtree cannot own dirtiness
            }
        }
        if (is_fetch && !isRoot()) {
            auto ub = make(MsgType::Unblock, addr, parent_);
            ub->dirty = pass_up;
            ub->grant = entry->perm;
            ub->sizeBytes = dataMsgBytes;
            ub->serial = tbe.serial;
            ub->serialOwner = tbe.serialOwner;
            tbe.sentUnblock = true;
            tbe.achievedGrant = ub->grant;
            tbe.achievedDirty = ub->dirty;
            send(std::move(ub));
        }
        break;
      }
      case DirMode::ExtRead: {
        neo_assert(entry != nullptr, "ExtRead retire on absent entry");
        if (cfg_.ownedState &&
            (entry->owner != -1 || entry->dirty)) {
            entry->perm = Perm::O;
        } else {
            entry->perm = Perm::S;
            entry->dirty = false; // ownership passed across/up
        }
        break;
      }
      case DirMode::ExtWrite:
      case DirMode::ExtInv: {
        if (tbe.mode == DirMode::ExtInv) {
            auto ack = make(MsgType::InvAck, addr, parent_);
            ack->dirty = entry != nullptr && entry->dirty;
            if (ack->dirty)
                ack->sizeBytes = dataMsgBytes;
            send(std::move(ack));
        }
        if (entry != nullptr)
            cache_.erase(addr);
        break;
      }
      default:
        break;
    }
    retire(addr);
}

void
DirController::retire(Addr addr)
{
    auto it = tbes_.find(addr);
    neo_assert(it != tbes_.end(), "retiring absent TBE");
    if (resilient_ && it->second.serial != 0 &&
        it->second.requester != invalidNode) {
        // Retirement implies the requester's Unblock arrived, so any
        // same-serial reissue still in flight is stale; remember the
        // identity so absorbReissue can drop it.
        // Sized to outlive the parent's reissue sweep: a directory
        // retires transactions at the combined rate of its whole
        // subtree, and an Unblock-loss repair needs this entry to
        // still be here when the parent's re-driven grant lands.
        recentRetired_.push_front(RetiredTxn{
            addr, it->second.requester, it->second.serialOwner,
            it->second.serial, it->second.sentUnblock,
            it->second.achievedGrant, it->second.achievedDirty});
        if (recentRetired_.size() > 8192)
            recentRetired_.pop_back();
    }
    auto deferred = std::move(it->second.deferred);
    tbes_.erase(it);

    for (auto &m : deferred)
        retryQueue_.push_back(std::move(m));

    if (draining_)
        return; // the outer drain loop will pick these up
    draining_ = true;
    // Drain in bounded passes: a message that re-parks (its set is
    // still full of busy ways) must wait for a future retirement, not
    // spin this loop forever.
    bool progress = true;
    while (progress && !retryQueue_.empty()) {
        const std::size_t before = retryQueue_.size();
        for (std::size_t k = 0; k < before && !retryQueue_.empty();
             ++k) {
            MessagePtr m = std::move(retryQueue_.front());
            retryQueue_.pop_front();
            auto *raw = static_cast<CoherenceMsg *>(m.release());
            std::unique_ptr<CoherenceMsg> cm(raw);
            // Re-route through the full busy check so demands keep
            // their special handling against TBEs created mid-drain.
            routeOrDefer(std::move(cm), false);
        }
        progress = retryQueue_.size() < before;
    }
    draining_ = false;
}

std::string
DirController::debugDump() const
{
    std::ostringstream os;
    for (const auto &[addr, tbe] : tbes_) {
        os << name() << " 0x" << std::hex << addr << std::dec << " "
           << dirModeName(tbe.mode) << " req=" << tbe.requester
           << " acks=" << tbe.acksLeft
           << (tbe.waitingData ? " wData" : "")
           << (tbe.waitingUnblock ? " wUnblk" : "")
           << (tbe.grantPending ? " grant!" : "")
           << (tbe.fwdPending ? " fwd!" : "")
           << (tbe.subInvActive ? " subInv" : "")
           << " deferred=" << tbe.deferred.size()
           << " txn=" << tbe.serialOwner << ":" << tbe.serial
           << " redrives=" << tbe.redrives << "\n";
    }
    if (!retryQueue_.empty())
        os << name() << " retryQueue=" << retryQueue_.size() << "\n";
    return os.str();
}

void
DirController::addStats(StatGroup &group) const
{
    group.add(&requestArrivals_);
    group.add(&blockedArrivals_);
    group.add(&relaysUp_);
    group.add(&localSatisfied_);
    group.add(&evictions_);
    group.add(&recalls_);
    group.add(&dramReads_);
    group.add(&dramWrites_);
    group.add(&redrives_);
    group.add(&staleDrops_);
    group.add(&dupDrops_);
}

} // namespace neo
