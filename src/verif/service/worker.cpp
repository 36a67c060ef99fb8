#include "worker.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "sim/exit_codes.hpp"
#include "sim/io_retry.hpp"
#include "sim/logging.hpp"
#include "verif/explorer.hpp"
#include "verif/models/flat_closed.hpp"
#include "verif/models/flat_open.hpp"
#include "verif/models/german.hpp"
#include "verif/models/mutants.hpp"
#include "verif/service/wire.hpp"
#include "verif/state_store.hpp"

namespace neo
{

using neo::verif::CompositionMethod;
using neo::verif::Mutant;
using neo::verif::VerifFeatures;

TransitionSystem
buildJobModel(const JobSpec &spec, ModelShape &shape, std::string &err)
{
    err.clear();
    if (!spec.mutant.empty()) {
        const Mutant *m = neo::verif::findMutant(spec.mutant);
        if (m == nullptr) {
            err = "unknown mutant " + spec.mutant;
            return TransitionSystem();
        }
        return m->build(shape);
    }
    if (spec.features == "german")
        return neo::verif::buildGermanModel(spec.n, shape);

    VerifFeatures f;
    if (spec.features == "msi")
        f = VerifFeatures::baselineMSI();
    else if (spec.features == "msi-incl")
        f = VerifFeatures::inclusiveMSI();
    else if (spec.features == "neomesi")
        f = VerifFeatures::neoMESI();
    else if (spec.features == "moesi")
        f = VerifFeatures::withOwned();
    else if (spec.features == "nsmesi") {
        f = VerifFeatures::neoMESI();
        f.nonSiblingFwd = true;
    } else {
        err = "unknown feature set " + spec.features;
        return TransitionSystem();
    }

    CompositionMethod cm = CompositionMethod::Modified;
    if (spec.method == "none")
        cm = CompositionMethod::None;
    else if (spec.method == "original")
        cm = CompositionMethod::Original;
    else if (spec.method != "modified") {
        err = "unknown method " + spec.method;
        return TransitionSystem();
    }

    if (spec.system == "closed")
        return neo::verif::buildClosedModel(spec.n, f, shape);
    if (spec.system != "open") {
        err = "unknown system " + spec.system;
        return TransitionSystem();
    }
    return neo::verif::buildOpenModel(spec.n, f, cm, shape);
}

namespace
{

/** Successors per States frame: amortizes framing without letting a
 *  peer's backlog grow stale. */
constexpr std::uint32_t kStateBatch = 128;
/** States expanded between poll() rounds. */
constexpr unsigned kExpandBatch = 64;
/** Control-channel service interval during a resume load or a
 *  partition snapshot encode (records between pollControlOnce). */
constexpr std::uint64_t kLoadServiceStride = 65536;
/** Star-mode backpressure: once this many bytes sit undrained in the
 *  coordinator link's out-buffer, expansion stops until the relay
 *  catches up — a slow peer stalls this worker's batch stream, it
 *  never balloons memory. */
constexpr std::size_t kCtlHighWater = 4u << 20;
/** Star-mode link deadlines (floors; scaled by the heartbeat). */
constexpr double kIdleFloorSeconds = 15.0;
constexpr double kIdleHeartbeats = 10.0;
constexpr double kStallFloorSeconds = 10.0;
constexpr double kStallHeartbeats = 8.0;

double
monoNow()
{
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               Clock::now().time_since_epoch())
        .count();
}

struct WorkerRt
{
    const WorkerConfig *cfg = nullptr;
    const TransitionSystem *ts = nullptr;
    const CompiledRules *rules = nullptr;
    std::size_t numVars = 0;
    std::uint64_t fingerprint = 0;

    StateStore *store = nullptr;
    std::deque<std::uint32_t> queue;

    Channel ctl;
    std::vector<Channel> peers;
    /** Per-peer pending States batch (raw concatenated states). */
    std::vector<std::vector<std::uint8_t>> batch;
    std::vector<std::uint32_t> batchCount;

    std::uint64_t transitions = 0;
    std::uint64_t invChecks = 0;
    std::uint64_t sentTotal = 0;
    std::uint64_t recvTotal = 0;
    /** Fresh states this attempt interned (crashAfter/parkAfter). */
    std::uint64_t freshInterns = 0;
    /** freshInterns at the last CkptWrite (ckptStates quota base). */
    std::uint64_t freshAtBarrier = 0;

    /** TCP star topology: no peer mesh; foreign states ride the
     *  control channel as StatesTo frames the coordinator relays. */
    bool star = false;
    /** Last time any control frame arrived (star read deadline). */
    double lastCtlActivity = 0.0;
    /** StatesTo bodies parked during a snapshot encode or a resume
     *  load. Mid-encode, interning would invalidate the store
     *  pointers the encoder is iterating; mid-load, a relayed state
     *  the partition scan has not reached yet would intern as fresh
     *  and be expanded a second time, inflating the exact
     *  transition/invariant counts the manifests carry. */
    std::vector<std::vector<std::uint8_t>> deferred;

    bool paused = false;
    bool violated = false;
    /** Resume partitions are still being scanned: the store is
     *  partial, so the coordinator must not count this worker toward
     *  fixpoint or checkpoint stability (rides in every Pong). */
    bool loading = false;
    /** A partition snapshot encode is on the stack; guards against a
     *  re-entrant CkptWrite when the encode services the channel. */
    bool snapshotting = false;

    VState scratch;
};

void pollControlOnce(WorkerRt &rt, int timeoutMs);

void
flushBatch(WorkerRt &rt, unsigned peer)
{
    if (rt.batchCount[peer] == 0)
        return;
    SnapshotWriter w;
    if (rt.star) {
        // Star route: the coordinator relays this to worker `peer`.
        w.putU32(peer);
        w.putU32(rt.batchCount[peer]);
        w.putBytes(rt.batch[peer].data(), rt.batch[peer].size());
        rt.ctl.queueFrame(MsgType::StatesTo, w.take());
    } else {
        w.putU32(rt.batchCount[peer]);
        w.putBytes(rt.batch[peer].data(), rt.batch[peer].size());
        rt.peers[peer].queueFrame(MsgType::States, w.take());
    }
    rt.batch[peer].clear();
    rt.batchCount[peer] = 0;
}

void
flushAllBatches(WorkerRt &rt)
{
    for (unsigned p = 0; p < rt.peers.size(); ++p)
        flushBatch(rt, p);
}

void
reportViolation(WorkerRt &rt, const std::string &invariant,
                const VState &bad)
{
    rt.violated = true;
    rt.queue.clear();
    SnapshotWriter w;
    putString(w, invariant);
    putString(w, rt.ts->describe(bad));
    // The reporter's exact counters ride along: a violation can land
    // before the first pong round, and the verdict should not report
    // zeros just because no heartbeat completed yet.
    w.putU64(rt.store->size());
    w.putU64(rt.transitions);
    w.putU64(rt.invChecks);
    rt.ctl.queueFrame(MsgType::Violation, w.take());
}

/** The park hook has fired: expansion stops for good this attempt,
 *  with the state that tripped it still queued (see JobSpec). */
bool
parked(const WorkerRt &rt)
{
    return rt.cfg->spec.parkAfter != 0 &&
           rt.freshInterns >= rt.cfg->spec.parkAfter;
}

/** The work-based checkpoint cadence has fired: this worker has
 *  interned its ckptStates quota since the last barrier and holds the
 *  rest of its queue until the coordinator's next CkptWrite. */
bool
heldForBarrier(const WorkerRt &rt)
{
    return rt.cfg->ckptStates != 0 && !rt.queue.empty() &&
           rt.freshInterns - rt.freshAtBarrier >= rt.cfg->ckptStates;
}

/** Intern a state this worker owns; fresh states are invariant-
 *  checked, queued for expansion, and counted for the fault-injection
 *  hooks. */
void
acceptOwn(WorkerRt &rt, const std::uint8_t *bytes, std::uint64_t hash)
{
    const auto [id, fresh] = rt.store->internHashed(bytes, hash);
    if (!fresh || rt.violated)
        return;
    std::memcpy(rt.scratch.data(), bytes, rt.numVars);
    for (const auto &inv : rt.ts->invariants()) {
        ++rt.invChecks;
        if (!inv.check(rt.scratch)) {
            reportViolation(rt, inv.name, rt.scratch);
            return;
        }
    }
    rt.queue.push_back(id);
    ++rt.freshInterns;
    if (rt.cfg->spec.crashAfter != 0 &&
        rt.freshInterns >= rt.cfg->spec.crashAfter)
        ::_exit(kWorkerExitInjectedCrash); // injected fault: die hard
}

bool
outEmpty(const WorkerRt &rt)
{
    for (const auto &c : rt.batchCount)
        if (c != 0)
            return false;
    for (const auto &p : rt.peers)
        if (p.open() && p.wantsWrite())
            return false;
    // Star mode: batches queued on the coordinator link are in
    // flight too. (Σsent==Σrecv already refuses a fixpoint while any
    // batch is unreceived; this just keeps the pong honest.)
    if (rt.star && rt.ctl.wantsWrite())
        return false;
    return true;
}

void
sendPong(WorkerRt &rt, std::uint32_t seq)
{
    SnapshotWriter w;
    w.putU32(seq);
    w.putU8(rt.paused ? 1 : 0);
    w.putU8(rt.loading ? 1 : 0);
    w.putU8(outEmpty(rt) ? 1 : 0);
    w.putU64(rt.queue.size());
    w.putU64(rt.store->size());
    w.putU64(rt.transitions);
    w.putU64(rt.invChecks);
    w.putU64(rt.sentTotal);
    w.putU64(rt.recvTotal);
    w.putU8(heldForBarrier(rt) ? 1 : 0);
    rt.ctl.queueFrame(MsgType::Pong, w.take());
}

void
writePartition(WorkerRt &rt, std::uint64_t epoch)
{
    // The encode walks every stored state; on a large partition that
    // outlasts the coordinator's staleness limit, so keep answering
    // Pings while it runs. snapshotting guards the re-entrancy this
    // opens up (serviceControl must not start a second encode).
    rt.snapshotting = true;
    std::uint64_t sinceService = 0;
    auto maybeService = [&]() {
        if (++sinceService % kLoadServiceStride == 0)
            pollControlOnce(rt, 0);
    };

    ExploreSnapshotMeta meta;
    // Counters live in the journal's CKPT manifest, not here: after a
    // reshard the per-partition attribution is meaningless anyway.
    meta.elapsedSeconds = 0.0;
    meta.transitionsFired = 0;
    meta.ruleFires.assign(rt.ts->rules().size(), 0);
    meta.hasLinks = false;
    meta.numStates = rt.store->size();

    const std::string path = partitionSnapshotPath(
        rt.cfg->partDir, epoch, rt.cfg->index, rt.cfg->count);
    const auto payload = encodeExploreSnapshotStreamed(
        meta, rt.numVars,
        [&](std::uint64_t id) {
            maybeService();
            return rt.store->at(static_cast<std::uint32_t>(id));
        },
        [](std::uint64_t) { return ExploreSnapshot::Link{}; },
        rt.queue.size(),
        [&](std::uint64_t i) {
            maybeService();
            return std::pair<std::uint64_t, std::uint32_t>(
                rt.queue[static_cast<std::size_t>(i)], 0);
        });
    std::string err;
    const bool ok = writeSnapshotFile(path, SnapshotKind::Explore,
                                      rt.fingerprint, payload, err);
    rt.snapshotting = false;
    if (!ok)
        neo_warn("worker ", rt.cfg->index, ": partition snapshot: ",
                 err);
    SnapshotWriter w;
    w.putU64(epoch);
    w.putU8(ok ? 1 : 0);
    rt.ctl.queueFrame(MsgType::CkptDone, w.take());
}

void
sendFinalAndExit(WorkerRt &rt)
{
    SnapshotWriter w;
    w.putU64(rt.store->size());
    w.putU64(rt.transitions);
    w.putU64(rt.invChecks);
    rt.ctl.queueFrame(MsgType::Final, w.take());
    // Drain the control channel before dying; the fd is non-blocking,
    // so wait for writability explicitly.
    while (rt.ctl.open() && rt.ctl.wantsWrite()) {
        pollfd p{rt.ctl.fd(), POLLOUT, 0};
        if (::poll(&p, 1, 1000) < 0 && errno != EINTR)
            break;
        rt.ctl.flush();
        if (rt.ctl.failed())
            break;
    }
    ::_exit(0);
}

/** Accept one relayed StatesTo body (star mode). */
void
processStatesToBody(WorkerRt &rt,
                    const std::vector<std::uint8_t> &body)
{
    SnapshotReader r(body);
    const std::uint32_t dest = r.getU32();
    // A misrouted batch is a coordinator bug; dropping it here can
    // never fake a result — the global sent/recv sums stop balancing
    // and the attempt dies under the no-progress watchdog.
    if (dest != rt.cfg->index)
        return;
    const std::uint32_t count = r.getU32();
    for (std::uint32_t s = 0; s < count; ++s) {
        const std::uint8_t *bytes = r.viewBytes(rt.numVars);
        if (bytes == nullptr)
            break;
        ++rt.recvTotal;
        acceptOwn(rt, bytes, stateHash(bytes, rt.numVars));
    }
}

/** Accept the StatesTo bodies parked during a snapshot encode or a
 *  resume load, now that the store is whole and may grow again. */
void
drainDeferred(WorkerRt &rt)
{
    while (!rt.deferred.empty()) {
        std::vector<std::vector<std::uint8_t>> parked;
        parked.swap(rt.deferred);
        for (const auto &b : parked)
            processStatesToBody(rt, b);
    }
}

/** Handle every buffered control frame; exits the process on Stop,
 *  Finish or a dead coordinator. */
void
serviceControl(WorkerRt &rt)
{
    MsgType type;
    std::vector<std::uint8_t> body;
    while (rt.ctl.next(type, body)) {
        rt.lastCtlActivity = monoNow();
        SnapshotReader r(body);
        switch (type) {
          case MsgType::StatesTo:
              // Mid-load the park is a matter of correctness, not
              // just pointer stability: the partition scan interns
              // the visited image in file order, so a relayed state
              // that is already in the image (expanded before the
              // cut, counted in the manifest base) but not yet
              // scanned would intern as FRESH — invariant-checked,
              // queued, and expanded a second time, inflating
              // transitions/invChecks past the sequential reference.
              if (rt.snapshotting || rt.loading)
                  rt.deferred.push_back(body);
              else
                  processStatesToBody(rt, body);
              break;
          case MsgType::Ping: {
              const std::uint32_t seq = r.getU32();
              rt.paused = r.getU8() != 0;
              if (rt.paused)
                  flushAllBatches(rt);
              sendPong(rt, seq);
              break;
          }
          case MsgType::CkptWrite:
              // Mid-load the store is partial (a snapshot of it
              // would commit a truncated checkpoint); mid-snapshot a
              // second encode would recurse. A correct coordinator
              // sends neither (loading rides the pongs, the barrier
              // is once-per-epoch), so dropping is the safe answer:
              // the stalled barrier fails the attempt and retries
              // rather than committing garbage.
              if (rt.loading || rt.snapshotting) {
                  neo_warn("worker ", rt.cfg->index,
                           ": CkptWrite during ",
                           rt.loading ? "resume load" : "snapshot",
                           " dropped");
                  break;
              }
              // Reset the quota before the encode: it answers pings
              // while it runs, and those pongs must not report a
              // hold this barrier is already clearing.
              rt.freshAtBarrier = rt.freshInterns;
              writePartition(rt, r.getU64());
              drainDeferred(rt);
              break;
          case MsgType::Finish:
              // Same guard: obeying a Finish before the resume load
              // completes would report a partial store as the final
              // verdict. Drop it — a retry beats a false Verified.
              if (rt.loading || rt.snapshotting) {
                  neo_warn("worker ", rt.cfg->index,
                           ": Finish during ",
                           rt.loading ? "resume load" : "snapshot",
                           " dropped");
                  break;
              }
              sendFinalAndExit(rt); // does not return
              break;
          case MsgType::Stop:
              ::_exit(0);
          default:
              break; // stray frame: ignore
        }
    }
    if (rt.ctl.failed())
        // Coordinator gone: a worker never outlives it. Over TCP the
        // same EOF can also be a severed link; the distinct exit
        // code tells the two stories apart in logs.
        ::_exit(rt.star ? kWorkerExitLinkLost : 0);
}

void
pollControlOnce(WorkerRt &rt, int timeoutMs)
{
    pollfd p{rt.ctl.fd(),
             static_cast<short>(POLLIN |
                                (rt.ctl.wantsWrite() ? POLLOUT : 0)),
             0};
    const int rc = ::poll(&p, 1, timeoutMs);
    if (rc < 0 && errno != EINTR)
        ::_exit(kWorkerExitSetupFailed);
    if (rc <= 0)
        return;
    if (p.revents & (POLLIN | POLLHUP | POLLERR))
        rt.ctl.readSome();
    if (p.revents & POLLOUT)
        rt.ctl.flush();
    serviceControl(rt);
}

void
loadPartitions(WorkerRt &rt)
{
    const WorkerConfig &cfg = *rt.cfg;
    const unsigned W = cfg.count;
    std::uint64_t sinceService = 0;
    auto maybeService = [&]() {
        if (++sinceService % kLoadServiceStride == 0)
            pollControlOnce(rt, 0);
    };
    for (std::uint32_t part = 0; part < cfg.resumeParts; ++part) {
        const std::string path = partitionSnapshotPath(
            cfg.partDir, cfg.resumeEpoch, part, cfg.resumeParts);
        std::vector<std::uint8_t> payload;
        std::string err;
        if (!readSnapshotFile(path, SnapshotKind::Explore,
                              rt.fingerprint, payload, err)) {
            neo_warn("worker ", cfg.index, ": resume: ", err);
            ::_exit(kWorkerExitSetupFailed);
        }
        ExploreSnapshotMeta meta;
        const bool ok = decodeExploreSnapshotStreamed(
            payload, rt.numVars, rt.ts->rules().size(), meta,
            [](std::uint64_t) {},
            [&](std::uint64_t, const std::uint8_t *state) {
                // Reshard: keep only the states this worker owns
                // under the CURRENT W. Loaded states were already
                // counted (invariant checks included) in the
                // manifest base, so intern without re-counting.
                const std::uint64_t h = stateHash(state, rt.numVars);
                if (h % W == cfg.index)
                    rt.store->internHashed(state, h);
                maybeService();
            },
            [](std::uint64_t, const ExploreSnapshot::Link &) {},
            [&](std::uint64_t, std::uint32_t,
                const std::uint8_t *state) {
                // Frontier entries were interned by the pass above
                // (frontier states are part of the visited image);
                // the owner re-queues them for expansion.
                const std::uint64_t h = stateHash(state, rt.numVars);
                if (h % W == cfg.index) {
                    const auto [id, fresh] =
                        rt.store->internHashed(state, h);
                    (void)fresh;
                    rt.queue.push_back(id);
                }
                maybeService();
            },
            err);
        if (!ok) {
            neo_warn("worker ", cfg.index, ": resume: ", err);
            ::_exit(kWorkerExitSetupFailed);
        }
    }
}

void
expandOne(WorkerRt &rt, VState &cur, VState &succ)
{
    const std::uint32_t id = rt.queue.front();
    rt.queue.pop_front();
    std::memcpy(cur.data(), rt.store->at(id), rt.numVars);
    const CompiledRules &rules = *rt.rules;
    const auto &canon = rt.ts->canonicalizer();
    const unsigned W = rt.cfg->count;
    for (std::size_t ri = 0; ri < rules.size(); ++ri) {
        if (!rules.guard(ri, cur))
            continue;
        ++rt.transitions;
        succ = cur;
        rules.effect(ri, succ);
        if (canon)
            canon(succ);
        const std::uint64_t h = stateHash(succ.data(), rt.numVars);
        const unsigned owner = static_cast<unsigned>(h % W);
        if (owner == rt.cfg->index) {
            acceptOwn(rt, succ.data(), h);
            if (rt.violated)
                return;
        } else {
            auto &b = rt.batch[owner];
            b.insert(b.end(), succ.data(),
                     succ.data() + rt.numVars);
            ++rt.sentTotal;
            if (++rt.batchCount[owner] >= kStateBatch)
                flushBatch(rt, owner);
        }
    }
}

} // namespace

void
runWorkerProcess(const WorkerConfig &cfg, const WorkerEndpoints &eps)
{
    ignoreSigpipe();
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);

    ModelShape shape;
    std::string err;
    TransitionSystem ts = buildJobModel(cfg.spec, shape, err);
    if (!err.empty()) {
        neo_warn("worker ", cfg.index, ": ", err);
        ::_exit(kWorkerExitSetupFailed);
    }
    const CompiledRules rules(ts);

    WorkerRt rt;
    rt.cfg = &cfg;
    rt.ts = &ts;
    rt.rules = &rules;
    rt.numVars = ts.numVars();
    rt.fingerprint = modelFingerprint(ts);
    rt.scratch.assign(rt.numVars, 0);

    ExploreLimits presize;
    presize.maxStates = cfg.spec.maxStates;
    StateStore store(rt.numVars,
                     explorePresizeHint(presize) /
                         std::max(1u, cfg.count));
    rt.store = &store;

    rt.star = !cfg.coordAddr.empty();
    rt.peers.resize(cfg.count);
    rt.batch.resize(cfg.count);
    rt.batchCount.assign(cfg.count, 0);
    if (rt.star) {
        // Dial the coordinator, authenticate this attempt slot, and
        // wait at the start barrier. Every step is deadline-bounded:
        // a half-open coordinator or a proxy that swallows the
        // handshake must fail this process in bounded time, not hang
        // it forever.
        const int fd = connectTcp(cfg.coordAddr, err, 10.0);
        if (fd < 0) {
            neo_warn("worker ", cfg.index, ": dial ", cfg.coordAddr,
                     ": ", err);
            ::_exit(kWorkerExitSetupFailed);
        }
        SnapshotWriter hw;
        hw.putU64(cfg.jobId);
        hw.putU64(cfg.nonce);
        hw.putU32(cfg.index);
        if (!sendFrameDeadline(fd, MsgType::Hello, hw.take(),
                               10.0)) {
            ::close(fd);
            ::_exit(kWorkerExitLinkLost);
        }
        MsgType t;
        std::vector<std::uint8_t> b;
        if (!recvFrameDeadline(fd, t, b, 30.0) ||
            t != MsgType::Start) {
            // Refused (stale nonce, dead attempt) or barrier never
            // released: remove ourselves, the coordinator decides
            // the attempt's fate independently.
            ::close(fd);
            ::_exit(kWorkerExitLinkLost);
        }
        setNonBlocking(fd);
        rt.ctl = Channel(fd);
    } else {
        rt.ctl = Channel(eps.control);
        setNonBlocking(eps.control);
        for (unsigned p = 0; p < cfg.count; ++p) {
            if (eps.peers[p] >= 0) {
                setNonBlocking(eps.peers[p]);
                rt.peers[p] = Channel(eps.peers[p]);
            }
        }
    }
    rt.lastCtlActivity = monoNow();

    if (cfg.resumeEpoch != 0) {
        // Pongs answered mid-load carry loading=1 so a peer-owned
        // scan (frozen store, empty queue) cannot satisfy the
        // coordinator's fixpoint or quiesce stability tests while
        // this store is still partial.
        rt.loading = true;
        loadPartitions(rt);
        rt.loading = false;
        // Batches relayed by faster-loading peers were parked: with
        // the visited image complete they dedup correctly now.
        drainDeferred(rt);
    } else {
        VState init = ts.initialState();
        if (ts.canonicalizer())
            ts.canonicalizer()(init);
        const std::uint64_t h = stateHash(init.data(), rt.numVars);
        if (h % cfg.count == cfg.index)
            acceptOwn(rt, init.data(), h);
    }

    VState cur(rt.numVars), succ(rt.numVars);
    std::vector<pollfd> pfds;
    std::vector<int> pfdPeer; // parallel: -1 = control
    MsgType type;
    std::vector<std::uint8_t> body;

    for (;;) {
        // Star backpressure: a full coordinator link pauses
        // expansion (the batches it would produce have nowhere
        // bounded to go) but keeps the worker responsive to control.
        const bool ctlFull =
            rt.star && rt.ctl.outPending() >= kCtlHighWater;
        const bool canExpand = !rt.paused && !rt.violated &&
                               !parked(rt) && !heldForBarrier(rt) &&
                               !rt.queue.empty() && !ctlFull;
        if (!canExpand)
            flushAllBatches(rt); // going idle: nothing may linger

        pfds.clear();
        pfdPeer.clear();
        pfds.push_back(
            {rt.ctl.fd(),
             static_cast<short>(
                 POLLIN | (rt.ctl.wantsWrite() ? POLLOUT : 0)),
             0});
        pfdPeer.push_back(-1);
        for (unsigned p = 0; p < cfg.count; ++p) {
            if (!rt.peers[p].open())
                continue;
            pfds.push_back(
                {rt.peers[p].fd(),
                 static_cast<short>(
                     POLLIN |
                     (rt.peers[p].wantsWrite() ? POLLOUT : 0)),
                 0});
            pfdPeer.push_back(static_cast<int>(p));
        }

        // Star links need a finite timeout: the read deadline below
        // must fire even when the severed link delivers no events.
        const int rc = ::poll(pfds.data(), pfds.size(),
                              canExpand ? 0 : (rt.star ? 500 : -1));
        if (rc < 0 && errno != EINTR)
            ::_exit(kWorkerExitSetupFailed);

        for (std::size_t k = 0; rc > 0 && k < pfds.size(); ++k) {
            if (pfds[k].revents == 0)
                continue;
            Channel &ch = pfdPeer[k] < 0
                              ? rt.ctl
                              : rt.peers[static_cast<unsigned>(
                                    pfdPeer[k])];
            if (pfds[k].revents & (POLLIN | POLLHUP | POLLERR))
                ch.readSome();
            if (pfds[k].revents & POLLOUT)
                ch.flush();
            if (pfdPeer[k] >= 0) {
                while (ch.next(type, body)) {
                    if (type != MsgType::States)
                        continue;
                    SnapshotReader r(body);
                    const std::uint32_t count = r.getU32();
                    for (std::uint32_t s = 0; s < count; ++s) {
                        const std::uint8_t *bytes =
                            r.viewBytes(rt.numVars);
                        if (bytes == nullptr)
                            break;
                        ++rt.recvTotal;
                        acceptOwn(rt, bytes,
                                  stateHash(bytes, rt.numVars));
                    }
                }
                if (ch.failed()) {
                    // A peer vanished. Do NOT die: at the fixpoint
                    // the Finish broadcast races peer exits, and the
                    // first finisher's EOF must not look fatal to the
                    // rest. The coordinator referees real deaths via
                    // waitpid; if this peer died mid-run, any state
                    // routed to it is dropped here, global sent !=
                    // recv can never re-balance, and no false
                    // fixpoint is possible before the coordinator
                    // kills the attempt.
                    ch.close();
                }
            }
        }

        serviceControl(rt); // may _exit (Stop/Finish/dead coordinator)

        if (rt.star) {
            // Read/write deadlines: a coordinator (or the path to
            // it) that goes silent, or stops draining our batches,
            // means this worker is exploring into the void — exit
            // and let the coordinator-side supervision fail the
            // attempt cleanly for retry.
            const double now = monoNow();
            if (now - rt.lastCtlActivity >
                std::max(kIdleFloorSeconds,
                         kIdleHeartbeats * cfg.heartbeatSeconds))
                ::_exit(kWorkerExitLinkLost);
            if (rt.ctl.writeStalled(
                    now, std::max(kStallFloorSeconds,
                                  kStallHeartbeats *
                                      cfg.heartbeatSeconds)))
                ::_exit(kWorkerExitLinkLost);
        }

        if (!rt.paused && !rt.violated &&
            !(rt.star && rt.ctl.outPending() >= kCtlHighWater)) {
            for (unsigned b = 0;
                 b < kExpandBatch && !rt.queue.empty() &&
                 !parked(rt) && !heldForBarrier(rt);
                 ++b)
                expandOne(rt, cur, succ);
        }
    }
}

namespace
{

/** Sleep in interrupt-checkable slices. */
void
sleepRetry(double seconds)
{
    const double until = monoNow() + seconds;
    while (!interruptRequested() && monoNow() < until)
        ::poll(nullptr, 0, 100);
}

} // namespace

int
runJoinAgent(const JoinOptions &opts)
{
    ignoreSigpipe();
    installInterruptHandlers();
    bool announced = false;
    while (!interruptRequested()) {
        std::string err;
        const int fd = connectTcp(opts.coordAddr, err, 5.0);
        if (fd < 0) {
            if (!announced) {
                neo_warn("join ", opts.coordAddr, ": ", err,
                         " (retrying every ", opts.retrySeconds,
                         "s)");
                announced = true;
            }
            sleepRetry(opts.retrySeconds);
            continue;
        }
        announced = false;
        SnapshotWriter w;
        w.putU8(opts.stateDir.empty() ? 0 : 1);
        if (!sendFrameDeadline(fd, MsgType::JoinPool, w.take(),
                               5.0)) {
            ::close(fd);
            sleepRetry(opts.retrySeconds);
            continue;
        }
        neo_inform("joined pool at ", opts.coordAddr,
                   ", waiting for an assignment");

        setNonBlocking(fd);
        Channel ch(fd);
        MsgType type = MsgType::Stop;
        std::vector<std::uint8_t> body;
        bool assigned = false;
        // Park until Assign, EOF (coordinator restarted: rejoin), or
        // an interrupt. The 1s tick bounds interrupt latency.
        while (!interruptRequested() && !ch.failed()) {
            if (ch.next(type, body)) {
                assigned = type == MsgType::Assign;
                break;
            }
            pollfd p{ch.fd(), POLLIN, 0};
            const int rc = ::poll(&p, 1, 1000);
            if (rc < 0 && errno != EINTR)
                break;
            if (rc > 0 &&
                (p.revents & (POLLIN | POLLHUP | POLLERR)))
                ch.readSome();
        }
        if (!assigned) {
            ch.close();
            if (!interruptRequested())
                sleepRetry(opts.retrySeconds);
            continue;
        }

        SnapshotReader r(body);
        WorkerConfig cfg;
        cfg.jobId = r.getU64();
        cfg.nonce = r.getU64();
        cfg.index = r.getU32();
        cfg.count = r.getU32();
        cfg.heartbeatSeconds = r.getF64();
        cfg.resumeEpoch = r.getU64();
        cfg.resumeParts = r.getU32();
        const std::string coordDir = getString(r);
        const bool decoded = r.ok() && JobSpec::decode(r, cfg.spec);
        cfg.ckptStates = r.getU64();
        if (!decoded || !r.ok()) {
            neo_warn("malformed Assign frame; rejoining");
            ch.close();
            continue;
        }
        // The worker dials its own authenticated connection; the
        // pool link's job is done.
        ch.close();
        cfg.coordAddr = opts.coordAddr;
        cfg.partDir =
            opts.stateDir.empty() ? coordDir : opts.stateDir;
        neo_inform("assigned job ", cfg.jobId, " slot ", cfg.index,
                   "/", cfg.count, ": ", cfg.spec.summary());

        const pid_t pid = ::fork();
        if (pid < 0) {
            neo_warn("fork: ", std::strerror(errno));
            sleepRetry(opts.retrySeconds);
            continue;
        }
        if (pid == 0)
            runWorkerProcess(cfg, WorkerEndpoints()); // never returns

        int st = 0;
        for (;;) {
            const pid_t rc = ::waitpid(pid, &st, 0);
            if (rc == pid)
                break;
            if (rc < 0 && errno == EINTR) {
                if (interruptRequested()) {
                    ::kill(pid, SIGKILL);
                    ::waitpid(pid, &st, 0);
                    return kExitClean;
                }
                continue;
            }
            break;
        }
        if (WIFSIGNALED(st))
            neo_inform("worker for job ", cfg.jobId,
                       " killed by signal ", WTERMSIG(st),
                       "; rejoining the pool");
        else
            neo_inform("worker for job ", cfg.jobId,
                       " exited with status ", WEXITSTATUS(st),
                       "; rejoining the pool");
    }
    return kExitClean;
}

} // namespace neo
