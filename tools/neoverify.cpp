/**
 * @file
 * neoverify — command-line front end for the push-button verifier.
 *
 * Examples:
 *   neoverify --features neomesi --system open --method modified --n 3
 *   neoverify --features neomesi --parametric
 *   neoverify --features nsmesi --system open --method modified --n 2
 *     (demonstrates the composition failure of non-sibling forwarding)
 *   neoverify --features german --n 4
 *   neoverify --walk --walks 64 --depth 256 --seed 1 --mutant
 *     dir_nonblocking_read --shrink --trace
 *     (random-walk falsification of a corpus mutant, with the raw
 *      counterexample delta-debugged to a locally minimal trace)
 */

#include <cstdio>
#include <string>

#include <poll.h>
#include <unistd.h>

#include "sim/cli_parse.hpp"
#include "sim/exit_codes.hpp"
#include "sim/io_retry.hpp"
#include "verif/checkpoint.hpp"
#include "verif/service/chaos_proxy.hpp"
#include "verif/service/coordinator.hpp"
#include "verif/service/job_queue.hpp"
#include "verif/service/wire.hpp"
#include "verif/service/worker.hpp"
#include "verif/explorer.hpp"
#include "verif/models/flat_closed.hpp"
#include "verif/models/flat_open.hpp"
#include "verif/models/german.hpp"
#include "verif/models/mutants.hpp"
#include "verif/parametric.hpp"
#include "verif/random_walk.hpp"
#include "verif/shrink.hpp"

using namespace neo;
using namespace neo::verif;

namespace
{

void
usage()
{
    std::printf(
        "usage: neoverify [options]\n"
        "  --features NAME   msi | msi-incl | neomesi | moesi | nsmesi\n"
        "                    | german            (default neomesi)\n"
        "  --system KIND     closed | open       (default open)\n"
        "  --method NAME     none | original | modified\n"
        "                    (default modified; open systems only)\n"
        "  --n N             leaves in the flat instance (default 3)\n"
        "  --parametric      sweep N with cutoff detection instead\n"
        "  --max-states N    state bound          (default 8000000)\n"
        "  --max-seconds S   time bound           (default 600)\n"
        "  --max-memory B    live-memory bound in bytes (default off)\n"
        "  --threads N       exploration workers; >1 uses the\n"
        "                    parallel explorer    (default 1)\n"
        "  --trace           print the counterexample, if any\n"
        "falsification (random walks instead of exhaustive search):\n"
        "  --walk            run seeded random walks, not reachability\n"
        "  --walks K         independent walks    (default 64)\n"
        "  --depth D         rule firings per walk (default 256)\n"
        "  --seed S          master seed          (default 1)\n"
        "  --shrink          delta-debug the counterexample trace\n"
        "  --mutant NAME     verify a corpus mutant instead of a\n"
        "                    bundled model (see --list-mutants)\n"
        "  --list-mutants    print the mutation corpus and exit\n"
        "crash safety (periodic snapshots + graceful shutdown):\n"
        "  --checkpoint-dir DIR   write CRC-guarded snapshots into DIR;\n"
        "                    SIGINT/SIGTERM drains to a final snapshot\n"
        "                    and exits 5 (interrupted, resumable)\n"
        "  --checkpoint-every S   snapshot interval; accepts s/m/h\n"
        "                    suffixes (default 30s when DIR is set)\n"
        "  --resume          restore the snapshot in DIR and continue\n"
        "                    to the identical fixpoint\n"
        "verification service (crash-only coordinator + workers):\n"
        "  --serve SOCK      run the job coordinator on unix socket\n"
        "                    SOCK; jobs run as sharded worker\n"
        "                    processes and survive SIGKILL of any of\n"
        "                    them (or of the coordinator itself)\n"
        "  --state-dir DIR   journal + partition snapshots\n"
        "                    (default SOCK.state)\n"
        "  --workers N       worker processes per job (default 4)\n"
        "  --heartbeat DUR   supervision ping interval (default 1s)\n"
        "  --job-timeout DUR per-attempt wall budget (default off)\n"
        "  --retries N       attempts before quarantine (default 3)\n"
        "  --backoff DUR     first retry delay, doubling (default .5s)\n"
        "  --checkpoint-every DUR   barrier interval while serving\n"
        "                    (default 5s; 0 disables)\n"
        "  --checkpoint-states K    also barrier whenever a worker has\n"
        "                    interned K fresh states since the last\n"
        "                    one: it holds its queue until then\n"
        "                    (default 0 = off)\n"
        "  --max-jobs N      attempts run concurrently (default 1);\n"
        "                    each gets its own isolated worker set\n"
        "  --progress-every DUR   streaming progress interval for\n"
        "                    --wait clients (default 1s; 0 disables)\n"
        "  --journal-compact-bytes B   rewrite the journal as one\n"
        "                    snapshot record once it exceeds B\n"
        "                    (default 8M; 0 disables)\n"
        "multi-box worker pools (TCP beside the unix socket):\n"
        "  --listen H:P      also accept TCP; attempts then run in\n"
        "                    star topology (workers dial back and the\n"
        "                    coordinator relays state batches); the\n"
        "                    resolved address lands in\n"
        "                    STATE-DIR/tcp-addr (port 0 = pick one)\n"
        "  --advertise H:P   address workers are told to dial\n"
        "                    (default: the resolved listen address;\n"
        "                    tests point it at a chaos proxy)\n"
        "  --join H:P        run a worker-pool agent: offer this box\n"
        "                    to the coordinator at H:P, fork one\n"
        "                    worker per assignment, reconnect after\n"
        "                    each; --state-dir advertises shared\n"
        "                    partition storage for resume\n"
        "network chaos (deterministic fault-injecting TCP proxy):\n"
        "  --chaos-proxy H:P listen here, forward to --upstream, and\n"
        "                    mangle bytes on the --chaos schedule;\n"
        "                    prints the bound address, runs until\n"
        "                    interrupted, echoes each fault to stderr\n"
        "  --upstream H:P    where the proxy forwards\n"
        "  --chaos SPEC      seed=..,every=..,drop/dup/trunc/sever/\n"
        "                    delay=weights,delayms=..,span=..,skip=..\n"
        "client verbs (need --sock SOCK; composable in this order):\n"
        "  --sock SOCK       coordinator socket: a unix path, or\n"
        "                    host:port to reach it over TCP\n"
        "  --submit          submit the job the model flags describe\n"
        "  --cancel ID       cancel a pending or running job\n"
        "  --drain           finish queued jobs, then exit the server\n"
        "                    (with --serve: exit once queue is empty)\n"
        "  --status          print the job table (running jobs list\n"
        "                    worker pids)\n"
        "  --wait ID         block for job ID's verdict and exit with\n"
        "                    its code (0 = the job --submit just\n"
        "                    sent); streams progress lines meanwhile\n"
        "  --job-workers N   worker count for --submit (overrides the\n"
        "                    server's --workers for this job)\n"
        "  --net-timeout DUR client I/O deadline: connect, each\n"
        "                    request, each reply; a coordinator\n"
        "                    silent past DUR exits 7 (default: wait\n"
        "                    forever; keep DUR above the server's\n"
        "                    --progress-every when using --wait)\n"
        "  --journal PATH    dump a job journal, one record per line\n"
        "  --inject-crash-after N   fault injection: each worker dies\n"
        "                    after N fresh states (tests quarantine)\n"
        "  --inject-park-after K    fault injection: on the job's first\n"
        "                    attempt each worker stops expanding after\n"
        "                    K fresh states but keeps answering pings\n"
        "                    and checkpointing, so the attempt holds\n"
        "                    mid-flight (tests time kills by it);\n"
        "                    retries run unheld\n"
        "exit codes: 0 verified/no violation, 1 violation or bound\n"
        "exceeded, 2 usage error, 5 interrupted (resumable),\n"
        "6 job quarantined as poison, 7 service unavailable\n");
}

void
listMutants()
{
    std::printf("%-34s %-22s %s\n", "mutant", "violates",
                "budget (walks x depth @ seed)");
    for (const auto &m : mutantRegistry()) {
        std::printf("%-34s %-22s %llu x %llu @ %llu\n  %s\n",
                    m.name.c_str(), m.violates.c_str(),
                    static_cast<unsigned long long>(m.budgetWalks),
                    static_cast<unsigned long long>(m.budgetDepth),
                    static_cast<unsigned long long>(m.budgetSeed),
                    m.description.c_str());
    }
}

void
printTrace(const std::vector<std::string> &steps,
           const std::string &bad)
{
    std::printf("  counterexample:\n");
    for (const auto &step : steps)
        std::printf("    %s\n", step.c_str());
    std::printf("  bad state: %s\n", bad.c_str());
}

/** Client verbs against a running coordinator. */
struct ClientVerbs
{
    bool submit = false;
    bool status = false;
    bool drain = false;
    bool cancelGiven = false;
    std::uint64_t cancelId = 0;
    bool waitGiven = false;
    std::uint64_t waitId = 0;

    bool
    any() const
    {
        return submit || status || drain || cancelGiven || waitGiven;
    }
};

const char *
progressPhaseName(unsigned phase)
{
    switch (phase) {
    case 0:
        return "run";
    case 1:
        return "quiesce";
    case 2:
        return "checkpoint";
    case 3:
        return "finish";
    case kProgressPhaseBackoff:
        return "backoff";
    default:
        return "?";
    }
}

int
runClient(const std::string &sock, const ClientVerbs &verbs,
          const JobSpec &spec, double netTimeout)
{
    std::string err;
    const int fd =
        looksLikeTcpAddress(sock)
            ? connectTcp(sock, err,
                         netTimeout > 0.0 ? netTimeout : 10.0)
            : connectUnix(sock, err);
    if (fd < 0) {
        std::fprintf(stderr, "neoverify: %s\n", err.c_str());
        return kExitServiceUnavailable;
    }
    MsgType type;
    std::vector<std::uint8_t> body;
    auto roundTrip = [&](MsgType req,
                         const std::vector<std::uint8_t> &b) {
        if (sendFrameDeadline(fd, req, b, netTimeout) &&
            recvFrameDeadline(fd, type, body, netTimeout))
            return true;
        std::fprintf(stderr, "neoverify: lost the coordinator "
                             "mid-request%s\n",
                     netTimeout > 0.0 ? " (or the deadline expired)"
                                      : "");
        return false;
    };
    auto bail = [&](int code) {
        ::close(fd);
        return code;
    };

    std::uint64_t submittedId = 0;
    if (verbs.submit) {
        SnapshotWriter w;
        spec.encode(w);
        if (!roundTrip(MsgType::ReqSubmit, w.take()))
            return bail(kExitServiceUnavailable);
        SnapshotReader r(body);
        if (type == MsgType::RspErr) {
            std::fprintf(stderr, "neoverify: %s\n",
                         getString(r).c_str());
            return bail(kExitUsage);
        }
        submittedId = r.getU64();
        std::printf("submitted job %llu\n",
                    static_cast<unsigned long long>(submittedId));
    }
    if (verbs.cancelGiven) {
        SnapshotWriter w;
        w.putU64(verbs.cancelId);
        if (!roundTrip(MsgType::ReqCancel, w.take()))
            return bail(kExitServiceUnavailable);
        SnapshotReader r(body);
        if (type == MsgType::RspErr) {
            std::fprintf(stderr, "neoverify: %s\n",
                         getString(r).c_str());
            return bail(kExitUsage);
        }
        std::printf("cancelled job %llu\n",
                    static_cast<unsigned long long>(verbs.cancelId));
    }
    if (verbs.drain) {
        if (!roundTrip(MsgType::ReqDrain, {}))
            return bail(kExitServiceUnavailable);
        std::printf("coordinator draining\n");
    }
    if (verbs.status) {
        if (!roundTrip(MsgType::ReqStatus, {}))
            return bail(kExitServiceUnavailable);
        SnapshotReader r(body);
        std::printf("%s", getString(r).c_str());
    }
    if (verbs.waitGiven) {
        const std::uint64_t id =
            verbs.waitId == 0 ? submittedId : verbs.waitId;
        if (id == 0) {
            std::fprintf(stderr, "neoverify: --wait 0 means the job "
                                 "--submit just sent, but nothing "
                                 "was submitted\n");
            return bail(kExitUsage);
        }
        SnapshotWriter w;
        w.putU64(id);
        if (!sendFrameDeadline(fd, MsgType::ReqWait, w.take(),
                               netTimeout)) {
            std::fprintf(stderr,
                         "neoverify: lost the coordinator "
                         "mid-request\n");
            return bail(kExitServiceUnavailable);
        }
        // The verdict arrives after zero or more streamed progress
        // frames; print those as they land (without the `states=` /
        // `transitions=` spelling the final verdict line owns, so
        // scrapers keying on it still find the exact counts first).
        for (;;) {
            if (!recvFrameDeadline(fd, type, body, netTimeout)) {
                std::fprintf(
                    stderr,
                    "neoverify: lost the coordinator while "
                    "waiting%s\n",
                    netTimeout > 0.0 ? " (or the deadline expired)"
                                     : "");
                return bail(kExitServiceUnavailable);
            }
            SnapshotReader r(body);
            if (type == MsgType::RspErr) {
                std::fprintf(stderr, "neoverify: %s\n",
                             getString(r).c_str());
                return bail(kExitUsage);
            }
            if (type == MsgType::RspProgress) {
                const std::uint64_t jid = r.getU64();
                const unsigned phase = r.getU8();
                const std::uint64_t st = r.getU64();
                const std::uint64_t tr = r.getU64();
                const double secs = r.getF64();
                std::printf("progress job=%llu phase=%s "
                            "states~%llu transitions~%llu "
                            "elapsed=%.1fs\n",
                            static_cast<unsigned long long>(jid),
                            progressPhaseName(phase),
                            static_cast<unsigned long long>(st),
                            static_cast<unsigned long long>(tr),
                            secs);
                std::fflush(stdout);
                continue;
            }
            const int code = r.getU8();
            std::printf("%s\n", getString(r).c_str());
            return bail(code);
        }
    }
    return bail(kExitClean);
}

/** Standalone chaos proxy (neoverify --chaos-proxy): runs until
 *  interrupted, echoing each injected fault to stderr. */
int
runChaosProxyCli(const std::string &listen,
                 const std::string &upstream,
                 const std::string &specText)
{
    ChaosSpec spec;
    std::string err;
    if (!specText.empty() && !ChaosSpec::parse(specText, spec, err))
        neo_fatal("--chaos: ", err);
    ChaosProxy proxy;
    proxy.setEcho(stderr);
    if (!proxy.start(listen, upstream, spec, err))
        neo_fatal("--chaos-proxy: ", err);
    // The bound address on stdout is the contract scripts rely on
    // (port 0 in --chaos-proxy means the kernel picked the port).
    std::printf("%s\n", proxy.boundAddress().c_str());
    std::fflush(stdout);
    std::fprintf(stderr, "chaos-proxy %s -> %s (%s)\n",
                 proxy.boundAddress().c_str(), upstream.c_str(),
                 spec.summary().c_str());
    installInterruptHandlers();
    while (!interruptRequested())
        ::poll(nullptr, 0, 200);
    proxy.stop();
    std::fprintf(stderr,
                 "chaos-proxy: %llu connection%s, %llu fault%s\n",
                 static_cast<unsigned long long>(
                     proxy.connectionsAccepted()),
                 proxy.connectionsAccepted() == 1 ? "" : "s",
                 static_cast<unsigned long long>(
                     proxy.faultsInjected()),
                 proxy.faultsInjected() == 1 ? "" : "s");
    return kExitClean;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string features = "neomesi";
    std::string system = "open";
    std::string method = "modified";
    std::string mutant;
    std::size_t n = 3;
    bool parametric = false;
    bool want_trace = false;
    bool walk = false;
    bool shrink = false;
    WalkOptions wopt;
    ExploreLimits lim;
    lim.maxStates = 8'000'000;
    lim.maxSeconds = 600.0;
    bool seed_given = false, walks_given = false, depth_given = false;
    CheckpointConfig ckpt;
    bool every_given = false;
    ServeOptions serve;
    bool serving = false;
    std::string clientSock;
    std::string journalPath;
    ClientVerbs verbs;
    std::uint64_t crashAfter = 0;
    std::uint64_t parkAfter = 0;
    std::string joinAddr;
    std::string chaosListen, chaosUpstream, chaosSpecText;
    double netTimeout = 0.0;
    std::uint32_t jobWorkers = 0;

    ignoreSigpipe();

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                neo_fatal(arg, " needs a value");
            return argv[++i];
        };
        if (arg == "--features") {
            features = next();
        } else if (arg == "--system") {
            system = next();
        } else if (arg == "--method") {
            method = next();
        } else if (arg == "--n") {
            n = static_cast<std::size_t>(parseU64OrDie(arg, next()));
        } else if (arg == "--parametric") {
            parametric = true;
        } else if (arg == "--max-states") {
            lim.maxStates = parseU64OrDie(arg, next());
        } else if (arg == "--max-seconds") {
            lim.maxSeconds = parseSecondsOrDie(arg, next());
        } else if (arg == "--max-memory") {
            lim.maxMemoryBytes = parseU64OrDie(arg, next());
        } else if (arg == "--threads") {
            lim.threads =
                static_cast<unsigned>(parseU64OrDie(arg, next()));
            if (lim.threads == 0)
                neo_fatal("--threads needs a value >= 1");
        } else if (arg == "--walk") {
            walk = true;
        } else if (arg == "--walks") {
            wopt.walks = parseU64OrDie(arg, next());
            walks_given = true;
            if (wopt.walks == 0)
                neo_fatal("--walks needs a value >= 1");
        } else if (arg == "--depth") {
            wopt.depth = parseU64OrDie(arg, next());
            depth_given = true;
            if (wopt.depth == 0)
                neo_fatal("--depth needs a value >= 1");
        } else if (arg == "--seed") {
            wopt.seed = parseU64OrDie(arg, next());
            seed_given = true;
        } else if (arg == "--checkpoint-dir") {
            ckpt.dir = next();
        } else if (arg == "--checkpoint-every") {
            ckpt.everySeconds = parseSecondsOrDie(arg, next());
            every_given = true;
        } else if (arg == "--resume") {
            ckpt.resume = true;
        } else if (arg == "--serve") {
            serve.sockPath = next();
            serving = true;
        } else if (arg == "--state-dir") {
            serve.stateDir = next();
        } else if (arg == "--workers") {
            serve.workers =
                static_cast<unsigned>(parseU64OrDie(arg, next()));
            if (serve.workers == 0)
                neo_fatal("--workers needs a value >= 1");
        } else if (arg == "--heartbeat") {
            serve.heartbeatSeconds = parseSecondsOrDie(arg, next());
            if (serve.heartbeatSeconds <= 0.0)
                neo_fatal("--heartbeat needs a positive duration");
        } else if (arg == "--job-timeout") {
            serve.jobTimeoutSeconds = parseSecondsOrDie(arg, next());
        } else if (arg == "--retries") {
            serve.retryLimit = static_cast<std::uint32_t>(
                parseU64OrDie(arg, next()));
            if (serve.retryLimit == 0)
                neo_fatal("--retries needs a value >= 1");
        } else if (arg == "--backoff") {
            serve.backoffSeconds = parseSecondsOrDie(arg, next());
        } else if (arg == "--max-jobs") {
            serve.maxJobs =
                static_cast<unsigned>(parseU64OrDie(arg, next()));
            if (serve.maxJobs == 0)
                neo_fatal("--max-jobs needs a value >= 1");
        } else if (arg == "--progress-every") {
            serve.progressEverySeconds =
                parseSecondsOrDie(arg, next());
        } else if (arg == "--checkpoint-states") {
            serve.checkpointEveryStates = parseU64OrDie(arg, next());
        } else if (arg == "--journal-compact-bytes") {
            serve.journalCompactBytes = parseU64OrDie(arg, next());
        } else if (arg == "--listen") {
            serve.listenAddr = next();
            if (!looksLikeTcpAddress(serve.listenAddr))
                neo_fatal("--listen needs host:port");
        } else if (arg == "--advertise") {
            serve.advertiseAddr = next();
            if (!looksLikeTcpAddress(serve.advertiseAddr))
                neo_fatal("--advertise needs host:port");
        } else if (arg == "--join") {
            joinAddr = next();
            if (!looksLikeTcpAddress(joinAddr))
                neo_fatal("--join needs host:port");
        } else if (arg == "--chaos-proxy") {
            chaosListen = next();
            if (!looksLikeTcpAddress(chaosListen))
                neo_fatal("--chaos-proxy needs host:port");
        } else if (arg == "--upstream") {
            chaosUpstream = next();
            if (!looksLikeTcpAddress(chaosUpstream))
                neo_fatal("--upstream needs host:port");
        } else if (arg == "--chaos") {
            chaosSpecText = next();
        } else if (arg == "--net-timeout") {
            netTimeout = parseSecondsOrDie(arg, next());
            if (netTimeout <= 0.0)
                neo_fatal("--net-timeout needs a positive duration");
        } else if (arg == "--job-workers") {
            jobWorkers = static_cast<std::uint32_t>(
                parseU64OrDie(arg, next()));
            if (jobWorkers == 0)
                neo_fatal("--job-workers needs a value >= 1");
        } else if (arg == "--sock") {
            clientSock = next();
        } else if (arg == "--submit") {
            verbs.submit = true;
        } else if (arg == "--status") {
            verbs.status = true;
        } else if (arg == "--drain") {
            verbs.drain = true;
        } else if (arg == "--cancel") {
            verbs.cancelId = parseU64OrDie(arg, next());
            verbs.cancelGiven = true;
        } else if (arg == "--wait") {
            verbs.waitId = parseU64OrDie(arg, next());
            verbs.waitGiven = true;
        } else if (arg == "--journal") {
            journalPath = next();
        } else if (arg == "--inject-crash-after") {
            crashAfter = parseU64OrDie(arg, next());
        } else if (arg == "--inject-park-after") {
            parkAfter = parseU64OrDie(arg, next());
        } else if (arg == "--shrink") {
            shrink = true;
        } else if (arg == "--mutant") {
            mutant = next();
        } else if (arg == "--list-mutants") {
            listMutants();
            return 0;
        } else if (arg == "--trace") {
            want_trace = true;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            usage();
            return 2;
        }
    }

    // ---- verification service dispatch ----
    if (!journalPath.empty()) {
        std::string err;
        if (!dumpJournal(journalPath, stdout, err))
            neo_fatal("--journal: ", err);
        return kExitClean;
    }
    if (!chaosListen.empty() || !chaosUpstream.empty()) {
        if (chaosListen.empty() || chaosUpstream.empty())
            neo_fatal("--chaos-proxy and --upstream go together");
        if (serving || !joinAddr.empty() || verbs.any())
            neo_fatal("--chaos-proxy is a standalone mode");
        return runChaosProxyCli(chaosListen, chaosUpstream,
                                chaosSpecText);
    }
    if (!joinAddr.empty()) {
        if (serving || verbs.any() || !clientSock.empty())
            neo_fatal("--join is a standalone agent; it takes only "
                      "--state-dir");
        JoinOptions jopt;
        jopt.coordAddr = joinAddr;
        jopt.stateDir = serve.stateDir;
        return runJoinAgent(jopt);
    }
    if (serving) {
        if (verbs.submit || verbs.status || verbs.cancelGiven ||
            verbs.waitGiven || !clientSock.empty())
            neo_fatal("--serve is a server; client verbs need "
                      "--sock against a running coordinator");
        if (verbs.drain)
            serve.drainAndExit = true;
        if (every_given)
            serve.checkpointEverySeconds = ckpt.everySeconds;
        return runCoordinator(serve);
    }
    if (verbs.any()) {
        if (clientSock.empty())
            neo_fatal("client verbs (--submit/--status/--cancel/"
                      "--drain/--wait) need --sock SOCK");
        JobSpec spec;
        spec.features = features;
        spec.system = system;
        spec.method = method;
        spec.mutant = mutant;
        spec.n = n;
        spec.maxStates = lim.maxStates;
        spec.maxSeconds = lim.maxSeconds;
        spec.crashAfter = crashAfter;
        spec.parkAfter = parkAfter;
        spec.workers = jobWorkers;
        return runClient(clientSock, verbs, spec, netTimeout);
    }
    if (!clientSock.empty())
        neo_fatal("--sock needs a client verb "
                  "(--submit/--status/--cancel/--drain/--wait)");

    // ---- crash-safe checkpointing setup ----
    if (ckpt.dir.empty() && (ckpt.resume || every_given))
        neo_fatal("--resume/--checkpoint-every require "
                  "--checkpoint-dir");
    if (!ckpt.dir.empty()) {
        if (!every_given)
            ckpt.everySeconds = 30.0;
        lim.checkpoint = &ckpt;
        wopt.checkpoint = &ckpt;
        installInterruptHandlers();
    }

    // ---- model selection: a corpus mutant or a bundled model ----
    ModelShape shape;
    std::string model_desc;
    TransitionSystem ts = [&]() -> TransitionSystem {
        if (!mutant.empty()) {
            const Mutant *m = findMutant(mutant);
            if (!m) {
                std::fprintf(stderr,
                             "unknown mutant %s (try --list-mutants)\n",
                             mutant.c_str());
                std::exit(2);
            }
            // The mutant documents its own falsification budget;
            // explicit flags still override it.
            if (!walks_given)
                wopt.walks = m->budgetWalks;
            if (!depth_given)
                wopt.depth = m->budgetDepth;
            if (!seed_given)
                wopt.seed = m->budgetSeed;
            model_desc = "mutant " + m->name;
            n = m->n;
            return m->build(shape);
        }

        VerifFeatures f;
        if (features == "msi")
            f = VerifFeatures::baselineMSI();
        else if (features == "msi-incl")
            f = VerifFeatures::inclusiveMSI();
        else if (features == "neomesi")
            f = VerifFeatures::neoMESI();
        else if (features == "moesi")
            f = VerifFeatures::withOwned();
        else if (features == "nsmesi") {
            f = VerifFeatures::neoMESI();
            f.nonSiblingFwd = true;
        } else if (features != "german") {
            neo_fatal("unknown feature set: ", features);
        }

        CompositionMethod cm = CompositionMethod::Modified;
        if (method == "none")
            cm = CompositionMethod::None;
        else if (method == "original")
            cm = CompositionMethod::Original;
        else if (method != "modified")
            neo_fatal("unknown method: ", method);

        if (parametric) {
            // Handled below from the factory; build a placeholder
            // instance so the sweep path can ignore `ts`.
            auto factory = [&]() -> ModelFactory {
                if (features == "german")
                    return germanModelFactory();
                if (system == "closed")
                    return closedModelFactory(f);
                return openModelFactory(f, cm);
            }();
            const ParametricResult r =
                verifyParametric(factory, 1, 8, lim);
            std::printf("parametric sweep (%u thread%s): %s\n",
                        lim.threads, lim.threads == 1 ? "" : "s",
                        verifStatusName(r.status));
            if (r.resumed)
                std::printf("  resumed from checkpoint "
                            "(%zu instance%s restored)\n",
                            r.restoredInstances,
                            r.restoredInstances == 1 ? "" : "s");
            for (std::size_t k = 0; k < r.instanceSizes.size(); ++k) {
                std::printf(
                    "  N=%zu: %-10s %9llu states  %zu views\n",
                    r.instanceSizes[k],
                    verifStatusName(r.perInstance[k].status),
                    static_cast<unsigned long long>(
                        r.perInstance[k].statesExplored),
                    r.abstractSetSizes[k]);
            }
            std::printf("%s (%.2fs)\n", r.detail.c_str(), r.seconds);
            if (r.status == VerifStatus::Interrupted) {
                std::printf("snapshot saved to %s; rerun with "
                            "--resume to continue\n",
                            ckpt.dir.c_str());
                std::exit(kExitInterrupted);
            }
            std::exit(r.converged && r.status == VerifStatus::Verified
                          ? kExitClean
                          : kExitViolation);
        }

        model_desc = features + " (" + system + ", " + method + ")";
        if (features == "german")
            return buildGermanModel(n, shape);
        if (system == "closed")
            return buildClosedModel(n, f, shape);
        return buildOpenModel(n, f, cm, shape);
    }();

    if (walk) {
        wopt.threads = lim.threads;
        const WalkResult w = walkExplore(ts, wopt);
        if (w.resumed)
            std::printf("resumed from checkpoint (%llu walk%s "
                        "already complete)\n",
                        static_cast<unsigned long long>(
                            w.restoredWalks),
                        w.restoredWalks == 1 ? "" : "s");
        std::printf(
            "%s, N=%zu: random walk (%llu x %llu @ seed %llu, "
            "%u thread%s): %s\n",
            model_desc.c_str(), n,
            static_cast<unsigned long long>(wopt.walks),
            static_cast<unsigned long long>(wopt.depth),
            static_cast<unsigned long long>(wopt.seed), wopt.threads,
            wopt.threads == 1 ? "" : "s",
            w.status == VerifStatus::Verified
                ? "NO VIOLATION FOUND (walks cannot prove safety)"
                : verifStatusName(w.status));
        std::printf(
            "  %llu steps in %llu walks (%llu dead ends), %.2fs, "
            "%.0f states/s\n",
            static_cast<unsigned long long>(w.stepsTaken),
            static_cast<unsigned long long>(w.walksRun),
            static_cast<unsigned long long>(w.deadEnds), w.seconds,
            w.seconds > 0.0
                ? static_cast<double>(w.stepsTaken) / w.seconds
                : 0.0);
        if (w.status == VerifStatus::InvariantViolated) {
            std::printf("  violated invariant: %s (walk %llu, "
                        "raw trace length %zu)\n",
                        w.violatedInvariant.c_str(),
                        static_cast<unsigned long long>(w.walkIndex),
                        w.trace.size());
            if (shrink) {
                const ShrinkResult sr =
                    shrinkTrace(ts, w.trace, w.violatedInvariant);
                std::printf("  shrunk: %zu -> %zu steps "
                            "(%llu replays)\n",
                            sr.rawLength, sr.shrunkLength,
                            static_cast<unsigned long long>(
                                sr.replays));
                if (want_trace)
                    printTrace(sr.traceNames, sr.badState);
            } else if (want_trace) {
                printTrace(w.traceNames, w.badState);
            }
        }
        if (w.status == VerifStatus::Interrupted) {
            std::printf("snapshot saved to %s; rerun with --resume "
                        "to continue\n",
                        ckpt.dir.c_str());
            return kExitInterrupted;
        }
        return w.status == VerifStatus::Verified ? kExitClean
                                                 : kExitViolation;
    }

    const ExploreResult r = explore(ts, lim, false, true);
    if (r.resumed)
        std::printf("resumed from checkpoint (%llu states restored)\n",
                    static_cast<unsigned long long>(r.restoredStates));
    std::printf("%s, N=%zu, %u thread%s: %s\n", model_desc.c_str(), n,
                lim.threads, lim.threads == 1 ? "" : "s",
                verifStatusName(r.status));
    std::printf("  %llu states, %llu transitions, %.2fs, ~%.1f MB\n",
                static_cast<unsigned long long>(r.statesExplored),
                static_cast<unsigned long long>(r.transitionsFired),
                r.seconds,
                static_cast<double>(r.memoryBytes) / (1024.0 * 1024.0));
    std::printf("  rule index: %llu guard evals (%llu skipped), "
                "%llu canon-identity hits\n",
                static_cast<unsigned long long>(r.guardEvals),
                static_cast<unsigned long long>(r.guardEvalsSkipped),
                static_cast<unsigned long long>(r.canonIdentityHits));
    if (r.degradedTrace)
        std::printf("  memory pressure shed predecessor links: counts "
                    "are exact, no counterexample trace\n");
    if (r.status == VerifStatus::InvariantViolated) {
        std::printf("  violated invariant: %s\n",
                    r.violatedInvariant.c_str());
        if (want_trace)
            printTrace(r.trace, r.badState);
    }
    if (r.status == VerifStatus::Interrupted ||
        (r.status == VerifStatus::LimitExceeded &&
         lim.checkpoint != nullptr)) {
        std::printf("snapshot saved to %s; rerun with --resume to "
                    "continue%s\n",
                    ckpt.dir.c_str(),
                    r.status == VerifStatus::LimitExceeded
                        ? " (raise the exceeded bound)"
                        : "");
        if (r.status == VerifStatus::Interrupted)
            return kExitInterrupted;
    }
    return r.status == VerifStatus::Verified ? kExitClean
                                             : kExitViolation;
}
