/**
 * @file
 * TCP star topology + deterministic network chaos, end to end.
 *
 * The service's multi-box contract: with --listen, workers (local
 * forks or pool agents joined from other boxes) dial the coordinator
 * back over TCP and route their state batches through its relay. The
 * network is a first-class failure domain here, so these tests put a
 * deterministic fault-injecting proxy INTO the worker path and assert
 * the differential property that anchors the whole service design:
 *
 *   with links being severed, delayed and truncated mid-frame on a
 *   reproducible schedule, a distributed attempt either lands on the
 *   EXACT sequential fixpoint counts or fails cleanly into a retry —
 *   a false Verified must be impossible (the per-attempt Σsent ==
 *   Σrecv rule can never re-balance over a lossy link).
 *
 * Below that: chaos-spec parsing, schedule determinism (same seed →
 * same fault log), proxy passthrough fidelity, pool-agent join, and
 * the client-side deadline contract against a hung coordinator.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "sim/exit_codes.hpp"
#include "sim/io_retry.hpp"
#include "verif/explorer.hpp"
#include "verif/models/german.hpp"
#include "verif/service/chaos_proxy.hpp"
#include "verif/service/wire.hpp"

using namespace neo;
using namespace neo::verif;
namespace fs = std::filesystem;

namespace
{

std::string
tempDir(const std::string &tag)
{
    std::string tmpl =
        (fs::temp_directory_path() / (tag + ".XXXXXX")).string();
    char *p = ::mkdtemp(tmpl.data());
    EXPECT_NE(p, nullptr);
    return tmpl;
}

struct DirGuard
{
    std::string path;
    explicit DirGuard(std::string p) : path(std::move(p)) {}
    ~DirGuard()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

/** Reserve a loopback port by bind(0)/getsockname/close. The gap
 *  before the real listener rebinds it is racy in principle; in the
 *  single-suite test environment it is dependable, and it is the only
 *  way to advertise a proxy address before the proxy's upstream (the
 *  coordinator) exists. */
std::string
pickFreeAddr()
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in sa = {};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sa.sin_port = 0;
    EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr *>(&sa),
                     sizeof sa),
              0);
    socklen_t len = sizeof sa;
    EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr *>(&sa),
                            &len),
              0);
    ::close(fd);
    return "127.0.0.1:" + std::to_string(ntohs(sa.sin_port));
}

// ---------------------------------------------------------------
// Chaos spec + proxy
// ---------------------------------------------------------------

TEST(ChaosSpec, ParsesTheFullSurface)
{
    ChaosSpec spec;
    std::string err;
    ASSERT_TRUE(ChaosSpec::parse(
        "seed=42,every=32768,drop=1,dup=2,trunc=3,sever=4,delay=5,"
        "delayms=25,span=64,skip=2",
        spec, err))
        << err;
    EXPECT_EQ(spec.seed, 42u);
    EXPECT_EQ(spec.everyBytes, 32768u);
    EXPECT_EQ(spec.weightDrop, 1u);
    EXPECT_EQ(spec.weightDup, 2u);
    EXPECT_EQ(spec.weightTrunc, 3u);
    EXPECT_EQ(spec.weightSever, 4u);
    EXPECT_EQ(spec.weightDelay, 5u);
    EXPECT_DOUBLE_EQ(spec.delayMs, 25.0);
    EXPECT_EQ(spec.spanBytes, 64u);
    EXPECT_EQ(spec.skipConnections, 2u);
    EXPECT_EQ(spec.totalWeight(), 15u);
}

TEST(ChaosSpec, RejectsJunk)
{
    ChaosSpec spec;
    std::string err;
    EXPECT_FALSE(ChaosSpec::parse("seed=", spec, err));
    EXPECT_FALSE(ChaosSpec::parse("bogus=1", spec, err));
    EXPECT_FALSE(ChaosSpec::parse("seed=abc", spec, err));
    EXPECT_FALSE(ChaosSpec::parse("seed=1,,drop=1", spec, err));
}

/** One-connection sink server: accepts, drains everything, stores
 *  it. Lives on its own thread. */
struct SinkServer
{
    int listenFd = -1;
    std::string addr;
    std::thread thread;
    std::vector<std::uint8_t> received;
    std::atomic<bool> done{false};

    SinkServer()
    {
        std::string err;
        listenFd = listenTcp("127.0.0.1:0", err, &addr);
        EXPECT_GE(listenFd, 0) << err;
        thread = std::thread([this] {
            const int c = ::accept(listenFd, nullptr, nullptr);
            if (c >= 0) {
                std::uint8_t buf[4096];
                for (;;) {
                    const ssize_t r = readRetry(c, buf, sizeof buf);
                    if (r <= 0)
                        break;
                    received.insert(received.end(), buf, buf + r);
                }
                ::close(c);
            }
            done = true;
        });
    }

    ~SinkServer()
    {
        if (thread.joinable())
            thread.join();
        if (listenFd >= 0)
            ::close(listenFd);
    }
};

std::vector<std::uint8_t>
patternBytes(std::size_t n)
{
    std::vector<std::uint8_t> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = static_cast<std::uint8_t>(i * 131 + 17);
    return out;
}

TEST(ChaosProxy, ZeroWeightsForwardLosslessly)
{
    SinkServer sink;
    ChaosProxy proxy;
    ChaosSpec spec; // all weights zero: pure forwarder
    std::string err;
    ASSERT_TRUE(proxy.start("127.0.0.1:0", sink.addr, spec, err))
        << err;

    const auto sent = patternBytes(256 * 1024);
    const int fd = connectTcp(proxy.boundAddress(), err, 5.0);
    ASSERT_GE(fd, 0) << err;
    ASSERT_TRUE(writeFull(fd, sent.data(), sent.size()));
    ::close(fd);
    for (int i = 0; i < 500 && !sink.done; ++i)
        ::usleep(10 * 1000);
    proxy.stop();
    EXPECT_EQ(sink.received, sent);
    EXPECT_EQ(proxy.faultsInjected(), 0u);
}

TEST(ChaosProxy, SameSeedSameBytesSameSchedule)
{
    // The reproducibility contract: the fault schedule is a pure
    // function of (seed, connection, direction, byte offset), so two
    // independent proxy instances fed the identical byte stream must
    // log the identical faults — regardless of chunking or timing.
    const auto sent = patternBytes(512 * 1024);
    ChaosSpec spec;
    std::string err;
    ASSERT_TRUE(ChaosSpec::parse(
        "seed=99,every=16384,drop=1,dup=1,delay=1,delayms=1,span=32",
        spec, err))
        << err;

    std::string logs[2];
    for (int round = 0; round < 2; ++round) {
        SinkServer sink;
        ChaosProxy proxy;
        ASSERT_TRUE(proxy.start("127.0.0.1:0", sink.addr, spec, err))
            << err;
        const int fd = connectTcp(proxy.boundAddress(), err, 5.0);
        ASSERT_GE(fd, 0) << err;
        // Dribble in uneven chunks so kernel framing differs between
        // rounds even though the byte stream does not.
        std::size_t pos = 0;
        std::size_t step = 1000 + round * 7777;
        while (pos < sent.size()) {
            const std::size_t n =
                std::min(step, sent.size() - pos);
            ASSERT_TRUE(writeFull(fd, sent.data() + pos, n));
            pos += n;
            step = (step * 31) % 20000 + 500;
        }
        ::close(fd);
        for (int i = 0; i < 500 && !sink.done; ++i)
            ::usleep(10 * 1000);
        proxy.stop();
        logs[round] = proxy.scheduleLog();
        EXPECT_GT(proxy.faultsInjected(), 0u);
    }
    EXPECT_EQ(logs[0], logs[1]);
}

// ---------------------------------------------------------------
// End-to-end TCP star topology against the real binary
// ---------------------------------------------------------------

#ifdef NEOVERIFY_BIN

std::vector<std::string>
splitArgs(const std::string &s)
{
    std::vector<std::string> out;
    std::string cur;
    for (const char c : s) {
        if (c == ' ') {
            if (!cur.empty())
                out.push_back(std::move(cur));
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(std::move(cur));
    return out;
}

pid_t
spawnNeoverify(const std::vector<std::string> &args,
               const std::string &logPath)
{
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    const int log = ::open(logPath.c_str(),
                           O_CREAT | O_WRONLY | O_APPEND, 0644);
    if (log >= 0) {
        ::dup2(log, 1);
        ::dup2(log, 2);
        ::close(log);
    }
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(NEOVERIFY_BIN));
    for (const auto &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(NEOVERIFY_BIN, argv.data());
    ::_exit(127);
}

/** Coordinator with a TCP listener beside the unix socket. */
struct TcpServiceFixture
{
    std::string dir;
    std::string sock;
    std::string tcpAddr; ///< resolved listen address
    pid_t coordinator = -1;
    bool up = false;

    explicit TcpServiceFixture(const std::string &extraArgs = "",
                               const std::string &listen =
                                   "127.0.0.1:0",
                               const std::string &advertise = "")
        : dir(tempDir("svctcp")), sock(dir + "/neo.sock")
    {
        std::vector<std::string> args = {
            "--serve",     sock,
            "--state-dir", dir + "/state",
            "--heartbeat", "100ms",
            "--backoff",   "100ms",
            "--listen",    listen,
        };
        if (!advertise.empty()) {
            args.push_back("--advertise");
            args.push_back(advertise);
        }
        for (auto &a : splitArgs(extraArgs))
            args.push_back(std::move(a));
        coordinator = spawnNeoverify(args, dir + "/serve.log");
        for (int i = 0; i < 200; ++i) {
            std::string err;
            const int fd = connectUnix(sock, err);
            if (fd >= 0) {
                ::close(fd);
                up = true;
                break;
            }
            ::usleep(50 * 1000);
        }
        EXPECT_TRUE(up) << "coordinator never came up";
        // The resolved TCP address lands in state-dir/tcp-addr.
        for (int i = 0; i < 200 && tcpAddr.empty(); ++i) {
            std::ifstream f(dir + "/state/tcp-addr");
            std::getline(f, tcpAddr);
            if (tcpAddr.empty())
                ::usleep(20 * 1000);
        }
        EXPECT_FALSE(tcpAddr.empty()) << "no tcp-addr file";
    }

    int
    client(const std::string &args, std::string &out) const
    {
        const std::string cmd = std::string(NEOVERIFY_BIN) +
                                " --sock " + sock + " " + args +
                                " 2>&1";
        FILE *p = ::popen(cmd.c_str(), "r");
        if (p == nullptr)
            return -1;
        char buf[4096];
        out.clear();
        while (std::fgets(buf, sizeof buf, p) != nullptr)
            out += buf;
        const int st = ::pclose(p);
        return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
    }

    void
    stop()
    {
        if (coordinator > 0) {
            ::kill(coordinator, SIGKILL);
            ::waitpid(coordinator, nullptr, 0);
            coordinator = -1;
        }
    }

    /** The state dir outlives a failing test: its journal and
     *  serve.log are the postmortem. */
    ~TcpServiceFixture()
    {
        stop();
        if (!::testing::Test::HasFailure()) {
            std::error_code ec;
            fs::remove_all(dir, ec);
        }
    }
};

std::uint64_t
scrapeCount(const std::string &text, const std::string &key)
{
    const auto pos = text.find(key + "=");
    if (pos == std::string::npos)
        return ~0ULL;
    return std::strtoull(text.c_str() + pos + key.size() + 1, nullptr,
                         10);
}

ExploreResult
germanReference(std::size_t n)
{
    ModelShape shape;
    TransitionSystem ts = buildGermanModel(n, shape);
    ExploreLimits lim;
    lim.maxStates = 8'000'000;
    return explore(ts, lim, false, true);
}

TEST(ServiceTcp, StarTopologyMatchesSequentialCounts)
{
    TcpServiceFixture svc("--workers 3");
    std::string out;
    const int rc = svc.client(
        "--submit --features german --n 4 --wait 0", out);
    svc.stop();
    ASSERT_EQ(rc, 0) << out;
    const ExploreResult ref = germanReference(4);
    EXPECT_EQ(scrapeCount(out, "states"), ref.statesExplored);
    EXPECT_EQ(scrapeCount(out, "transitions"), ref.transitionsFired);
}

TEST(ServiceTcp, ClientVerbsWorkOverTcpToo)
{
    TcpServiceFixture svc("--workers 2");
    // Same verbs, but --sock is the TCP endpoint instead of the
    // unix path.
    const std::string cmd = std::string(NEOVERIFY_BIN) + " --sock " +
                            svc.tcpAddr +
                            " --submit --features msi --system "
                            "closed --n 2 --wait 0 2>&1";
    FILE *p = ::popen(cmd.c_str(), "r");
    ASSERT_NE(p, nullptr);
    char buf[4096];
    std::string out;
    while (std::fgets(buf, sizeof buf, p) != nullptr)
        out += buf;
    const int st = ::pclose(p);
    svc.stop();
    ASSERT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0) << out;
    EXPECT_NE(out.find("VERIFIED"), std::string::npos) << out;
}

TEST(ServiceTcp, JoinedPoolWorkersRunTheAttempt)
{
    TcpServiceFixture svc("--workers 2");
    std::string out;
    // Two pool agents offer this box; W=2, so a fresh attempt should
    // be staffed entirely by them.
    const pid_t agent1 = spawnNeoverify({"--join", svc.tcpAddr},
                                        svc.dir + "/agent1.log");
    const pid_t agent2 = spawnNeoverify({"--join", svc.tcpAddr},
                                        svc.dir + "/agent2.log");
    ASSERT_GT(agent1, 0);
    ASSERT_GT(agent2, 0);
    bool pooled = false;
    for (int i = 0; i < 200 && !pooled; ++i) {
        ASSERT_EQ(svc.client("--status", out), 0) << out;
        pooled = out.find("pool=2") != std::string::npos;
        if (!pooled)
            ::usleep(20 * 1000);
    }
    EXPECT_TRUE(pooled) << out;

    ASSERT_EQ(svc.client("--submit --features german --n 5", out), 0)
        << out;
    // Remote workers print pid -1 in the status table: catching that
    // mid-run proves the attempt really is staffed by the pool.
    bool remote = false;
    for (int i = 0; i < 200 && !remote; ++i) {
        ASSERT_EQ(svc.client("--status", out), 0) << out;
        remote = out.find("pids=-1,-1") != std::string::npos;
        if (!remote) {
            if (out.find("job 1 DONE") != std::string::npos)
                break;
            ::usleep(10 * 1000);
        }
    }
    EXPECT_TRUE(remote) << "attempt never ran on pool workers:\n"
                        << out;
    const int rc = svc.client("--wait 1", out);
    ::kill(agent1, SIGTERM);
    ::kill(agent2, SIGTERM);
    ::waitpid(agent1, nullptr, 0);
    ::waitpid(agent2, nullptr, 0);
    svc.stop();
    ASSERT_EQ(rc, 0) << out;
    const ExploreResult ref = germanReference(5);
    EXPECT_EQ(scrapeCount(out, "states"), ref.statesExplored);
    EXPECT_EQ(scrapeCount(out, "transitions"), ref.transitionsFired);
}

TEST(ServiceTcp, ChaoticLinksRetryToTheExactFixpointNeverFalseVerify)
{
    // THE acceptance test: every worker byte flows through a proxy
    // that severs, truncates and delays on a fixed seed. Attempts die
    // to link faults; checkpointed progress survives into retries;
    // the verdict that finally lands must carry the exact sequential
    // counts. Any accounting hole would surface here as a mismatch
    // (false Verified) — the one outcome this design must exclude.
    const std::string coordAddr = pickFreeAddr();
    const std::string proxyAddr = pickFreeAddr();
    // The fault schedule is byte-positional, so the checkpoint
    // cadence is work-based too: besides the 100ms clock, a barrier
    // whenever a worker has interned 1/64 of the reference's states
    // since the last one (about ten epochs per clean run). A clock
    // cadence alone banks fewer epochs per megabyte the faster the
    // engine runs: at 100ms a whole clean run fit in about one
    // epoch, and the job quarantined in about half the runs with
    // every attempt dying before its first barrier.
    const ExploreResult ref = germanReference(5);
    TcpServiceFixture svc(
        "--workers 4 --checkpoint-every 100ms --checkpoint-states " +
            std::to_string(ref.statesExplored / 64) + " --retries 14",
        coordAddr, proxyAddr);

    // Calibrated against the ~40MB a german N=5 run routes through
    // the star: a lethal fault (sever/trunc) lands on average every
    // `every * totalWeight/2 = 8MB` per direction, so attempts die a
    // handful of times across the campaign while each one still lives
    // long enough to bank checkpoint epochs. Denser schedules starve
    // every attempt before its first checkpoint and the job can only
    // quarantine.
    ChaosSpec spec;
    std::string err;
    ASSERT_TRUE(ChaosSpec::parse("seed=7,every=2097152,sever=1,"
                                 "trunc=1,delay=6,delayms=5,span=96",
                                 spec, err))
        << err;
    ChaosProxy proxy;
    ASSERT_TRUE(proxy.start(proxyAddr, coordAddr, spec, err)) << err;

    std::string out;
    const int rc = svc.client(
        "--submit --features german --n 5 --wait 0", out);
    svc.stop();
    proxy.stop();
    ASSERT_EQ(rc, 0) << out << "\nschedule:\n" << proxy.scheduleLog();
    EXPECT_EQ(scrapeCount(out, "states"), ref.statesExplored)
        << out << "\nschedule:\n" << proxy.scheduleLog();
    EXPECT_EQ(scrapeCount(out, "transitions"), ref.transitionsFired)
        << out;
    EXPECT_GT(proxy.faultsInjected(), 0u)
        << "schedule never fired; the test proved nothing";
}

TEST(ServiceTcp, ClientDeadlineExpiresAgainstAHungCoordinator)
{
    // A listener that accepts nothing: connects land in the backlog
    // and never get a byte back. Every client verb must give up after
    // --net-timeout and exit 7, not hang the caller forever.
    std::string addr;
    std::string err;
    const int fd = listenTcp("127.0.0.1:0", err, &addr);
    ASSERT_GE(fd, 0) << err;

    const std::string cmd = std::string(NEOVERIFY_BIN) + " --sock " +
                            addr +
                            " --status --net-timeout 300ms "
                            ">/dev/null 2>&1";
    const auto before = std::chrono::steady_clock::now();
    const int st = std::system(cmd.c_str());
    const double took =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - before)
            .count();
    ::close(fd);
    ASSERT_TRUE(WIFEXITED(st));
    EXPECT_EQ(WEXITSTATUS(st), kExitServiceUnavailable);
    EXPECT_LT(took, 5.0) << "deadline did not bound the hang";
}

#endif // NEOVERIFY_BIN

} // namespace
