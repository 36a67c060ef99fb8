/**
 * @file
 * The benchmark program. One invocation runs one workload:
 *
 *   e2ebench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *            [--git-sha SHA] [--trace-out FILE] [--wrong-pin]
 *   e2ebench --self-test
 *
 * Untraced (--trace 0), it repeats the workload for about S seconds,
 * each repetition in a fresh forked child so that ru_maxrss is that
 * repetition's own peak, then measures the set-up work several times in
 * this process. Traced (--trace 1), it runs the workload's replicas once
 * and reports per-layer metrics; FILE receives the spans. Either way the
 * last stdout line is `E2E {...}` with raw values, which run.py turns
 * into the reported record. Exit status 0 means every output matched.
 */

#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "sim/logging.hpp"
#include "workloads.hpp"

namespace e2e
{

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"verify-open-n5", false, verifyOpenN5Rep, verifyOpenN5Setup,
         verifyOpenN5Traced},
        {"sweep-open-n1-5", true, sweepRep, sweepSetup, sweepTraced},
        {"sim-8perL2-canneal", true, cannealRep, cannealSetup,
         cannealTraced},
    };
    return all;
}

namespace
{

/** Set-up is measured until this many samples or this much time,
 *  whichever comes first, but at least kMinSetupSamples times; the
 *  median is reported. A sample is the mean of one set-up on each CPU. */
constexpr int kMaxSetupSamples = 201;
constexpr int kMinSetupSamples = 5;
constexpr double kSetupBudgetS = 1.0;

/*
 * On a shared host the CPUs of one machine do not run at one speed: a
 * CPU whose physical core is busy with another tenant runs up to ~1.5x
 * slower, and which CPUs those are changes from minute to minute. A
 * single-threaded run left where the scheduler puts it takes the speed
 * of one CPU, so runs of the same code spread by that ratio. Spread over
 * every CPU, it takes their mean, as the multi-threaded workload does.
 */

/** The CPUs this process may run on; at least the current one. */
std::vector<int>
allowedCpus()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &allowed))
                cpus.push_back(c);
    if (cpus.empty())
        cpus.push_back(std::max(0, sched_getcpu()));
    return cpus;
}

/** Pin thread @p tid (0: the caller) to @p cpu. */
void
pinThread(pid_t tid, int cpu)
{
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(tid, sizeof(one), &one);
}

/**
 * Moves the thread that creates it round the allowed CPUs, one step each
 * kStep, until it is destroyed; the thread stays on the last one. A step
 * costs one migration, a few hundred microseconds of cache refill,
 * against kStep of work.
 */
class CpuRotation
{
  public:
    static constexpr std::chrono::milliseconds kStep{200};

    /** Start on the @p first allowed CPU (modulo their number). */
    explicit CpuRotation(std::size_t first)
    {
        const std::vector<int> cpus = allowedCpus();
        if (cpus.size() < 2)
            return;
        const auto tid = static_cast<pid_t>(syscall(SYS_gettid));
        pinThread(tid, cpus[first % cpus.size()]);
        thread_ = std::thread([this, tid, cpus, first] {
            std::unique_lock<std::mutex> lock(mutex_);
            for (std::size_t i = first + 1;
                 !wake_.wait_for(lock, kStep, [this] { return stop_; });
                 ++i)
                pinThread(tid, cpus[i % cpus.size()]);
        });
    }

    ~CpuRotation()
    {
        if (!thread_.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        wake_.notify_one();
        thread_.join();
    }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

  private:
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
    std::thread thread_;
};

struct Args
{
    std::string workload;
    Options opt;
    double seconds = 10.0;
    int trace = 0;
    std::string gitSha = "unknown";
    std::string traceOut;
    bool selfTest = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "e2ebench: %s\n"
                 "usage: e2ebench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1]\n"
                 "                [--git-sha SHA] [--trace-out FILE] "
                 "[--wrong-pin]\n"
                 "       e2ebench --self-test\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUnsigned(const char *flag, const char *s)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0' || s[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string f = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage((f + " needs a value").c_str());
            return argv[++i];
        };
        if (f == "--workload") {
            a.workload = value();
        } else if (f == "--seed") {
            a.opt.seed = parseUnsigned("--seed", value());
            a.opt.seedGiven = true;
        } else if (f == "--seconds") {
            a.seconds =
                static_cast<double>(parseUnsigned("--seconds", value()));
        } else if (f == "--trace") {
            const std::uint64_t t = parseUnsigned("--trace", value());
            if (t > 1)
                usage("--trace takes 0 or 1");
            a.trace = static_cast<int>(t);
        } else if (f == "--git-sha") {
            a.gitSha = value();
        } else if (f == "--trace-out") {
            a.traceOut = value();
        } else if (f == "--wrong-pin") {
            a.opt.pinSkew = 1;
        } else if (f == "--self-test") {
            a.selfTest = true;
        } else {
            usage(("unknown argument " + f).c_str());
        }
    }
    if (!a.selfTest && a.workload.empty())
        usage("--workload is required");
    return a;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonObject(const Metrics &m)
{
    std::string out = "{";
    for (const auto &[name, v] : m) {
        if (out.size() > 1)
            out += ',';
        out += jsonString(name) + ":" + jsonNumber(v);
    }
    return out + "}";
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct Rep
{
    RepOutcome out;
    double peakMb = 0.0;
};

/** Run repetition @p index in a forked child; its ru_maxrss is the
 *  repetition's peak resident memory. */
Rep
forkRep(const Workload &w, const Options &opt, std::size_t index)
{
    Rep rep;
    int fds[2];
    if (pipe(fds) != 0) {
        std::perror("pipe");
        std::exit(1);
    }
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("fork");
        std::exit(1);
    }
    if (pid == 0) {
        close(fds[0]);
        std::optional<CpuRotation> rotation;
        if (w.singleThreaded)
            rotation.emplace(index);
        const RepOutcome o = w.rep(opt);
        rotation.reset();
        const char *p = reinterpret_cast<const char *>(&o);
        std::size_t left = sizeof(o);
        while (left > 0) {
            const ssize_t n = write(fds[1], p, left);
            if (n <= 0)
                _exit(1);
            p += n;
            left -= static_cast<std::size_t>(n);
        }
        _exit(0);
    }
    close(fds[1]);
    char *p = reinterpret_cast<char *>(&rep.out);
    std::size_t got = 0;
    while (got < sizeof(rep.out)) {
        const ssize_t n = read(fds[0], p + got, sizeof(rep.out) - got);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        got += static_cast<std::size_t>(n);
    }
    close(fds[0]);
    int status = 0;
    rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    if (got != sizeof(rep.out) || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
        rep.out = RepOutcome{};
        std::snprintf(rep.out.detail, sizeof(rep.out.detail),
                      "repetition child died (status %d)", status);
    }
    rep.peakMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return rep;
}

void
printRunRecord(const Args &a)
{
    double load[3] = {};
    if (getloadavg(load, 3) != 3)
        load[0] = load[1] = load[2] = -1.0;
    std::printf("run_record {\"workload\":%s,\"seed\":%s,\"seconds\":%s,"
                "\"trace\":%d,\"git_sha\":%s,\"nproc\":%u,"
                "\"build_type\":%s,\"compiler\":%s,"
                "\"loadavg\":[%.2f,%.2f,%.2f]}\n",
                jsonString(a.workload).c_str(),
                a.opt.seedGiven ? std::to_string(a.opt.seed).c_str()
                                : "\"default\"",
                jsonNumber(a.seconds).c_str(), a.trace,
                jsonString(a.gitSha).c_str(),
                std::thread::hardware_concurrency(),
                jsonString(E2EBENCH_BUILD_TYPE).c_str(),
                jsonString("gcc " __VERSION__).c_str(), load[0], load[1],
                load[2]);
}

int
runUntraced(const Workload &w, const Args &a)
{
    const auto t0 = Clock::now();
    std::vector<Rep> reps;
    for (;;) {
        reps.push_back(forkRep(w, a.opt, reps.size()));
        const double el = secondsSince(t0);
        const double perRep = el / static_cast<double>(reps.size());
        if (el + perRep > a.seconds)
            break;
    }
    // Set-up is single-threaded and short, so each sample runs it once
    // on every CPU. Nothing is timed after it.
    std::vector<double> setup;
    const std::vector<int> cpus = allowedCpus();
    const auto s0 = Clock::now();
    while (setup.size() < kMaxSetupSamples &&
           (setup.size() < kMinSetupSamples ||
            secondsSince(s0) < kSetupBudgetS)) {
        double sum = 0.0;
        for (const int c : cpus) {
            pinThread(0, c);
            sum += w.setup(a.opt);
        }
        setup.push_back(sum / static_cast<double>(cpus.size()));
    }

    // Repetitions of one run see the same inputs, so every
    // deterministic output must agree with the first good one.
    std::uint64_t failed = 0;
    const Rep *first = nullptr;
    std::string detail;
    std::vector<double> wall, rss, work, ticks;
    for (Rep &r : reps) {
        if (r.out.ok && first != nullptr &&
            r.out.digest != first->out.digest) {
            r.out.ok = false;
            std::snprintf(r.out.detail, sizeof(r.out.detail),
                          "outputs differ between repetitions");
        }
        if (r.out.ok && first == nullptr)
            first = &r;
        if (!r.out.ok) {
            ++failed;
            if (detail.empty())
                detail = r.out.detail;
        }
        // A repetition that failed its gate still measured its time;
        // only one whose child died has nothing to report.
        if (r.out.wallS <= 0.0)
            continue;
        wall.push_back(r.out.wallS);
        rss.push_back(r.peakMb);
        work.push_back(r.out.workPerS);
        ticks.push_back(r.out.simTicks);
    }
    const bool correct = failed == 0;
    Metrics m, extra, samples;
    if (!wall.empty()) {
        m["wall_s"] = median(wall);
        m["setup_s"] = median(setup);
        m["peak_rss_mb"] = median(rss);
        m["work_per_s"] = median(work);
        // Defined on the simulator workload only.
        if (median(ticks) > 0.0)
            extra["sim_runtime_ticks"] = median(ticks);
    }
    extra["fail_frac"] =
        static_cast<double>(failed) / static_cast<double>(reps.size());
    for (const char *k : {"wall_s", "peak_rss_mb", "work_per_s"})
        samples[k] = static_cast<double>(wall.size());
    samples["setup_s"] = static_cast<double>(setup.size());
    std::string wallReps = "[";
    for (const double v : wall) {
        if (wallReps.size() > 1)
            wallReps += ',';
        wallReps += jsonNumber(v);
    }
    wallReps += "]";
    std::printf("E2E {\"workload\":%s,\"correct\":%s,\"attempted\":%zu,"
                "\"failed\":%llu,\"metrics\":%s,\"samples\":%s,"
                "\"extra\":%s,\"wall_reps\":%s,\"run_s\":%s,"
                "\"detail\":%s}\n",
                jsonString(w.name).c_str(), correct ? "true" : "false",
                reps.size(), static_cast<unsigned long long>(failed),
                jsonObject(m).c_str(), jsonObject(samples).c_str(),
                jsonObject(extra).c_str(), wallReps.c_str(),
                jsonNumber(secondsSince(t0)).c_str(),
                jsonString(detail).c_str());
    return correct ? 0 : 1;
}

int
runTraced(const Workload &w, const Args &a)
{
    const auto t0 = Clock::now();
    TraceResult tr;
    w.traced(a.opt, tr);
    if (!a.traceOut.empty()) {
        std::FILE *f = std::fopen(a.traceOut.c_str(), "w");
        if (f == nullptr) {
            std::perror(a.traceOut.c_str());
            return 1;
        }
        std::fprintf(f, "{\"workload\":%s,\"spans\":[",
                     jsonString(w.name).c_str());
        for (std::size_t i = 0; i < tr.spans.size(); ++i) {
            const Span &s = tr.spans[i];
            std::fprintf(f,
                         "%s\n{\"name\":%s,\"parent\":%s,\"start_s\":%s,"
                         "\"dur_s\":%s,\"count\":%llu}",
                         i ? "," : "", jsonString(s.name).c_str(),
                         jsonString(s.parent).c_str(),
                         jsonNumber(s.startS).c_str(),
                         jsonNumber(s.durS).c_str(),
                         static_cast<unsigned long long>(s.count));
        }
        std::fprintf(f, "\n]}\n");
        if (std::fclose(f) != 0) {
            std::perror(a.traceOut.c_str());
            return 1;
        }
    }
    std::printf("E2E {\"workload\":%s,\"correct\":%s,\"attempted\":1,"
                "\"failed\":%d,\"metrics\":%s,\"run_s\":%s,"
                "\"detail\":%s}\n",
                jsonString(w.name).c_str(), tr.ok ? "true" : "false",
                tr.ok ? 0 : 1, jsonObject(tr.metrics).c_str(),
                jsonNumber(secondsSince(t0)).c_str(),
                jsonString(tr.why).c_str());
    return tr.ok ? 0 : 1;
}

} // namespace
} // namespace e2e

int
main(int argc, char **argv)
{
    using namespace e2e;
    const Args a = parseArgs(argc, argv);
    neo::setQuiet(true);
    if (a.selfTest) {
        std::printf("verifier:\n");
        int failures = selfTestVerifier();
        std::printf("simulator:\n");
        failures += selfTestSimulator();
        std::printf("%d self-test failure(s)\n", failures);
        return failures == 0 ? 0 : 1;
    }
    const Workload *w = nullptr;
    for (const Workload &cand : workloads())
        if (a.workload == cand.name)
            w = &cand;
    if (w == nullptr)
        usage(("unknown workload " + a.workload).c_str());
    printRunRecord(a);
    return a.trace ? runTraced(*w, a) : runUntraced(*w, a);
}
