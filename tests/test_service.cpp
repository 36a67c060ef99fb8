/**
 * @file
 * Crash-only contract tests for the verification service.
 *
 * The load-bearing properties are DIFFERENTIAL and EXACTLY-ONCE:
 *
 *  - A 4-worker service run of a model — including one whose worker is
 *    SIGKILLed mid-exploration and recovers by resharding the last
 *    coordinated checkpoint onto the survivors — must report the exact
 *    states/transitions/invariant-check counts of an undisturbed
 *    sequential run.
 *
 *  - A coordinator SIGKILLed mid-journal-append must, on restart,
 *    replay the journal and finish every acknowledged job exactly
 *    once: no job lost, no job run to DONE twice.
 *
 *  - A poison job (deterministic worker crash via fault injection)
 *    must converge to quarantine after the retry limit and surface the
 *    dedicated exit code, never wedge the queue.
 *
 * The kill tests time their faults by work, never by the clock: the
 * job is submitted with --inject-park-after K, so its first attempt
 * holds once each worker has interned K fresh states (1/16 of the
 * reference count) and cannot finish, however fast the engine or the
 * machine. The test polls --status until that attempt is RUNNING with
 * a committed checkpoint epoch, kills, and then reads the journal to
 * confirm the order: CKPT, then the failed attempt, then the retry
 * (unheld, on the survivors) landing on the exact counts.
 *
 * Beneath those properties sit unit tests for the crash-only building
 * blocks: the CRC-guarded journal (torn tails truncated, corruption
 * never parsed), the frame codec (corruption latches), EINTR-hardened
 * I/O under a deliberately hostile interval timer, stale-tmp reaping,
 * and the duration-literal CLI parser.
 */

#include <gtest/gtest.h>

#include <cerrno>
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

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include "sim/cli_parse.hpp"
#include "sim/exit_codes.hpp"
#include "sim/io_retry.hpp"
#include "verif/checkpoint.hpp"
#include "verif/explorer.hpp"
#include "verif/models/german.hpp"
#include "verif/parametric.hpp"
#include "verif/service/job_queue.hpp"
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

// ---------------------------------------------------------------
// Journal
// ---------------------------------------------------------------

TEST(JobJournal, RoundtripsRecordsInOrder)
{
    DirGuard d(tempDir("neoj"));
    const std::string path = d.path + "/j.neoj";
    {
        JobJournal j;
        std::string err;
        ASSERT_TRUE(j.open(path, err)) << err;
        for (std::uint8_t t = 1; t <= 5; ++t) {
            SnapshotWriter w;
            w.putU64(t * 100);
            ASSERT_TRUE(j.append(t, w.take()));
        }
    }
    JobJournal j;
    std::string err;
    ASSERT_TRUE(j.open(path, err)) << err;
    std::vector<std::pair<std::uint8_t, std::uint64_t>> seen;
    ASSERT_TRUE(j.replay(
        [&](std::uint8_t type, SnapshotReader &r) {
            seen.emplace_back(type, r.getU64());
        },
        err))
        << err;
    ASSERT_EQ(seen.size(), 5u);
    for (std::uint8_t t = 1; t <= 5; ++t) {
        EXPECT_EQ(seen[t - 1].first, t);
        EXPECT_EQ(seen[t - 1].second, t * 100u);
    }
}

TEST(JobJournal, TruncatesTornTailAndKeepsAppending)
{
    DirGuard d(tempDir("neoj"));
    const std::string path = d.path + "/j.neoj";
    {
        JobJournal j;
        std::string err;
        ASSERT_TRUE(j.open(path, err)) << err;
        SnapshotWriter w;
        w.putU64(1);
        ASSERT_TRUE(j.append(1, w.take()));
        SnapshotWriter w2;
        w2.putU64(2);
        ASSERT_TRUE(j.append(2, w2.take()));
    }
    // Simulate a mid-append SIGKILL: a few garbage bytes that look
    // like the start of a record but end before its payload does.
    {
        std::ofstream f(path, std::ios::binary | std::ios::app);
        const std::uint32_t bogusLen = 64;
        f.write(reinterpret_cast<const char *>(&bogusLen), 4);
        f.write("\xde\xad\xbe", 3);
    }
    const auto tornSize = fs::file_size(path);
    JobJournal j;
    std::string err;
    ASSERT_TRUE(j.open(path, err)) << err;
    int records = 0;
    ASSERT_TRUE(j.replay(
        [&](std::uint8_t, SnapshotReader &) { ++records; }, err))
        << err;
    EXPECT_EQ(records, 2);
    EXPECT_LT(fs::file_size(path), tornSize); // tail truncated away
    // The log must extend cleanly after truncation.
    SnapshotWriter w;
    w.putU64(3);
    ASSERT_TRUE(j.append(3, w.take()));
    JobJournal j2;
    ASSERT_TRUE(j2.open(path, err)) << err;
    records = 0;
    ASSERT_TRUE(j2.replay(
        [&](std::uint8_t, SnapshotReader &) { ++records; }, err));
    EXPECT_EQ(records, 3);
}

TEST(JobJournal, CrcCorruptionCutsTheLogThere)
{
    DirGuard d(tempDir("neoj"));
    const std::string path = d.path + "/j.neoj";
    std::vector<std::size_t> offsets; // start of each record
    {
        JobJournal j;
        std::string err;
        ASSERT_TRUE(j.open(path, err)) << err;
        for (int i = 0; i < 3; ++i) {
            offsets.push_back(fs::file_size(path));
            SnapshotWriter w;
            w.putU64(static_cast<std::uint64_t>(i));
            ASSERT_TRUE(j.append(1, w.take()));
        }
    }
    // Flip one payload byte of the middle record.
    {
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(static_cast<std::streamoff>(offsets[1] + 9));
        char b;
        f.seekg(static_cast<std::streamoff>(offsets[1] + 9));
        f.read(&b, 1);
        b = static_cast<char>(b ^ 0x40);
        f.seekp(static_cast<std::streamoff>(offsets[1] + 9));
        f.write(&b, 1);
    }
    JobJournal j;
    std::string err;
    ASSERT_TRUE(j.open(path, err)) << err;
    int records = 0;
    ASSERT_TRUE(j.replay(
        [&](std::uint8_t, SnapshotReader &) { ++records; }, err));
    // Only the intact prefix survives; the corrupt record and
    // everything after it are gone (crash-only: trust nothing past
    // the first bad CRC).
    EXPECT_EQ(records, 1);
}

TEST(JobQueue, RetryBackoffAndQuarantine)
{
    DirGuard d(tempDir("neoq"));
    JobQueue q(3, 10.0);
    std::string err;
    ASSERT_TRUE(q.open(d.path + "/j.neoj", 0.0, err)) << err;
    JobSpec spec;
    const std::uint64_t id = q.submit(spec);
    Job *job = q.find(id);
    ASSERT_NE(job, nullptr);

    ASSERT_EQ(q.runnable(1.0), job);
    q.markStarted(*job, 4);
    EXPECT_EQ(job->state, JobState::Running);
    EXPECT_EQ(q.runnable(1.0), nullptr);

    q.failAttempt(*job, "worker died", 3, 1.0);
    EXPECT_EQ(job->state, JobState::Pending);
    EXPECT_EQ(job->nextWorkers, 3u);
    // Exponential backoff: not runnable until the delay passes.
    EXPECT_EQ(q.runnable(2.0), nullptr);
    EXPECT_EQ(q.runnable(12.0), job);

    q.markStarted(*job, 3);
    q.failAttempt(*job, "worker died", 2, 20.0);
    q.markStarted(*job, 2);
    q.failAttempt(*job, "worker died", 1, 60.0);
    // Third failure hits the retry limit: quarantined, never runnable.
    EXPECT_EQ(job->state, JobState::Quarantined);
    EXPECT_EQ(q.runnable(1e9), nullptr);
    EXPECT_TRUE(q.allTerminal());
}

TEST(JobQueue, ReplayResolvesUnmatchedStartAsFailedAttempt)
{
    DirGuard d(tempDir("neoq"));
    const std::string path = d.path + "/j.neoj";
    std::uint64_t id = 0;
    {
        JobQueue q(3, 0.0);
        std::string err;
        ASSERT_TRUE(q.open(path, 0.0, err)) << err;
        JobSpec spec;
        id = q.submit(spec);
        q.markStarted(*q.find(id), 4);
        // Coordinator "dies" here: START journaled, no DONE/FAIL.
    }
    JobQueue q(3, 0.0);
    std::string err;
    ASSERT_TRUE(q.open(path, 100.0, err)) << err;
    Job *job = q.find(id);
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->state, JobState::Pending); // lost attempt = failed
    EXPECT_EQ(job->attempts, 1u);
    EXPECT_NE(q.runnable(200.0), nullptr);
}

TEST(JobQueue, ParkHookHoldsOnlyTheFirstAttemptAcrossReplay)
{
    DirGuard d(tempDir("neoq"));
    const std::string path = d.path + "/j.neoj";
    std::uint64_t id = 0;
    {
        JobQueue q(3, 0.0);
        std::string err;
        ASSERT_TRUE(q.open(path, 0.0, err)) << err;
        JobSpec spec;
        spec.parkAfter = 100;
        spec.crashAfter = 7;
        id = q.submit(spec);
        Job *job = q.find(id);
        ASSERT_NE(job, nullptr);
        q.markStarted(*job, 4);
        EXPECT_EQ(attemptSpec(*job).parkAfter, 100u);
        // Coordinator "dies" here: START journaled, no DONE/FAIL.
    }
    // The restarted coordinator decides from the journaled attempt
    // count, so the held attempt is never held twice.
    JobQueue q(3, 0.0);
    std::string err;
    ASSERT_TRUE(q.open(path, 0.0, err)) << err;
    Job *job = q.find(id);
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->spec.parkAfter, 100u); // the job keeps its spec
    q.markStarted(*job, 4);
    const JobSpec retry = attemptSpec(*job);
    EXPECT_EQ(retry.parkAfter, 0u);
    EXPECT_EQ(retry.crashAfter, 7u); // poison stays poison
}

TEST(JobQueue, ReplayQuarantinesACoordinatorCrashLoop)
{
    DirGuard d(tempDir("neoq"));
    const std::string path = d.path + "/j.neoj";
    std::uint64_t id = 0;
    // A job whose attempt SIGKILLs the coordinator itself: each
    // restart replays an unmatched START. After the retry limit the
    // queue must quarantine it instead of wedging forever.
    for (int round = 0; round < 3; ++round) {
        JobQueue q(3, 0.0);
        std::string err;
        ASSERT_TRUE(q.open(path, 0.0, err)) << err;
        if (round == 0) {
            JobSpec spec;
            id = q.submit(spec);
        }
        Job *job = q.find(id);
        ASSERT_NE(job, nullptr);
        ASSERT_EQ(job->state, JobState::Pending);
        q.markStarted(*job, 2);
    }
    JobQueue q(3, 0.0);
    std::string err;
    ASSERT_TRUE(q.open(path, 0.0, err)) << err;
    EXPECT_EQ(q.find(id)->state, JobState::Quarantined);
}

TEST(JobQueue, CancelIsJournalFirstAndSurvivesReplay)
{
    DirGuard d(tempDir("neoq"));
    const std::string path = d.path + "/j.neoj";
    std::uint64_t id = 0;
    {
        JobQueue q(3, 0.0);
        std::string err;
        ASSERT_TRUE(q.open(path, 0.0, err)) << err;
        JobSpec spec;
        id = q.submit(spec);
        q.markStarted(*q.find(id), 2);
        ASSERT_TRUE(q.cancel(id));
        // Crash between the CANCEL record and the worker kill.
    }
    JobQueue q(3, 0.0);
    std::string err;
    ASSERT_TRUE(q.open(path, 0.0, err)) << err;
    // Replay must resolve to Cancelled, never to a retried attempt.
    EXPECT_EQ(q.find(id)->state, JobState::Cancelled);
    EXPECT_FALSE(q.cancel(id)); // terminal: not cancellable again
}

// ---------------------------------------------------------------
// Journal compaction + group commit
// ---------------------------------------------------------------

/** Drive identical mutation histories into two queues. */
void
driveHistory(JobQueue &q, bool compactMidway)
{
    JobSpec big;
    big.features = "german";
    big.n = 5;
    JobSpec small;
    small.features = "msi";
    small.system = "closed";
    small.n = 2;
    small.workers = 2;
    const std::uint64_t j1 = q.submit(big);
    const std::uint64_t j2 = q.submit(small);
    const std::uint64_t j3 = q.submit(big);
    const std::uint64_t j4 = q.submit(small);

    q.markStarted(*q.find(j1), 4);
    CkptManifest m;
    m.epoch = 3;
    m.parts = 4;
    m.states = 1000;
    m.transitions = 9000;
    m.invariantChecks = 5000;
    m.seconds = 1.5;
    q.recordCheckpoint(*q.find(j1), m);
    q.failAttempt(*q.find(j1), "worker died", 3, 10.0);

    if (compactMidway)
        q.compactNow();

    q.markStarted(*q.find(j2), 2);
    JobResult res;
    res.statusCode = 1; // Verified
    res.states = 4321;
    res.transitions = 87654;
    res.invariantChecks = 13000;
    res.seconds = 0.25;
    res.detail = "fixpoint";
    q.markDone(*q.find(j2), res);
    q.cancel(j3);
    q.markStarted(*q.find(j4), 2);

    if (compactMidway)
        q.compactNow();
}

void
expectSameJobTable(JobQueue &a, JobQueue &b)
{
    ASSERT_EQ(a.jobs().size(), b.jobs().size());
    for (const auto &[id, ja] : a.jobs()) {
        const Job *jb = b.find(id);
        ASSERT_NE(jb, nullptr) << "job " << id << " lost";
        EXPECT_EQ(ja.state, jb->state) << "job " << id;
        EXPECT_EQ(ja.attempts, jb->attempts) << "job " << id;
        EXPECT_EQ(ja.nextWorkers, jb->nextWorkers) << "job " << id;
        EXPECT_EQ(ja.spec.summary(), jb->spec.summary());
        EXPECT_EQ(ja.spec.workers, jb->spec.workers);
        EXPECT_EQ(ja.ckpt.epoch, jb->ckpt.epoch);
        EXPECT_EQ(ja.ckpt.parts, jb->ckpt.parts);
        EXPECT_EQ(ja.ckpt.states, jb->ckpt.states);
        EXPECT_EQ(ja.ckpt.transitions, jb->ckpt.transitions);
        EXPECT_EQ(ja.result.statusCode, jb->result.statusCode);
        EXPECT_EQ(ja.result.states, jb->result.states);
        EXPECT_EQ(ja.result.transitions, jb->result.transitions);
        EXPECT_EQ(ja.result.detail, jb->result.detail);
        EXPECT_EQ(ja.lastFailure, jb->lastFailure);
    }
    EXPECT_EQ(a.maxEpochSeen(), b.maxEpochSeen());
}

TEST(JobQueue, CompactionPreservesReplayEquivalence)
{
    DirGuard d(tempDir("neoc"));
    const std::string pathA = d.path + "/a.neoj";
    const std::string pathB = d.path + "/b.neoj";
    {
        JobQueue a(3, 10.0), b(3, 10.0);
        std::string err;
        ASSERT_TRUE(a.open(pathA, 0.0, err)) << err;
        ASSERT_TRUE(b.open(pathB, 0.0, err)) << err;
        driveHistory(a, /*compactMidway=*/true);
        driveHistory(b, /*compactMidway=*/false);
    }
    // The differential heart: a queue replayed from the compacted
    // journal must be indistinguishable from one replayed from the
    // full record-by-record history — including the resolution of
    // job 4's unmatched START into a failed attempt.
    JobQueue a(3, 10.0), b(3, 10.0);
    std::string err;
    ASSERT_TRUE(a.open(pathA, 100.0, err)) << err;
    ASSERT_TRUE(b.open(pathB, 100.0, err)) << err;
    expectSameJobTable(a, b);
}

TEST(JobQueue, SizeTriggeredCompactionBoundsTheJournal)
{
    DirGuard d(tempDir("neoc"));
    JobQueue q(1000000, 0.0);
    std::string err;
    ASSERT_TRUE(q.open(d.path + "/j.neoj", 0.0, err)) << err;
    q.setGroupCommit(true);
    q.setCompactionThreshold(16 * 1024);
    JobSpec spec;
    const std::uint64_t id = q.submit(spec);
    // A start/fail loop appends forever; the snapshot it folds into
    // stays one job big, so the journal must stay near the threshold
    // instead of growing without bound.
    for (int i = 0; i < 2000; ++i) {
        q.markStarted(*q.find(id), 2);
        q.failAttempt(*q.find(id), "kaboom", 2, 0.0);
        q.commit();
    }
    EXPECT_LT(q.journalBytes(), 64u * 1024u);
    // And what survives is still the truth.
    JobQueue q2(1000000, 0.0);
    ASSERT_TRUE(q2.open(d.path + "/j.neoj", 0.0, err)) << err;
    Job *job = q2.find(id);
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->attempts, 2000u);
}

TEST(JobJournal, GroupCommitFlushesABurstAndReplaysAllOfIt)
{
    DirGuard d(tempDir("neog"));
    const std::string path = d.path + "/j.neoj";
    {
        JobJournal j;
        std::string err;
        ASSERT_TRUE(j.open(path, err)) << err;
        for (int i = 0; i < 100; ++i) {
            SnapshotWriter w;
            w.putU64(static_cast<std::uint64_t>(i));
            ASSERT_TRUE(j.append(1, w.take(), /*sync=*/false));
        }
        ASSERT_TRUE(j.sync()); // one fsync covers the burst
    }
    JobJournal j;
    std::string err;
    ASSERT_TRUE(j.open(path, err)) << err;
    std::uint64_t expect = 0;
    ASSERT_TRUE(j.replay(
        [&](std::uint8_t, SnapshotReader &r) {
            EXPECT_EQ(r.getU64(), expect++);
        },
        err))
        << err;
    EXPECT_EQ(expect, 100u);
}

// ---------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------

TEST(Wire, FrameRoundtripThroughDribbledBytes)
{
    SnapshotWriter w;
    w.putU64(0xfeedface);
    putString(w, "hello");
    const auto body = w.take();
    const auto f1 = encodeFrame(MsgType::ReqSubmit, body);
    const auto f2 = encodeFrame(MsgType::Ping, {});

    std::vector<std::uint8_t> stream(f1);
    stream.insert(stream.end(), f2.begin(), f2.end());

    // Feed one byte at a time: framing must be purely incremental.
    FrameReader r;
    std::vector<std::pair<MsgType, std::vector<std::uint8_t>>> got;
    MsgType type;
    std::vector<std::uint8_t> out;
    for (const std::uint8_t b : stream) {
        r.feed(&b, 1);
        while (r.next(type, out))
            got.emplace_back(type, out);
    }
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].first, MsgType::ReqSubmit);
    EXPECT_EQ(got[0].second, body);
    EXPECT_EQ(got[1].first, MsgType::Ping);
    EXPECT_TRUE(got[1].second.empty());
    EXPECT_FALSE(r.corrupt());
}

TEST(Wire, CorruptionLatchesTheReader)
{
    SnapshotWriter w;
    w.putU64(42);
    auto frame = encodeFrame(MsgType::Pong, w.take());
    frame[10] ^= 0x01; // flip a payload bit: CRC must catch it
    FrameReader r;
    r.feed(frame.data(), frame.size());
    MsgType type;
    std::vector<std::uint8_t> body;
    EXPECT_FALSE(r.next(type, body));
    EXPECT_TRUE(r.corrupt());
    // Even a pristine frame afterwards must not parse: framing is
    // lost for good once the stream lied.
    const auto fine = encodeFrame(MsgType::Pong, {});
    r.feed(fine.data(), fine.size());
    EXPECT_FALSE(r.next(type, body));
}

TEST(Wire, InsaneLengthFieldIsCorruptionNotAllocation)
{
    std::vector<std::uint8_t> bogus(8, 0xff); // len ~ 4 GiB
    FrameReader r;
    r.feed(bogus.data(), bogus.size());
    MsgType type;
    std::vector<std::uint8_t> body;
    EXPECT_FALSE(r.next(type, body));
    EXPECT_TRUE(r.corrupt());
}

TEST(Wire, OversizedStringLengthFailsTheWholeRecord)
{
    // A string length no frame can carry must latch the reader, not
    // just yield ""; otherwise the next fields decode misaligned
    // with ok() still true and the caller accepts garbage.
    SnapshotWriter w;
    w.putU32(kMaxFrameBytes + 1); // length field beyond any frame
    w.putU64(0xdeadbeef);         // would misparse as string bytes
    const auto bytes = w.take();
    SnapshotReader r(bytes);
    EXPECT_TRUE(getString(r).empty());
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.getU64(), 0u); // subsequent reads fail, not misalign
    EXPECT_FALSE(r.ok());
}

TEST(Wire, JobSpecEncodesLosslessly)
{
    JobSpec spec;
    spec.features = "german";
    spec.system = "open";
    spec.method = "none";
    spec.mutant = "dir_nonblocking_read";
    spec.n = 7;
    spec.maxStates = 123456;
    spec.maxSeconds = 9.5;
    spec.crashAfter = 42;
    spec.workers = 3;
    spec.parkAfter = 8395;
    SnapshotWriter w;
    spec.encode(w);
    const auto bytes = w.take();
    SnapshotReader r(bytes);
    JobSpec out;
    ASSERT_TRUE(JobSpec::decode(r, out));
    EXPECT_EQ(out.features, spec.features);
    EXPECT_EQ(out.system, spec.system);
    EXPECT_EQ(out.method, spec.method);
    EXPECT_EQ(out.mutant, spec.mutant);
    EXPECT_EQ(out.n, spec.n);
    EXPECT_EQ(out.maxStates, spec.maxStates);
    EXPECT_DOUBLE_EQ(out.maxSeconds, spec.maxSeconds);
    EXPECT_EQ(out.crashAfter, spec.crashAfter);
    EXPECT_EQ(out.workers, spec.workers);
    EXPECT_EQ(out.parkAfter, spec.parkAfter);
}

// ---------------------------------------------------------------
// Wire fuzz: mutated byte streams against the frame reader
// ---------------------------------------------------------------

struct SplitMix
{
    std::uint64_t s;
    std::uint64_t
    next()
    {
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
};

TEST(WireFuzz, RandomChunkingAloneIsLossless)
{
    SplitMix rng{0xc0ffee};
    for (int iter = 0; iter < 50; ++iter) {
        std::vector<std::vector<std::uint8_t>> bodies;
        std::vector<std::uint8_t> stream;
        const int nf = 1 + static_cast<int>(rng.next() % 6);
        for (int f = 0; f < nf; ++f) {
            std::vector<std::uint8_t> body(rng.next() % 300);
            for (auto &b : body)
                b = static_cast<std::uint8_t>(rng.next());
            const auto frame = encodeFrame(MsgType::Pong, body);
            stream.insert(stream.end(), frame.begin(), frame.end());
            bodies.push_back(std::move(body));
        }
        FrameReader r;
        std::size_t pos = 0, got = 0;
        MsgType type;
        std::vector<std::uint8_t> out;
        while (pos < stream.size()) {
            const std::size_t chunk = std::min<std::size_t>(
                1 + rng.next() % 97, stream.size() - pos);
            r.feed(stream.data() + pos, chunk);
            pos += chunk;
            while (r.next(type, out)) {
                ASSERT_LT(got, bodies.size());
                EXPECT_EQ(out, bodies[got]);
                ++got;
            }
        }
        EXPECT_EQ(got, bodies.size());
        EXPECT_FALSE(r.corrupt());
    }
}

TEST(WireFuzz, MutatedStreamsYieldOnlyIntactPrefixesThenLatch)
{
    // Property fuzz over the framing layer: whatever a lossy or
    // malicious link does to the byte stream — bit flips, mid-frame
    // truncation, inserted garbage, a length field pointing past any
    // sane allocation — the reader must (a) deliver every frame that
    // ends before the damage byte-for-byte intact, (b) never deliver
    // a damaged frame, and (c) once corrupt, stay corrupt even when
    // pristine frames follow. No crashes, no unbounded allocation.
    SplitMix rng{0x5eedf00d};
    for (int iter = 0; iter < 400; ++iter) {
        std::vector<std::vector<std::uint8_t>> bodies;
        std::vector<std::size_t> frameEnd;
        std::vector<std::uint8_t> stream;
        const int nf = 1 + static_cast<int>(rng.next() % 6);
        for (int f = 0; f < nf; ++f) {
            std::vector<std::uint8_t> body(rng.next() % 300);
            for (auto &b : body)
                b = static_cast<std::uint8_t>(rng.next());
            const auto frame = encodeFrame(MsgType::StatesTo, body);
            stream.insert(stream.end(), frame.begin(), frame.end());
            frameEnd.push_back(stream.size());
            bodies.push_back(std::move(body));
        }

        const std::size_t off = rng.next() % stream.size();
        const int kind = static_cast<int>(rng.next() % 4);
        switch (kind) {
        case 0: // bit flip
            stream[off] ^= static_cast<std::uint8_t>(
                1u << (rng.next() % 8));
            break;
        case 1: // truncate mid-frame (the chaos proxy's trunc fault)
            stream.resize(off);
            break;
        case 2: // inserted garbage byte
            stream.insert(
                stream.begin() + static_cast<std::ptrdiff_t>(off),
                static_cast<std::uint8_t>(rng.next()));
            break;
        default: // oversized/garbage length field
            for (std::size_t i = off;
                 i < std::min(off + 4, stream.size()); ++i)
                stream[i] = 0xff;
            break;
        }

        FrameReader r;
        std::size_t pos = 0, got = 0;
        MsgType type;
        std::vector<std::uint8_t> out;
        while (pos < stream.size()) {
            const std::size_t chunk = std::min<std::size_t>(
                1 + rng.next() % 97, stream.size() - pos);
            r.feed(stream.data() + pos, chunk);
            pos += chunk;
            while (r.next(type, out)) {
                // (a)+(b): anything yielded from before the damage
                // must be the original, bit for bit.
                if (got < frameEnd.size() && frameEnd[got] <= off) {
                    EXPECT_EQ(type, MsgType::StatesTo);
                    EXPECT_EQ(out, bodies[got]);
                }
                ++got;
            }
            if (r.corrupt())
                break;
        }
        // Every frame wholly before the damage must have come out.
        std::size_t intact = 0;
        while (intact < frameEnd.size() && frameEnd[intact] <= off)
            ++intact;
        EXPECT_GE(got, intact) << "iter " << iter;
        // (c): a latched reader ignores even a pristine frame.
        if (r.corrupt()) {
            const auto fine = encodeFrame(MsgType::Ping, {});
            r.feed(fine.data(), fine.size());
            EXPECT_FALSE(r.next(type, out));
        }
    }
}

// ---------------------------------------------------------------
// Duration literals
// ---------------------------------------------------------------

TEST(CliParse, DurationLiterals)
{
    double out = -1;
    std::string err;
    EXPECT_TRUE(parseSeconds("90", out, err));
    EXPECT_DOUBLE_EQ(out, 90.0);
    EXPECT_TRUE(parseSeconds("30s", out, err));
    EXPECT_DOUBLE_EQ(out, 30.0);
    EXPECT_TRUE(parseSeconds("5m", out, err));
    EXPECT_DOUBLE_EQ(out, 300.0);
    EXPECT_TRUE(parseSeconds("2h", out, err));
    EXPECT_DOUBLE_EQ(out, 7200.0);
    EXPECT_TRUE(parseSeconds("250ms", out, err));
    EXPECT_DOUBLE_EQ(out, 0.25);
    EXPECT_TRUE(parseSeconds("1.5h", out, err));
    EXPECT_DOUBLE_EQ(out, 5400.0);
}

TEST(CliParse, DurationRejectionIsStrict)
{
    double out;
    std::string err;
    EXPECT_FALSE(parseSeconds("", out, err));
    EXPECT_FALSE(parseSeconds("s", out, err));    // bare suffix
    EXPECT_FALSE(parseSeconds("ms", out, err));   // bare suffix
    EXPECT_FALSE(parseSeconds("5ss", out, err));  // doubled suffix
    EXPECT_FALSE(parseSeconds("5mm", out, err));
    EXPECT_FALSE(parseSeconds("5x", out, err));   // unknown suffix
    EXPECT_FALSE(parseSeconds("5 m", out, err));  // inner junk
    EXPECT_FALSE(parseSeconds("-3s", out, err));  // sign
    EXPECT_FALSE(parseSeconds("1h30m", out, err)); // compound
}

// ---------------------------------------------------------------
// EINTR hardening + stale tmp reaping
// ---------------------------------------------------------------

TEST(IoRetry, WriteFullSurvivesAHostileIntervalTimer)
{
    // A SIGALRM every 2ms with SA_RESTART deliberately OFF: every
    // blocking write into the full pipe keeps getting interrupted.
    // writeFull must still deliver every byte, in order.
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);

    struct sigaction sa = {};
    sa.sa_handler = [](int) {};
    sa.sa_flags = 0; // no SA_RESTART: EINTR on purpose
    struct sigaction oldsa;
    ASSERT_EQ(::sigaction(SIGALRM, &sa, &oldsa), 0);
    itimerval timer = {};
    timer.it_interval.tv_usec = 2000;
    timer.it_value.tv_usec = 2000;
    itimerval oldtimer;
    ASSERT_EQ(::setitimer(ITIMER_REAL, &timer, &oldtimer), 0);

    const std::size_t total = 4 << 20; // >> pipe capacity
    std::vector<std::uint8_t> sendBuf(total);
    for (std::size_t i = 0; i < total; ++i)
        sendBuf[i] = static_cast<std::uint8_t>(i * 31 + 7);

    std::vector<std::uint8_t> recvBuf(total, 0);
    std::thread reader([&] {
        std::size_t got = 0;
        while (got < total) {
            const ssize_t r =
                readRetry(fds[0], recvBuf.data() + got, total - got);
            if (r <= 0)
                break;
            got += static_cast<std::size_t>(r);
            // Drain slowly enough that the writer blocks and eats
            // signals while waiting for space.
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });

    EXPECT_TRUE(writeFull(fds[1], sendBuf.data(), total));
    ::close(fds[1]);
    reader.join();
    ::close(fds[0]);

    itimerval zero = {};
    ::setitimer(ITIMER_REAL, &zero, nullptr);
    ::sigaction(SIGALRM, &oldsa, nullptr);

    EXPECT_EQ(recvBuf, sendBuf);
}

TEST(IoRetry, FsyncRetrySucceedsOnARealFile)
{
    DirGuard d(tempDir("fsync"));
    const std::string path = d.path + "/f";
    const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(writeFull(fd, "hello", 5));
    EXPECT_TRUE(fsyncRetry(fd));
    ::close(fd);
}

TEST(Checkpoint, ReapsOrphanedTmpFilesOnly)
{
    DirGuard d(tempDir("reap"));
    std::ofstream(d.path + "/explore.ckpt") << "keep";
    std::ofstream(d.path + "/explore.ckpt.tmp") << "orphan";
    std::ofstream(d.path + "/walk.ckpt.tmp") << "orphan";
    std::ofstream(d.path + "/notes.txt") << "keep";
    reapStaleCheckpointTmps(d.path);
    EXPECT_TRUE(fs::exists(d.path + "/explore.ckpt"));
    EXPECT_TRUE(fs::exists(d.path + "/notes.txt"));
    EXPECT_FALSE(fs::exists(d.path + "/explore.ckpt.tmp"));
    EXPECT_FALSE(fs::exists(d.path + "/walk.ckpt.tmp"));
}

// ---------------------------------------------------------------
// End-to-end service tests against the real binary
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

/** fork+exec the real binary, stdout+stderr appended to @p logPath. */
pid_t
spawnNeoverify(const std::vector<std::string> &args,
               const std::string &logPath)
{
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    // Die with the test process, so a test that aborts leaves no
    // coordinator serving. The signal follows the forking thread's
    // exit; every spawn runs on the main test thread.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent)
        ::_exit(127);
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

struct ServiceFixture
{
    std::string dir;
    std::string sock;
    pid_t coordinator = -1;

    explicit ServiceFixture(const std::string &extraArgs = "")
        : dir(tempDir("svc")), sock(dir + "/neo.sock")
    {
        std::vector<std::string> args = {
            "--serve",     sock,
            "--state-dir", dir + "/state",
            "--heartbeat", "100ms",
            "--backoff",   "100ms",
        };
        for (auto &a : splitArgs(extraArgs))
            args.push_back(std::move(a));
        coordinator = spawnNeoverify(args, dir + "/serve.log");
        // The coordinator is up when the socket accepts.
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
    }

    bool up = false;

    /** Run a client command; @return its exit code, filling @p out. */
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
    ~ServiceFixture()
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

/** Undisturbed sequential reference for a bundled german instance. */
ExploreResult
germanReference(std::size_t n)
{
    ModelShape shape;
    TransitionSystem ts = buildGermanModel(n, shape);
    ExploreLimits lim;
    lim.maxStates = 8'000'000;
    return explore(ts, lim, false, true);
}

/** Submit flags that hold a job's first attempt mid-flight: each
 *  worker parks after 1/16 of the reference's states, far below its
 *  share on the 2 or 4 workers these tests use, so the attempt cannot
 *  reach its fixpoint before the test has struck. */
std::string
parkFlag(const ExploreResult &ref)
{
    return " --inject-park-after " +
           std::to_string(ref.statesExplored / 16);
}

/** Job @p id's line of a --status dump ("" when it has none). */
std::string
statusLine(const std::string &status, int id)
{
    const std::string head = "job " + std::to_string(id) + " ";
    std::size_t at = status.find(head);
    while (at != std::string::npos && at != 0 &&
           status[at - 1] != '\n')
        at = status.find(head, at + 1);
    if (at == std::string::npos)
        return "";
    return status.substr(at, status.find('\n', at) - at);
}

/** Poll --status until job @p id runs its FIRST attempt and, with
 *  @p wantEpoch, has committed a checkpoint epoch. This is the kill
 *  tests' trigger: a held attempt cannot finish, so the fault lands
 *  after a known amount of work, never after a guessed sleep.
 *  @return that status line ("" if it never showed up). */
std::string
awaitHeldAttempt(const ServiceFixture &svc, int id, bool wantEpoch)
{
    std::string out;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
        if (svc.client("--status", out) != 0)
            return "";
        const std::string line = statusLine(out, id);
        if (line.find(" RUNNING attempt=1/") != std::string::npos &&
            (!wantEpoch ||
             line.find(" ckpt-epoch=") != std::string::npos))
            return line;
        ::usleep(20 * 1000);
    }
    return "";
}

/** Pid number @p k (0-based) of a status line's "pids=" list. */
pid_t
workerPid(const std::string &line, unsigned k)
{
    auto pos = line.find("pids=");
    if (pos == std::string::npos)
        return -1;
    pos += 5;
    for (unsigned i = 0; i < k; ++i) {
        pos = line.find(',', pos);
        if (pos == std::string::npos)
            return -1;
        ++pos;
    }
    return static_cast<pid_t>(
        std::strtol(line.c_str() + pos, nullptr, 10));
}

/** neoverify --journal over the fixture's journal. Only call it while
 *  no coordinator runs: the dump truncates a torn tail, as replay
 *  does. */
std::string
journalDump(const ServiceFixture &svc)
{
    std::string dump;
    const std::string cmd = std::string(NEOVERIFY_BIN) +
                            " --journal " + svc.dir +
                            "/state/journal.neoj 2>&1";
    FILE *p = ::popen(cmd.c_str(), "r");
    if (p == nullptr)
        return dump;
    char buf[4096];
    while (std::fgets(buf, sizeof buf, p) != nullptr)
        dump += buf;
    ::pclose(p);
    return dump;
}

std::size_t
occurrences(const std::string &text, const std::string &needle)
{
    std::size_t count = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1))
        ++count;
    return count;
}

/** Offset of the journal's first line starting with @p prefix
 *  (npos if none): record order is line order. */
std::size_t
journalAt(const std::string &dump, const std::string &prefix)
{
    if (dump.compare(0, prefix.size(), prefix) == 0)
        return 0;
    const std::size_t at = dump.find('\n' + prefix);
    return at == std::string::npos ? at : at + 1;
}

/** The journal's first line starting with @p prefix ("" if none). */
std::string
journalLine(const std::string &dump, const std::string &prefix)
{
    const std::size_t at = journalAt(dump, prefix);
    if (at == std::string::npos)
        return "";
    return dump.substr(at, dump.find('\n', at) - at);
}

TEST(Service, MatchesSequentialCounts)
{
    ServiceFixture svc("--workers 4");
    std::string out;
    const int rc = svc.client(
        "--submit --features german --n 4 --wait 0", out);
    svc.stop();
    ASSERT_EQ(rc, 0) << out;
    const ExploreResult ref = germanReference(4);
    EXPECT_EQ(scrapeCount(out, "states"), ref.statesExplored);
    EXPECT_EQ(scrapeCount(out, "transitions"), ref.transitionsFired);
}

TEST(Service, SigkilledWorkerRecoversToTheExactFixpoint)
{
    // Aggressive barriers so the kill lands between checkpoints and
    // recovery genuinely reshards a partial exploration.
    ServiceFixture svc("--workers 4 --checkpoint-every 300ms");
    const ExploreResult ref = germanReference(5);
    std::string out;
    ASSERT_EQ(svc.client("--submit --features german --n 5" +
                             parkFlag(ref),
                         out),
              0)
        << out;

    // The first attempt holds mid-flight; once it has committed a
    // checkpoint epoch, SIGKILL its second worker.
    const std::string line = awaitHeldAttempt(svc, 1, true);
    ASSERT_FALSE(line.empty()) << "job 1 never held a checkpointed "
                                  "first attempt";
    EXPECT_LT(scrapeCount(line, "states"), ref.statesExplored) << line;
    const pid_t victim = workerPid(line, 1);
    ASSERT_GT(victim, 0) << "no running worker to kill: " << line;
    ASSERT_EQ(::kill(victim, SIGKILL), 0);

    const int rc = svc.client("--wait 1", out);
    svc.stop();
    ASSERT_EQ(rc, 0) << out;
    // The differential heart of the test: kill-and-reshard must land
    // on the same fixpoint counts as an undisturbed sequential run.
    EXPECT_EQ(scrapeCount(out, "states"), ref.statesExplored);
    EXPECT_EQ(scrapeCount(out, "transitions"), ref.transitionsFired);

    // The ledger shows the kill after a committed epoch, and the
    // retry resharding onto the three survivors.
    const std::string dump = journalDump(svc);
    const std::size_t ckpt = journalAt(dump, "CKPT job=1 ");
    const std::size_t fail = journalAt(dump, "FAIL job=1 attempt=1 ");
    ASSERT_NE(ckpt, std::string::npos) << dump;
    ASSERT_NE(fail, std::string::npos) << dump;
    EXPECT_LT(ckpt, fail) << dump;
    EXPECT_NE(journalAt(dump, "START job=1 attempt=2 workers=3\n"),
              std::string::npos)
        << dump;
}

TEST(Service, BackedOffJobsCheckpointSurvivesInterleavedJobs)
{
    // Regression: checkpoint pruning must keep the committed epoch of
    // a job that is sitting out its retry backoff. Epochs are global
    // across jobs, and pruning "everything but the current job's
    // epoch" deleted a backed-off job's partition files as soon as
    // any other job committed or finished — turning one recoverable
    // worker kill into a resume failure and, after the retries
    // burned, an unwarranted quarantine.
    ServiceFixture svc("--workers 4 --checkpoint-every 200ms");
    const ExploreResult ref = germanReference(5);
    std::string out;
    ASSERT_EQ(svc.client("--submit --features german --n 5" +
                             parkFlag(ref),
                         out),
              0)
        << out;
    // A fast job queued behind it: it will run (and prune) inside
    // job 1's backoff window after the kill below.
    ASSERT_EQ(svc.client("--submit --mutant leaf_silent_upgrade",
                         out),
              0)
        << out;

    // Kill only once a checkpoint epoch has committed, so the retry
    // has a base it must find intact after job 2's prune.
    const std::string line = awaitHeldAttempt(svc, 1, true);
    ASSERT_FALSE(line.empty()) << "job 1 never held a checkpointed "
                                  "first attempt";
    EXPECT_LT(scrapeCount(line, "states"), ref.statesExplored) << line;
    const pid_t victim = workerPid(line, 0);
    ASSERT_GT(victim, 0) << "no running worker to kill: " << line;
    ASSERT_EQ(::kill(victim, SIGKILL), 0);

    // The mutant job completes (with its violation verdict) during
    // the backoff window...
    EXPECT_EQ(svc.client("--wait 2", out), kExitViolation) << out;
    // ...and the wounded job must still recover to the exact
    // fixpoint, from the checkpoint the mutant job ran past.
    const int rc = svc.client("--wait 1", out);
    svc.stop();
    ASSERT_EQ(rc, 0) << out;
    EXPECT_EQ(scrapeCount(out, "states"), ref.statesExplored);
    EXPECT_EQ(scrapeCount(out, "transitions"), ref.transitionsFired);

    // The interleaving this test exists for, read off the ledger:
    // checkpoint, kill, job 2 runs to its verdict, THEN job 1 resumes
    // on the three survivors.
    const std::string dump = journalDump(svc);
    const std::size_t ckpt = journalAt(dump, "CKPT job=1 ");
    const std::size_t fail = journalAt(dump, "FAIL job=1 attempt=1 ");
    const std::size_t done2 = journalAt(dump, "DONE job=2 ");
    const std::size_t retry =
        journalAt(dump, "START job=1 attempt=2 workers=3\n");
    ASSERT_NE(ckpt, std::string::npos) << dump;
    ASSERT_NE(fail, std::string::npos) << dump;
    ASSERT_NE(done2, std::string::npos) << dump;
    ASSERT_NE(retry, std::string::npos) << dump;
    EXPECT_LT(ckpt, fail) << dump;
    EXPECT_LT(done2, retry) << dump;
}

TEST(Service, HeldAttemptThatNoOneKillsIsRetriedUnheld)
{
    // The park hook must never wedge a job: a held attempt that no
    // test kills freezes the global state count, the no-progress
    // watchdog fails it after 120 rounds (about 12 s of 100 ms
    // heartbeats), and the retry runs without the hook, on every
    // worker.
    ServiceFixture svc("--workers 2");
    const ExploreResult ref = germanReference(4);
    std::string out;
    const int rc = svc.client("--submit --features german --n 4" +
                                  parkFlag(ref) + " --wait 0",
                              out);
    svc.stop();
    ASSERT_EQ(rc, 0) << out;
    EXPECT_EQ(scrapeCount(out, "states"), ref.statesExplored);
    EXPECT_EQ(scrapeCount(out, "transitions"), ref.transitionsFired);
    const std::string dump = journalDump(svc);
    EXPECT_NE(journalLine(dump, "FAIL job=1 attempt=1 ")
                  .find("reason=no progress"),
              std::string::npos)
        << dump;
    EXPECT_NE(journalAt(dump, "START job=1 attempt=2 workers=2\n"),
              std::string::npos)
        << dump;
}

TEST(Service, WorkBasedCheckpointCadenceBanksEpochsAtExactCounts)
{
    // --checkpoint-states alone, the clock cadence off: a barrier
    // whenever a worker has interned K fresh states since the last
    // one. Each epoch then banks at least K states, so there are at
    // most states/K of them; the hold must release at every barrier
    // (at least two epochs), and holding for barriers must not move
    // a single count. None of this depends on the engine's speed.
    const ExploreResult ref = germanReference(5);
    const std::uint64_t k = ref.statesExplored / 64;
    ServiceFixture svc("--workers 4 --checkpoint-every 0 "
                       "--checkpoint-states " +
                       std::to_string(k));
    std::string out;
    const int rc =
        svc.client("--submit --features german --n 5 --wait 0", out);
    svc.stop();
    ASSERT_EQ(rc, 0) << out;
    EXPECT_EQ(scrapeCount(out, "states"), ref.statesExplored);
    EXPECT_EQ(scrapeCount(out, "transitions"), ref.transitionsFired);
    const std::string dump = journalDump(svc);
    const std::size_t epochs = occurrences(dump, "CKPT job=1 ");
    EXPECT_GE(epochs, 2u) << dump;
    EXPECT_LE(epochs, ref.statesExplored / k) << dump;
    EXPECT_EQ(occurrences(dump, "START job=1 "), 1u) << dump;
}

TEST(Service, SigkilledCoordinatorReplaysEveryJobExactlyOnce)
{
    ServiceFixture svc("--workers 2 --checkpoint-every 300ms");
    const ExploreResult ref = germanReference(5);
    std::string out;
    ASSERT_EQ(svc.client("--submit --features german --n 5" +
                             parkFlag(ref),
                         out),
              0);
    ASSERT_EQ(svc.client("--submit --features german --n 3", out), 0);
    ASSERT_EQ(svc.client("--submit --features msi --system closed"
                         " --n 2",
                         out),
              0);
    // Kill the coordinator while job 1 is mid-exploration: its first
    // attempt holds, and has committed a checkpoint epoch.
    ASSERT_FALSE(awaitHeldAttempt(svc, 1, true).empty())
        << "job 1 never held a checkpointed first attempt";
    svc.stop(); // SIGKILL, no goodbye
    const std::string before = journalDump(svc);
    EXPECT_EQ(occurrences(before, "DONE job=1 "), 0u) << before;

    // Crash-only restart: same state dir, drain the queue, exit.
    const pid_t drainer = spawnNeoverify(
        {"--serve", svc.sock, "--state-dir", svc.dir + "/state",
         "--workers", "2", "--heartbeat", "100ms", "--backoff",
         "100ms", "--drain"},
        svc.dir + "/serve.log");
    ASSERT_GT(drainer, 0);
    int st = -1;
    ASSERT_EQ(::waitpid(drainer, &st, 0), drainer);
    ASSERT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0)
        << "drain exited " << st;

    // The journal is the ledger: every job DONE exactly once.
    const std::string dump = journalDump(svc);
    for (int jobId = 1; jobId <= 3; ++jobId) {
        const std::size_t count = occurrences(
            dump, "DONE job=" + std::to_string(jobId) + " ");
        EXPECT_EQ(count, 1u)
            << "job " << jobId << " finished " << count
            << " times\n" << dump;
    }
    // And the counts are still the exact sequential fixpoint.
    const std::string doneLine = journalLine(dump, "DONE job=1 ");
    ASSERT_FALSE(doneLine.empty()) << dump;
    EXPECT_EQ(scrapeCount(doneLine, "states"), ref.statesExplored);
    EXPECT_EQ(scrapeCount(doneLine, "transitions"),
              ref.transitionsFired);
}

TEST(Service, PoisonJobQuarantinesWithTheDedicatedExitCode)
{
    ServiceFixture svc("--workers 2 --retries 2 --backoff 50ms");
    std::string out;
    const int rc = svc.client("--submit --features german --n 4"
                              " --inject-crash-after 200 --wait 0",
                              out);
    svc.stop();
    EXPECT_EQ(rc, kExitQuarantined) << out;
    EXPECT_NE(out.find("QUARANTINED"), std::string::npos) << out;
}

TEST(Service, WaiterOutlivesRetryBackoffOnProgressPulses)
{
    // A job parked in exponential backoff has no attempt and thus no
    // ping rounds ticking progress; the coordinator must still pulse
    // its waiters, or a --net-timeout shorter than the backoff gap
    // expires against a perfectly healthy queue (exit 7 where the
    // truth is exit 6). Both gaps here (1.5 s, 3 s) dwarf the 700 ms
    // read deadline — only backoff-phase frames can keep it fed.
    ServiceFixture svc("--workers 2 --retries 3 --backoff 1500ms"
                       " --progress-every 200ms");
    std::string out;
    const int rc = svc.client("--submit --features german --n 4"
                              " --inject-crash-after 200"
                              " --wait 0 --net-timeout 700ms",
                              out);
    svc.stop();
    EXPECT_EQ(rc, kExitQuarantined) << out;
    EXPECT_NE(out.find("phase=backoff"), std::string::npos) << out;
    EXPECT_NE(out.find("QUARANTINED"), std::string::npos) << out;
}

TEST(Service, CancelledPendingJobReportsInterrupted)
{
    ServiceFixture svc("--workers 2");
    std::string out;
    // Big job first so the small one stays Pending long enough.
    ASSERT_EQ(svc.client("--submit --features german --n 5", out), 0);
    ASSERT_EQ(svc.client("--submit --features german --n 3", out), 0);
    ASSERT_EQ(svc.client("--cancel 2", out), 0) << out;
    const int rc = svc.client("--wait 2", out);
    svc.stop();
    EXPECT_EQ(rc, kExitInterrupted) << out;
    EXPECT_NE(out.find("CANCELLED"), std::string::npos) << out;
}

TEST(Service, ViolationVerdictTravelsBackToTheClient)
{
    ServiceFixture svc("--workers 3");
    std::string out;
    // nsmesi n=2 open/modified is the paper's composition failure: a
    // real violation, found distributed, must exit 1 like the CLI.
    const int rc = svc.client("--submit --features nsmesi --system "
                              "open --method modified --n 2 --wait 0",
                              out);
    svc.stop();
    EXPECT_EQ(rc, kExitViolation) << out;
    EXPECT_NE(out.find("INVARIANT VIOLATED"), std::string::npos)
        << out;
}

TEST(Service, SubmitRejectsUnknownModelAtTheDoor)
{
    ServiceFixture svc("--workers 2");
    std::string out;
    const int rc =
        svc.client("--submit --features bogus --wait 0", out);
    svc.stop();
    EXPECT_EQ(rc, kExitUsage) << out;
}

// ---------------------------------------------------------------
// Concurrent attempts (--max-jobs)
// ---------------------------------------------------------------

/** Per-job status scrape: the "states=N" on job @p id's RUNNING line
 *  (~0 when the job has no such line). */
std::uint64_t
runningStates(const std::string &status, int id)
{
    const std::string line = statusLine(status, id);
    if (line.find("RUNNING") == std::string::npos)
        return ~0ULL;
    return scrapeCount(line, "states");
}

TEST(Service, ConcurrentJobsInterleaveProgressAndBothFinishExactly)
{
    ServiceFixture svc("--workers 2 --max-jobs 2");
    std::string out;
    ASSERT_EQ(svc.client("--submit --features german --n 5", out), 0)
        << out;
    ASSERT_EQ(svc.client("--submit --features german --n 5", out), 0)
        << out;

    // Interleaving proof: one status snapshot showing BOTH attempts
    // mid-exploration (running, each with progress of its own).
    bool interleaved = false;
    for (int i = 0; i < 200 && !interleaved; ++i) {
        ASSERT_EQ(svc.client("--status", out), 0) << out;
        const std::uint64_t s1 = runningStates(out, 1);
        const std::uint64_t s2 = runningStates(out, 2);
        interleaved = s1 != ~0ULL && s2 != ~0ULL && s1 > 0 && s2 > 0;
        if (!interleaved)
            ::usleep(20 * 1000);
    }
    EXPECT_TRUE(interleaved)
        << "jobs never ran concurrently:\n" << out;

    ASSERT_EQ(svc.client("--wait 1", out), 0) << out;
    const ExploreResult ref = germanReference(5);
    EXPECT_EQ(scrapeCount(out, "states"), ref.statesExplored);
    EXPECT_EQ(scrapeCount(out, "transitions"), ref.transitionsFired);
    const int rc = svc.client("--wait 2", out);
    svc.stop();
    ASSERT_EQ(rc, 0) << out;
    EXPECT_EQ(scrapeCount(out, "states"), ref.statesExplored);
    EXPECT_EQ(scrapeCount(out, "transitions"), ref.transitionsFired);
}

TEST(Service, SigkilledCoordinatorWithConcurrentJobsReplaysExactlyOnce)
{
    ServiceFixture svc(
        "--workers 2 --max-jobs 2 --checkpoint-every 300ms");
    const ExploreResult ref5 = germanReference(5);
    const ExploreResult ref4 = germanReference(4);
    std::string out;
    ASSERT_EQ(svc.client("--submit --features german --n 5" +
                             parkFlag(ref5),
                         out),
              0);
    ASSERT_EQ(svc.client("--submit --features german --n 4" +
                             parkFlag(ref4),
                         out),
              0);
    ASSERT_EQ(svc.client("--submit --features msi --system closed"
                         " --n 2",
                         out),
              0);
    // Kill the coordinator while two attempts are live: both german
    // jobs hold their first attempt, job 1 past a committed epoch.
    ASSERT_FALSE(awaitHeldAttempt(svc, 1, true).empty())
        << "job 1 never held a checkpointed first attempt";
    ASSERT_FALSE(awaitHeldAttempt(svc, 2, false).empty())
        << "job 2 never ran beside job 1";
    svc.stop(); // SIGKILL, no goodbye
    const std::string before = journalDump(svc);
    EXPECT_EQ(occurrences(before, "DONE job=1 "), 0u) << before;
    EXPECT_EQ(occurrences(before, "DONE job=2 "), 0u) << before;

    const pid_t drainer = spawnNeoverify(
        {"--serve", svc.sock, "--state-dir", svc.dir + "/state",
         "--workers", "2", "--max-jobs", "2", "--heartbeat", "100ms",
         "--backoff", "100ms", "--drain"},
        svc.dir + "/serve.log");
    ASSERT_GT(drainer, 0);
    int st = -1;
    ASSERT_EQ(::waitpid(drainer, &st, 0), drainer);
    ASSERT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0)
        << "drain exited " << st;

    const std::string dump = journalDump(svc);
    for (int jobId = 1; jobId <= 3; ++jobId) {
        const std::size_t count = occurrences(
            dump, "DONE job=" + std::to_string(jobId) + " ");
        EXPECT_EQ(count, 1u)
            << "job " << jobId << " finished " << count << " times\n"
            << dump;
    }
    // Both interrupted attempts resume to the exact fixpoint.
    const std::string done1 = journalLine(dump, "DONE job=1 ");
    const std::string done2 = journalLine(dump, "DONE job=2 ");
    EXPECT_EQ(scrapeCount(done1, "states"), ref5.statesExplored);
    EXPECT_EQ(scrapeCount(done1, "transitions"), ref5.transitionsFired);
    EXPECT_EQ(scrapeCount(done2, "states"), ref4.statesExplored);
    EXPECT_EQ(scrapeCount(done2, "transitions"), ref4.transitionsFired);
}

TEST(Service, PoisonJobDoesNotStarveItsNeighbor)
{
    ServiceFixture svc(
        "--workers 2 --max-jobs 2 --retries 2 --backoff 50ms");
    std::string out;
    // Job 1 is deterministic poison: it crash-loops through its
    // retries. Job 2, admitted concurrently, must sail past it.
    ASSERT_EQ(svc.client("--submit --features german --n 4"
                         " --inject-crash-after 200",
                         out),
              0)
        << out;
    ASSERT_EQ(svc.client("--submit --features german --n 4", out), 0)
        << out;
    ASSERT_EQ(svc.client("--wait 2", out), 0) << out;
    const ExploreResult ref = germanReference(4);
    EXPECT_EQ(scrapeCount(out, "states"), ref.statesExplored);
    EXPECT_EQ(scrapeCount(out, "transitions"), ref.transitionsFired);
    const int rc = svc.client("--wait 1", out);
    svc.stop();
    EXPECT_EQ(rc, kExitQuarantined) << out;
    EXPECT_NE(out.find("QUARANTINED"), std::string::npos) << out;
}

TEST(Service, WaitStreamsProgressFrames)
{
    ServiceFixture svc("--workers 2 --progress-every 150ms");
    std::string out;
    const int rc = svc.client(
        "--submit --features german --n 5 --wait 0", out);
    svc.stop();
    ASSERT_EQ(rc, 0) << out;
    // At least one streamed progress line preceded the verdict, and
    // the progress spelling must never collide with the verdict's
    // exact "states=" counters that scrapers key on.
    EXPECT_NE(out.find("progress job=1 phase="), std::string::npos)
        << out;
    const ExploreResult ref = germanReference(5);
    EXPECT_EQ(scrapeCount(out, "states"), ref.statesExplored);
    EXPECT_EQ(scrapeCount(out, "transitions"), ref.transitionsFired);
}

TEST(Service, ConnectFailureUsesTheServiceUnavailableExit)
{
    const std::string cmd =
        std::string(NEOVERIFY_BIN) +
        " --sock /nonexistent/nowhere.sock --status >/dev/null 2>&1";
    const int st = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(st));
    EXPECT_EQ(WEXITSTATUS(st), kExitServiceUnavailable);
}

#endif // NEOVERIFY_BIN

} // namespace
