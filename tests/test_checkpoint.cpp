/**
 * @file
 * Crash-safety contract tests for the checkpoint/resume subsystem.
 *
 * The load-bearing property is DIFFERENTIAL: for every exploration
 * mode (sequential BFS, parallel at 2/4/8 threads, random
 * walks, parametric sweep) a run that is killed mid-flight and then
 * resumed — possibly several times — must reach the exact fixpoint of
 * an uninterrupted reference run: same status, state/transition
 * counts, per-rule fire counts, violated invariant. Cross-mode resume
 * (a sequential snapshot picked up by the parallel explorer and vice
 * versa) is part of the contract, because the snapshot layout is
 * canonical.
 *
 * The other half is REJECTION: a truncated, bit-flipped, wrong-mode
 * or wrong-model snapshot must be refused with a precise error (and a
 * clean usage-error exit when it happens under --resume), never
 * silently decoded into a wrong answer.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "verif/checkpoint.hpp"
#include "verif/explorer.hpp"
#include "verif/models/flat_closed.hpp"
#include "verif/models/flat_open.hpp"
#include "verif/models/german.hpp"
#include "verif/models/mutants.hpp"
#include "verif/parametric.hpp"
#include "verif/random_walk.hpp"
#include "view_oracle.hpp"

using namespace neo;
using namespace neo::verif;

namespace
{

constexpr unsigned kThreadCounts[] = {2, 4, 8};

/** Self-deleting checkpoint directory. */
class TempDir
{
  public:
    TempDir()
    {
        char tmpl[] = "/tmp/neo_ckpt_XXXXXX";
        const char *d = mkdtemp(tmpl);
        EXPECT_NE(d, nullptr);
        path_ = d != nullptr ? d : "";
    }
    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Guard against interrupt-flag leakage between tests. */
class CheckpointTest : public ::testing::Test
{
  protected:
    void SetUp() override { clearInterruptRequest(); }
    void TearDown() override { clearInterruptRequest(); }
};

/**
 * Run an exploration that interrupts itself after the on_state
 * callback has fired `interruptAfter[round]` times in that round
 * (restored states replay through the callback, so later thresholds
 * must exceed earlier ones to make progress), then keeps resuming
 * until the run completes. Returns the final result.
 */
ExploreResult
runInterruptedChain(const TransitionSystem &ts, ExploreLimits lim,
                    const std::string &dir,
                    const std::vector<std::uint64_t> &interruptAfter,
                    std::uint64_t *roundsOut = nullptr)
{
    CheckpointConfig cfg;
    cfg.dir = dir;
    ExploreResult r;
    std::uint64_t round = 0;
    for (;; ++round) {
        // Bound the loop: thresholds strictly increase, and the final
        // round (past the vector) never interrupts.
        if (round > interruptAfter.size() + 2) {
            ADD_FAILURE() << "interrupt chain made no progress";
            break;
        }
        clearInterruptRequest();
        cfg.resume = round > 0;
        lim.checkpoint = &cfg;
        const std::uint64_t thresh =
            round < interruptAfter.size()
                ? interruptAfter[round]
                : std::numeric_limits<std::uint64_t>::max();
        std::atomic<std::uint64_t> seen{0};
        r = explore(ts, lim, false, true, [&](const VState &) {
            if (seen.fetch_add(1, std::memory_order_relaxed) + 1 >=
                thresh)
                requestInterrupt();
        });
        if (r.status != VerifStatus::Interrupted)
            break;
        EXPECT_TRUE(snapshotExists(exploreSnapshotPath(cfg)))
            << "interrupted run left no snapshot";
    }
    clearInterruptRequest();
    if (roundsOut != nullptr)
        *roundsOut = round;
    return r;
}

void
expectSameFixpoint(const ExploreResult &got, const ExploreResult &ref)
{
    EXPECT_EQ(got.status, ref.status)
        << verifStatusName(got.status) << " vs "
        << verifStatusName(ref.status);
    EXPECT_EQ(got.statesExplored, ref.statesExplored);
    EXPECT_EQ(got.transitionsFired, ref.transitionsFired);
    EXPECT_EQ(got.ruleFires, ref.ruleFires);
    EXPECT_EQ(got.violatedInvariant, ref.violatedInvariant);
}

} // namespace

// ----------------------------------------------------------------
// Tentpole contract: kill-then-resume reaches the identical fixpoint
// on every bundled model, sequentially and at every thread count.
// ----------------------------------------------------------------

TEST_F(CheckpointTest, SequentialKillResumeAllModels)
{
    struct Named
    {
        std::string name;
        TransitionSystem ts;
    };
    std::vector<Named> models;
    {
        ModelShape shape;
        models.push_back({"german/N=3", buildGermanModel(3, shape)});
    }
    {
        ModelShape shape;
        models.push_back(
            {"closed/neomesi/N=3",
             buildClosedModel(3, VerifFeatures::neoMESI(), shape)});
    }
    {
        ModelShape shape;
        models.push_back(
            {"closed/moesi/N=3",
             buildClosedModel(3, VerifFeatures::withOwned(), shape)});
    }
    {
        ModelShape shape;
        models.push_back(
            {"open/neomesi/N=3",
             buildOpenModel(3, VerifFeatures::neoMESI(),
                            CompositionMethod::Modified, shape)});
    }

    const ExploreLimits lim{2'000'000, 120.0};
    for (const Named &m : models) {
        SCOPED_TRACE(m.name);
        const ExploreResult ref = explore(m.ts, lim, false, true);
        ASSERT_EQ(ref.status, VerifStatus::Verified);

        TempDir dir;
        const std::uint64_t s = ref.statesExplored;
        const ExploreResult got = runInterruptedChain(
            m.ts, lim, dir.path(), {s / 3, (2 * s) / 3});
        expectSameFixpoint(got, ref);
        EXPECT_TRUE(got.resumed);
        // A completed run cleans up after itself.
        CheckpointConfig cfg;
        cfg.dir = dir.path();
        EXPECT_FALSE(snapshotExists(exploreSnapshotPath(cfg)));
    }
}

TEST_F(CheckpointTest, ParallelKillResumeEveryThreadCount)
{
    ModelShape shape;
    const TransitionSystem ts =
        buildClosedModel(3, VerifFeatures::neoMESI(), shape);
    const ExploreLimits lim{2'000'000, 120.0};
    const ExploreResult ref = explore(ts, lim, false, true);
    ASSERT_EQ(ref.status, VerifStatus::Verified);

    for (unsigned t : kThreadCounts) {
        SCOPED_TRACE("threads=" + std::to_string(t));
        TempDir dir;
        ExploreLimits plim = lim;
        plim.threads = t;
        const std::uint64_t s = ref.statesExplored;
        const ExploreResult got = runInterruptedChain(
            ts, plim, dir.path(), {s / 3, (2 * s) / 3});
        expectSameFixpoint(got, ref);
    }
}

TEST_F(CheckpointTest, CrossModeResume)
{
    // The canonical snapshot layout makes mode a runtime choice: a
    // sequential snapshot resumes on the parallel explorer and vice
    // versa, and even the thread count may change between resumes.
    ModelShape shape;
    const TransitionSystem ts = buildGermanModel(4, shape);
    const ExploreLimits lim{2'000'000, 120.0};
    const ExploreResult ref = explore(ts, lim, false, true);
    ASSERT_EQ(ref.status, VerifStatus::Verified);
    const std::uint64_t s = ref.statesExplored;

    struct Leg
    {
        unsigned threads;
        std::uint64_t interruptAfter; // 0 = run to completion
    };
    const std::vector<std::vector<Leg>> schedules = {
        {{1, s / 3}, {4, 0}},          // seq snapshot -> parallel
        {{4, s / 3}, {1, 0}},          // parallel snapshot -> seq
        {{2, s / 4}, {8, s / 2}, {1, 0}}, // mixed chain
    };
    for (std::size_t k = 0; k < schedules.size(); ++k) {
        SCOPED_TRACE("schedule " + std::to_string(k));
        TempDir dir;
        CheckpointConfig cfg;
        cfg.dir = dir.path();
        ExploreResult r;
        for (std::size_t leg = 0; leg < schedules[k].size(); ++leg) {
            clearInterruptRequest();
            const Leg &L = schedules[k][leg];
            cfg.resume = leg > 0;
            ExploreLimits l = lim;
            l.threads = L.threads;
            l.checkpoint = &cfg;
            std::atomic<std::uint64_t> seen{0};
            const std::uint64_t thresh =
                L.interruptAfter == 0
                    ? std::numeric_limits<std::uint64_t>::max()
                    : L.interruptAfter;
            r = explore(ts, l, false, true, [&](const VState &) {
                if (seen.fetch_add(1, std::memory_order_relaxed) +
                        1 >=
                    thresh)
                    requestInterrupt();
            });
            if (L.interruptAfter == 0)
                break;
            ASSERT_EQ(r.status, VerifStatus::Interrupted);
        }
        clearInterruptRequest();
        expectSameFixpoint(r, ref);
    }
}

TEST_F(CheckpointTest, SequentialResumeReproducesViolationAndTrace)
{
    // Sequential BFS preserves the frontier order across a snapshot,
    // so even the counterexample trace is bit-identical on resume.
    VerifFeatures f = VerifFeatures::neoMESI();
    f.nonSiblingFwd = true;
    ModelShape shape;
    const TransitionSystem ts =
        buildOpenModel(2, f, CompositionMethod::Modified, shape);
    const ExploreLimits lim{2'000'000, 120.0};
    const ExploreResult ref = explore(ts, lim, false, true);
    ASSERT_EQ(ref.status, VerifStatus::InvariantViolated);

    TempDir dir;
    const ExploreResult got = runInterruptedChain(
        ts, lim, dir.path(), {ref.statesExplored / 2});
    EXPECT_EQ(got.status, VerifStatus::InvariantViolated);
    EXPECT_EQ(got.violatedInvariant, ref.violatedInvariant);
    EXPECT_EQ(got.trace, ref.trace);
    EXPECT_EQ(got.badState, ref.badState);
    // Violations are definitive: the snapshot must be gone.
    CheckpointConfig cfg;
    cfg.dir = dir.path();
    EXPECT_FALSE(snapshotExists(exploreSnapshotPath(cfg)));
}

TEST_F(CheckpointTest, PeriodicSnapshotsAreWrittenAndCleanedUp)
{
    ModelShape shape;
    const TransitionSystem ts = buildGermanModel(4, shape);
    TempDir dir;
    CheckpointConfig cfg;
    cfg.dir = dir.path();
    // German N=4 explores for tens of ms plain (seconds under a
    // sanitizer); a 10 ms cadence gives several periodic snapshots
    // either way, and the snapshots are small enough (~1 MB) that
    // the serialization + fsync work stays far inside the bound.
    cfg.everySeconds = 0.01;
    ExploreLimits lim{2'000'000, 600.0};
    lim.checkpoint = &cfg;
    const ExploreResult r = explore(ts, lim, false, true);
    EXPECT_EQ(r.status, VerifStatus::Verified);
    EXPECT_GE(r.checkpointsWritten, 2u);
    EXPECT_GT(r.lastSnapshotBytes, 0u);
    EXPECT_FALSE(snapshotExists(exploreSnapshotPath(cfg)));
}

// ----------------------------------------------------------------
// Snapshot rejection: corruption, truncation, wrong mode/model.
// ----------------------------------------------------------------

namespace
{

/** Interrupt a run immediately to produce a small valid snapshot. */
std::string
makeExploreSnapshot(const TransitionSystem &ts, const std::string &dir)
{
    CheckpointConfig cfg;
    cfg.dir = dir;
    ExploreLimits lim{2'000'000, 120.0};
    lim.checkpoint = &cfg;
    std::atomic<std::uint64_t> seen{0};
    const ExploreResult r =
        explore(ts, lim, false, true, [&](const VState &) {
            if (seen.fetch_add(1, std::memory_order_relaxed) >= 20)
                requestInterrupt();
        });
    clearInterruptRequest();
    EXPECT_EQ(r.status, VerifStatus::Interrupted);
    return exploreSnapshotPath(cfg);
}

std::vector<char>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

void
spit(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

} // namespace

TEST_F(CheckpointTest, CorruptAndTruncatedSnapshotsAreRejected)
{
    ModelShape shape;
    const TransitionSystem ts = buildGermanModel(3, shape);
    const std::uint64_t fp = modelFingerprint(ts);
    TempDir dir;
    const std::string path = makeExploreSnapshot(ts, dir.path());
    const std::vector<char> good = slurp(path);
    ASSERT_GT(good.size(), 64u);

    std::vector<std::uint8_t> payload;
    std::string err;
    ASSERT_TRUE(readSnapshotFile(path, SnapshotKind::Explore, fp,
                                 payload, err))
        << err;

    // Bit flip inside the payload -> payload CRC mismatch.
    {
        std::vector<char> bad = good;
        bad[bad.size() - 5] ^= 0x40;
        spit(path, bad);
        EXPECT_FALSE(readSnapshotFile(path, SnapshotKind::Explore, fp,
                                      payload, err));
        EXPECT_NE(err.find("CRC mismatch"), std::string::npos) << err;
    }
    // Truncated payload.
    {
        std::vector<char> bad = good;
        bad.resize(good.size() - 16);
        spit(path, bad);
        EXPECT_FALSE(readSnapshotFile(path, SnapshotKind::Explore, fp,
                                      payload, err));
        EXPECT_NE(err.find("truncated"), std::string::npos) << err;
    }
    // Truncated mid-header.
    {
        std::vector<char> bad = good;
        bad.resize(10);
        spit(path, bad);
        EXPECT_FALSE(readSnapshotFile(path, SnapshotKind::Explore, fp,
                                      payload, err));
    }
    // Wrong magic.
    {
        std::vector<char> bad = good;
        bad[0] = 'X';
        spit(path, bad);
        EXPECT_FALSE(readSnapshotFile(path, SnapshotKind::Explore, fp,
                                      payload, err));
        EXPECT_NE(err.find("bad magic"), std::string::npos) << err;
    }
    // Restore the good bytes: wrong mode and wrong model are rejected
    // even with intact CRCs.
    spit(path, good);
    EXPECT_FALSE(
        readSnapshotFile(path, SnapshotKind::Walk, fp, payload, err));
    EXPECT_NE(err.find("different exploration mode"),
              std::string::npos)
        << err;
    EXPECT_FALSE(readSnapshotFile(path, SnapshotKind::Explore,
                                  fp ^ 0xdeadbeef, payload, err));
    EXPECT_NE(err.find("different model"), std::string::npos) << err;
}

TEST_F(CheckpointTest, ResumeOfCorruptSnapshotDiesWithUsageError)
{
    ModelShape shape;
    const TransitionSystem ts = buildGermanModel(3, shape);
    TempDir dir;
    const std::string path = makeExploreSnapshot(ts, dir.path());
    std::vector<char> bad = slurp(path);
    bad[bad.size() - 5] ^= 0x40;
    spit(path, bad);

    CheckpointConfig cfg;
    cfg.dir = dir.path();
    cfg.resume = true;
    ExploreLimits lim{2'000'000, 120.0};
    lim.checkpoint = &cfg;
    EXPECT_EXIT(explore(ts, lim, false, true),
                ::testing::ExitedWithCode(2),
                "cannot resume.*CRC mismatch");
}

TEST_F(CheckpointTest, ResumeAgainstDifferentModelIsRejected)
{
    ModelShape shape;
    const TransitionSystem german = buildGermanModel(3, shape);
    TempDir dir;
    makeExploreSnapshot(german, dir.path());

    ModelShape shape2;
    const TransitionSystem other =
        buildClosedModel(3, VerifFeatures::neoMESI(), shape2);
    CheckpointConfig cfg;
    cfg.dir = dir.path();
    cfg.resume = true;
    ExploreLimits lim{2'000'000, 120.0};
    lim.checkpoint = &cfg;
    EXPECT_EXIT(explore(other, lim, false, true),
                ::testing::ExitedWithCode(2),
                "cannot resume.*different model");
}

namespace
{

/** Rewrite the header's version field of the snapshot at @p path and
 *  recompute the header CRC, so only the version check can refuse
 *  the file. Header: magic(8) version(4) kind(4) fingerprint(8)
 *  payloadSize(8) payloadCrc(4), then the CRC of those 36 bytes. */
void
patchSnapshotVersion(const std::string &path, std::uint32_t version)
{
    constexpr std::size_t kHeaderBody = 36;
    std::vector<char> bytes = slurp(path);
    ASSERT_GT(bytes.size(), kHeaderBody + 4);
    auto *raw = reinterpret_cast<std::uint8_t *>(bytes.data());
    auto putLE32 = [](std::uint8_t *p, std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    };
    putLE32(raw + 8, version);
    putLE32(raw + kHeaderBody, crc32(raw, kHeaderBody));
    spit(path, bytes);
}

} // namespace

TEST_F(CheckpointTest, VersionTwoSnapshotIsRefused)
{
    // Version 2 was the hash-compaction layout. Nothing writes it any
    // more: a version-2 file is refused on its header, with intact
    // CRCs, before any payload byte is decoded — by the reader and by
    // a resume on either engine.
    ModelShape shape;
    const TransitionSystem ts = buildGermanModel(3, shape);
    TempDir dir;
    const std::string path = makeExploreSnapshot(ts, dir.path());
    patchSnapshotVersion(path, 2);

    std::vector<std::uint8_t> payload;
    std::string err;
    EXPECT_FALSE(readSnapshotFile(path, SnapshotKind::Explore,
                                  modelFingerprint(ts), payload, err));
    EXPECT_NE(err.find("unsupported snapshot version 2"),
              std::string::npos)
        << err;
    EXPECT_TRUE(payload.empty());

    CheckpointConfig cfg;
    cfg.dir = dir.path();
    cfg.resume = true;
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ExploreLimits lim{2'000'000, 120.0};
        lim.threads = threads;
        lim.checkpoint = &cfg;
        EXPECT_EXIT(explore(ts, lim, false, true),
                    ::testing::ExitedWithCode(2),
                    "cannot resume.*unsupported snapshot version 2");
    }
}

TEST_F(CheckpointTest, WriteFailureIsReportedNotFatal)
{
    // Writing into a directory that cannot be created fails cleanly
    // with an error message (the explorers warn and keep exploring).
    SnapshotWriter w;
    w.putU64(42);
    std::string err;
    EXPECT_FALSE(writeSnapshotFile("/dev/null/nope/snap.ckpt",
                                   SnapshotKind::Explore, 1,
                                   w.buffer(), err));
    EXPECT_FALSE(err.empty());
}

// ----------------------------------------------------------------
// Memory-pressure degradation (graceful, not fatal).
// ----------------------------------------------------------------

namespace
{

/** Linear chain: len+1 states, frontier width 1, numVars 1 — the
 *  memory estimate is a closed-form function of the state count, so
 *  byte-precise bounds are deterministic. */
TransitionSystem
chainSystem(std::uint8_t len)
{
    TransitionSystem ts;
    const auto x = ts.addVar("x", 0);
    ts.addRule(
        "inc", ActionKind::Internal,
        [x, len](const VState &s) { return s[x] < len; },
        [x](VState &s) { ++s[x]; });
    ts.addInvariant("True", [](const VState &) { return true; });
    return ts;
}

} // namespace

TEST_F(CheckpointTest, MemoryPressureShedsTraceAndCompletes)
{
    const TransitionSystem ts = chainSystem(200);
    // Small maxStates keeps the pre-sized tables small, so the
    // budgets below are dominated by per-state growth, not the
    // standing table allocation.
    const ExploreLimits ref_lim{1'024, 60.0};

    // The budget is derived from two reference fixpoints rather than
    // a magic byte count: halfway between the traced and untraced
    // footprints, so the traced estimate must overflow the bound
    // mid-run while the degraded (no predecessor links) estimate of
    // the full fixpoint fits. The run must shed links, keep going,
    // and verify with exact counts.
    TempDir refDir;
    CheckpointConfig refCfg;
    refCfg.dir = refDir.path();
    ExploreLimits refCk = ref_lim;
    refCk.checkpoint = &refCfg;
    const ExploreResult ref = explore(ts, refCk, false, true);
    ASSERT_EQ(ref.status, VerifStatus::Verified);
    ASSERT_EQ(ref.statesExplored, 201u);
    const ExploreResult refBare = explore(ts, refCk, false, false);
    ASSERT_EQ(refBare.status, VerifStatus::Verified);
    ASSERT_LT(refBare.memoryBytes, ref.memoryBytes);

    TempDir dir;
    CheckpointConfig cfg;
    cfg.dir = dir.path();
    ExploreLimits lim = ref_lim;
    lim.checkpoint = &cfg;
    lim.maxMemoryBytes =
        (ref.memoryBytes + refBare.memoryBytes) / 2;
    const ExploreResult r = explore(ts, lim, false, true);
    EXPECT_EQ(r.status, VerifStatus::Verified);
    EXPECT_TRUE(r.degradedTrace);
    EXPECT_GE(r.checkpointsWritten, 1u); // pre-degrade snapshot
    expectSameFixpoint(r, ref);
}

TEST_F(CheckpointTest, MemoryExhaustionKeepsSnapshotForResume)
{
    const TransitionSystem ts = chainSystem(200);
    const ExploreLimits ref_lim{1'024, 60.0};
    const ExploreResult ref = explore(ts, ref_lim, false, true);
    ASSERT_EQ(ref.status, VerifStatus::Verified);

    // Bound below even the degraded footprint (half the untraced
    // fixpoint's estimate): the run checkpoints, degrades,
    // checkpoints again and reports LimitExceeded — and the snapshot
    // survives so a retry with a bigger budget resumes instead of
    // starting over.
    const ExploreResult refBare = explore(ts, ref_lim, false, false);
    ASSERT_EQ(refBare.status, VerifStatus::Verified);
    TempDir dir;
    CheckpointConfig cfg;
    cfg.dir = dir.path();
    ExploreLimits lim = ref_lim;
    lim.checkpoint = &cfg;
    lim.maxMemoryBytes = refBare.memoryBytes / 2;
    ASSERT_GT(lim.maxMemoryBytes, 0u);
    const ExploreResult r = explore(ts, lim, false, true);
    EXPECT_EQ(r.status, VerifStatus::LimitExceeded);
    EXPECT_TRUE(r.degradedTrace);
    EXPECT_TRUE(snapshotExists(exploreSnapshotPath(cfg)));

    cfg.resume = true;
    lim.maxMemoryBytes = 0;
    const ExploreResult r2 = explore(ts, lim, false, true);
    EXPECT_TRUE(r2.resumed);
    EXPECT_TRUE(r2.degradedTrace); // links were lost for good
    expectSameFixpoint(r2, ref);
}

TEST_F(CheckpointTest, MemoryBoundHonoredWithinFivePercent)
{
    // With tracing off (so no degrade step blurs the boundary), the
    // estimate at the fixpoint defines the budget exactly: 5% above
    // it verifies, 5% below trips the bound — in both modes. The
    // small maxStates keeps the pre-sized tables a minority of the
    // footprint, so the ±5% band genuinely exercises the per-state
    // accounting.
    const TransitionSystem ts = chainSystem(200);
    for (unsigned threads : {1u, 2u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        TempDir dir;
        CheckpointConfig cfg;
        cfg.dir = dir.path();
        ExploreLimits lim{1'024, 60.0};
        lim.threads = threads;
        lim.checkpoint = &cfg;
        const ExploreResult free = explore(ts, lim, false, false);
        ASSERT_EQ(free.status, VerifStatus::Verified);
        ASSERT_GT(free.memoryBytes, 0u);

        ExploreLimits over = lim;
        over.maxMemoryBytes = free.memoryBytes * 105 / 100;
        EXPECT_EQ(explore(ts, over, false, false).status,
                  VerifStatus::Verified);

        ExploreLimits under = lim;
        under.maxMemoryBytes = free.memoryBytes * 95 / 100;
        EXPECT_EQ(explore(ts, under, false, false).status,
                  VerifStatus::LimitExceeded);
    }
}

// ----------------------------------------------------------------
// Random-walk checkpoint/resume.
// ----------------------------------------------------------------

TEST_F(CheckpointTest, WalkImmediateInterruptThenResumeMatches)
{
    ModelShape shape;
    const TransitionSystem ts =
        buildClosedModel(3, VerifFeatures::neoMESI(), shape);
    WalkOptions wopt;
    wopt.walks = 64;
    wopt.depth = 128;
    wopt.seed = 7;
    wopt.threads = 4;
    const WalkResult ref = walkExplore(ts, wopt);
    ASSERT_EQ(ref.status, VerifStatus::Verified);

    TempDir dir;
    CheckpointConfig cfg;
    cfg.dir = dir.path();
    WalkOptions copt = wopt;
    copt.checkpoint = &cfg;

    // Deterministic: the interrupt is already pending, so no walk
    // completes before the snapshot.
    requestInterrupt();
    const WalkResult r1 = walkExplore(ts, copt);
    clearInterruptRequest();
    EXPECT_EQ(r1.status, VerifStatus::Interrupted);
    EXPECT_TRUE(snapshotExists(walkSnapshotPath(cfg)));

    cfg.resume = true;
    const WalkResult r2 = walkExplore(ts, copt);
    EXPECT_TRUE(r2.resumed);
    EXPECT_EQ(r2.status, ref.status);
    EXPECT_EQ(r2.stepsTaken, ref.stepsTaken);
    EXPECT_EQ(r2.walksRun, ref.walksRun);
    EXPECT_EQ(r2.deadEnds, ref.deadEnds);
    EXPECT_FALSE(snapshotExists(walkSnapshotPath(cfg)));
}

TEST_F(CheckpointTest, WalkMidRunInterruptThenResumeMatches)
{
    ModelShape shape;
    const TransitionSystem ts =
        buildClosedModel(3, VerifFeatures::neoMESI(), shape);
    WalkOptions wopt;
    wopt.walks = 512;
    wopt.depth = 256;
    wopt.seed = 11;
    wopt.threads = 4;
    const WalkResult ref = walkExplore(ts, wopt);
    ASSERT_EQ(ref.status, VerifStatus::Verified);

    TempDir dir;
    CheckpointConfig cfg;
    cfg.dir = dir.path();
    WalkOptions copt = wopt;
    copt.checkpoint = &cfg;

    // Race a SIGTERM-equivalent against the run; wherever it lands —
    // even after the finish line — the chain below converges on the
    // reference totals because completed walks never recount.
    std::thread killer([] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        requestInterrupt();
    });
    WalkResult r = walkExplore(ts, copt);
    killer.join();
    clearInterruptRequest();

    int guard = 0;
    while (r.status == VerifStatus::Interrupted && guard++ < 8) {
        cfg.resume = true;
        r = walkExplore(ts, copt);
    }
    ASSERT_NE(r.status, VerifStatus::Interrupted);
    EXPECT_EQ(r.status, ref.status);
    EXPECT_EQ(r.stepsTaken, ref.stepsTaken);
    EXPECT_EQ(r.walksRun, ref.walksRun);
    EXPECT_EQ(r.deadEnds, ref.deadEnds);
}

TEST_F(CheckpointTest, WalkResumeReproducesMutantViolation)
{
    const Mutant *m = findMutant("leaf_silent_upgrade");
    ASSERT_NE(m, nullptr);
    ModelShape shape;
    const TransitionSystem ts = m->build(shape);
    WalkOptions wopt;
    wopt.walks = m->budgetWalks;
    wopt.depth = m->budgetDepth;
    wopt.seed = m->budgetSeed;
    wopt.threads = 2;
    const WalkResult ref = walkExplore(ts, wopt);
    ASSERT_EQ(ref.status, VerifStatus::InvariantViolated);

    TempDir dir;
    CheckpointConfig cfg;
    cfg.dir = dir.path();
    WalkOptions copt = wopt;
    copt.checkpoint = &cfg;
    requestInterrupt();
    WalkResult r = walkExplore(ts, copt);
    clearInterruptRequest();
    ASSERT_EQ(r.status, VerifStatus::Interrupted);

    cfg.resume = true;
    r = walkExplore(ts, copt);
    EXPECT_EQ(r.status, VerifStatus::InvariantViolated);
    EXPECT_EQ(r.walkIndex, ref.walkIndex);
    EXPECT_EQ(r.violatedInvariant, ref.violatedInvariant);
    EXPECT_EQ(r.trace, ref.trace);
}

TEST_F(CheckpointTest, WalkResumeRejectsChangedSeedOrDepth)
{
    ModelShape shape;
    const TransitionSystem ts =
        buildClosedModel(2, VerifFeatures::neoMESI(), shape);
    TempDir dir;
    CheckpointConfig cfg;
    cfg.dir = dir.path();
    WalkOptions wopt;
    wopt.walks = 32;
    wopt.depth = 64;
    wopt.seed = 3;
    wopt.checkpoint = &cfg;
    requestInterrupt();
    const WalkResult r = walkExplore(ts, wopt);
    clearInterruptRequest();
    ASSERT_EQ(r.status, VerifStatus::Interrupted);

    cfg.resume = true;
    WalkOptions badSeed = wopt;
    badSeed.seed = 4;
    EXPECT_EXIT(walkExplore(ts, badSeed),
                ::testing::ExitedWithCode(2),
                "cannot resume.*--seed");
    WalkOptions badDepth = wopt;
    badDepth.depth = 65;
    EXPECT_EXIT(walkExplore(ts, badDepth),
                ::testing::ExitedWithCode(2),
                "cannot resume.*--depth");
}

// ----------------------------------------------------------------
// Parametric-sweep checkpoint/resume.
// ----------------------------------------------------------------

TEST_F(CheckpointTest, SweepKillResumeConvergesIdentically)
{
    const ExploreLimits lim{2'000'000, 120.0};
    const ParametricResult ref =
        verifyParametric(germanModelFactory(), 1, 5, lim);
    ASSERT_TRUE(ref.converged);

    TempDir dir;
    CheckpointConfig cfg;
    cfg.dir = dir.path();
    ExploreLimits clim = lim;
    clim.checkpoint = &cfg;

    // Interrupt mid-sweep (the timer usually lands inside one of the
    // larger instances); resume until the sweep finishes.
    std::thread killer([] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        requestInterrupt();
    });
    ParametricResult r =
        verifyParametric(germanModelFactory(), 1, 5, clim);
    killer.join();
    clearInterruptRequest();

    int guard = 0;
    while (r.status == VerifStatus::Interrupted && guard++ < 8) {
        cfg.resume = true;
        r = verifyParametric(germanModelFactory(), 1, 5, clim);
    }
    ASSERT_NE(r.status, VerifStatus::Interrupted);
    EXPECT_EQ(r.status, ref.status);
    EXPECT_EQ(r.converged, ref.converged);
    EXPECT_EQ(r.cutoff, ref.cutoff);
    EXPECT_EQ(r.instanceSizes, ref.instanceSizes);
    EXPECT_EQ(r.abstractSetSizes, ref.abstractSetSizes);
    ASSERT_EQ(r.perInstance.size(), ref.perInstance.size());
    for (std::size_t i = 0; i < ref.perInstance.size(); ++i) {
        EXPECT_EQ(r.perInstance[i].statesExplored,
                  ref.perInstance[i].statesExplored);
        EXPECT_EQ(r.perInstance[i].transitionsFired,
                  ref.perInstance[i].transitionsFired);
    }
    // Converged sweeps leave no snapshots behind.
    EXPECT_FALSE(snapshotExists(sweepSnapshotPath(cfg)));
    EXPECT_FALSE(snapshotExists(exploreSnapshotPath(cfg)));
}

TEST_F(CheckpointTest, SweepImmediateInterruptResumesFromScratch)
{
    const ExploreLimits lim{2'000'000, 120.0};
    const ParametricResult ref =
        verifyParametric(germanModelFactory(), 1, 5, lim);

    TempDir dir;
    CheckpointConfig cfg;
    cfg.dir = dir.path();
    ExploreLimits clim = lim;
    clim.checkpoint = &cfg;
    requestInterrupt();
    ParametricResult r =
        verifyParametric(germanModelFactory(), 1, 5, clim);
    clearInterruptRequest();
    // The pending signal either stops the sweep before instance 1 or
    // inside it; both leave a resumable snapshot trail.
    ASSERT_EQ(r.status, VerifStatus::Interrupted);
    EXPECT_TRUE(snapshotExists(sweepSnapshotPath(cfg)) ||
                snapshotExists(exploreSnapshotPath(cfg)));

    cfg.resume = true;
    r = verifyParametric(germanModelFactory(), 1, 5, clim);
    EXPECT_EQ(r.status, ref.status);
    EXPECT_EQ(r.converged, ref.converged);
    EXPECT_EQ(r.cutoff, ref.cutoff);
    EXPECT_EQ(r.abstractSetSizes, ref.abstractSetSizes);
}

TEST_F(CheckpointTest, SweepSnapshotKeepsTheViewEncoding)
{
    // German N=3 has 5,107 states and N=4 28,499: a 10,000-state cap
    // stops the sweep inside N=4 and keeps a snapshot holding N=3's
    // views. Uncapped, the sweep converges at N=4 (cutoff 3).
    TempDir dir;
    CheckpointConfig cfg;
    cfg.dir = dir.path();
    ExploreLimits lim{10'000, 120.0};
    lim.checkpoint = &cfg;
    const ParametricResult cut =
        verifyParametric(germanModelFactory(), 1, 5, lim);
    ASSERT_EQ(cut.status, VerifStatus::LimitExceeded) << cut.detail;
    ASSERT_TRUE(snapshotExists(sweepSnapshotPath(cfg)));

    // The reference projection of every N=3 state, in std::set order.
    ModelShape shape;
    const TransitionSystem ts3 = buildGermanModel(3, shape);
    test::OracleViews oracle;
    explore(ts3, ExploreLimits{100'000, 60.0}, false, true,
            [&](const VState &s) {
                test::collectViews(s, shape, 2, oracle);
            });
    ASSERT_EQ(oracle.size(), 1'336u);

    ModelShape shape1;
    std::vector<std::uint8_t> payload;
    std::string err;
    ASSERT_TRUE(readSnapshotFile(
        sweepSnapshotPath(cfg), SnapshotKind::Sweep,
        modelFingerprint(germanModelFactory()(1, shape1)), payload,
        err))
        << err;
    SnapshotReader r(payload);
    EXPECT_EQ(r.getU32(), 2u); // saturation
    EXPECT_EQ(r.getU64(), 1u); // from
    EXPECT_EQ(r.getU64(), 5u); // to
    r.getF64();                // elapsed seconds
    const std::uint64_t nInst = r.getU64();
    ASSERT_EQ(nInst, 3u);
    const std::uint64_t kViews[] = {79, 907, 1'336};
    for (std::uint64_t i = 0; i < nInst; ++i) {
        EXPECT_EQ(r.getU64(), i + 1); // N
        EXPECT_EQ(r.getU64(), kViews[i]);
        for (int f = 0; f < 3; ++f)
            r.getU64(); // states, transitions, memory
        r.getF64();     // seconds
        const std::uint64_t fires = r.getU64();
        for (std::uint64_t f = 0; f < fires; ++f)
            r.getU64();
    }
    // The view section, record for record: length, then the bytes.
    ASSERT_EQ(r.getU64(), oracle.size());
    for (const test::ViewBytes &want : oracle) {
        ASSERT_EQ(r.getU64(), want.size());
        test::ViewBytes got(want.size());
        ASSERT_TRUE(r.getBytes(got.data(), got.size()));
        ASSERT_EQ(got, want);
    }
    EXPECT_TRUE(r.atEnd());

    // Resuming re-encodes those views and finishes the sweep.
    cfg.resume = true;
    lim.maxStates = 2'000'000;
    const ParametricResult done =
        verifyParametric(germanModelFactory(), 1, 5, lim);
    EXPECT_EQ(done.status, VerifStatus::Verified) << done.detail;
    EXPECT_TRUE(done.resumed);
    EXPECT_EQ(done.restoredInstances, 3u);
    EXPECT_TRUE(done.converged);
    EXPECT_EQ(done.cutoff, 3u);
    EXPECT_EQ(done.abstractSetSizes,
              (std::vector<std::size_t>{79, 907, 1'336, 1'336}));
    EXPECT_FALSE(snapshotExists(sweepSnapshotPath(cfg)));
}

// ----------------------------------------------------------------
// Serialization primitives.
// ----------------------------------------------------------------

TEST_F(CheckpointTest, WriterReaderRoundTrip)
{
    SnapshotWriter w;
    w.putU8(0xab);
    w.putU32(0xdeadbeef);
    w.putU64(0x0123456789abcdefULL);
    w.putF64(3.25);
    const VState s = {1, 2, 3, 4};
    w.putState(s);

    SnapshotReader r(w.buffer());
    EXPECT_EQ(r.getU8(), 0xab);
    EXPECT_EQ(r.getU32(), 0xdeadbeefu);
    EXPECT_EQ(r.getU64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.getF64(), 3.25);
    VState s2;
    EXPECT_TRUE(r.getState(4, s2));
    EXPECT_EQ(s2, s);
    EXPECT_TRUE(r.atEnd());

    // Over-read latches ok() false and never throws.
    EXPECT_EQ(r.getU64(), 0u);
    EXPECT_FALSE(r.ok());
}

TEST_F(CheckpointTest, ZeroLengthReadIsANoOp)
{
    // Reading 0 bytes into an empty vector hands getBytes a null
    // destination; it must neither touch it nor move the cursor.
    SnapshotWriter w;
    w.putU32(0xdeadbeef);
    SnapshotReader r(w.buffer());
    std::vector<std::uint8_t> none;
    EXPECT_TRUE(r.getBytes(none.data(), none.size()));
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.getU32(), 0xdeadbeefu); // cursor did not move
    EXPECT_TRUE(r.getBytes(none.data(), none.size()));
    EXPECT_TRUE(r.atEnd());

    // After an over-read the zero-length read reports the latched
    // failure and leaves it latched.
    EXPECT_EQ(r.getU8(), 0u);
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.getBytes(none.data(), none.size()));
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(none.empty());
}

TEST_F(CheckpointTest, Crc32MatchesKnownVector)
{
    // IEEE CRC-32 of "123456789" is the classic check value.
    const char *msg = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t *>(msg), 9),
              0xcbf43926u);
}

TEST_F(CheckpointTest, FingerprintDistinguishesModels)
{
    ModelShape s1, s2, s3;
    const std::uint64_t german3 =
        modelFingerprint(buildGermanModel(3, s1));
    const std::uint64_t german4 =
        modelFingerprint(buildGermanModel(4, s2));
    const std::uint64_t closed3 = modelFingerprint(
        buildClosedModel(3, VerifFeatures::neoMESI(), s3));
    EXPECT_NE(german3, german4);
    EXPECT_NE(german3, closed3);
    ModelShape s4;
    EXPECT_EQ(german3, modelFingerprint(buildGermanModel(3, s4)));
}
