/**
 * @file
 * Tests for the system builder and experiment runner: the Figure 7
 * organizations, arbitrary-tree construction, leaf-level directory
 * classification, multi-trial statistics, deadlock-freedom of the
 * verification models (detect_deadlock mode), and golden pins of the
 * simulator's outputs and trace stream.
 */

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>

#include "core/core_model.hpp"
#include "core/sim_runner.hpp"
#include "test_util.hpp"
#include "verif/explorer.hpp"
#include "verif/models/flat_closed.hpp"
#include "verif/models/flat_open.hpp"

using namespace neo;
using namespace neo::test;

namespace
{

TEST(Organizations, Figure7Shapes)
{
    struct Case
    {
        const char *name;
        std::size_t dirs;
    };
    // Skewed: L3 + 16 private L2s + 1 shared L2; 2perL2: L3 + 16 L2s;
    // 8perL2: L3 + 4 L2s.
    const Case cases[] = {{"skewed", 18}, {"2perL2", 17},
                          {"8perL2", 5}};
    for (const Case &c : cases) {
        EventQueue eventq;
        HierarchySpec spec =
            organizationByName(c.name, ProtocolVariant::NeoMESI);
        System system(spec, eventq);
        EXPECT_EQ(system.numL1s(), 32u) << c.name;
        EXPECT_EQ(system.numDirs(), c.dirs) << c.name;
        EXPECT_TRUE(system.root().isRoot());
    }
}

TEST(Organizations, UnknownNameIsFatal)
{
    // neo_fatal exits with the unified usage-error code
    // (exit_codes.hpp: kExitUsage = 2).
    EXPECT_EXIT(organizationByName("bogus", ProtocolVariant::NeoMESI),
                ::testing::ExitedWithCode(2), "unknown organization");
}

TEST(Organizations, SkewedIsActuallySkewed)
{
    EventQueue eventq;
    System system(skewedOrg(ProtocolVariant::NeoMESI), eventq);
    // One L2 has 16 children, sixteen L2s have 1 child.
    std::size_t wide = 0, narrow = 0;
    for (std::size_t d = 0; d < system.numDirs(); ++d) {
        if (system.dir(d).isRoot())
            continue;
        const auto n = system.dir(d).numChildren();
        if (n == 16)
            ++wide;
        else if (n == 1)
            ++narrow;
    }
    EXPECT_EQ(wide, 1u);
    EXPECT_EQ(narrow, 16u);
}

TEST(SystemBuilder, LeafLevelDirsClassification)
{
    EventQueue eventq;
    HierarchySpec spec = deepTree(ProtocolVariant::NeoMESI);
    System system(spec, eventq);
    const auto leaf_dirs = system.leafLevelDirs();
    // deepTree: 2 L2s in arm A + 1 L2 in arm B + 1 L2 in arm C are
    // leaf-level; the mid dir and the root are not.
    EXPECT_EQ(leaf_dirs.size(), 4u);
    for (const auto *d : leaf_dirs)
        EXPECT_FALSE(d->isRoot());
}

TEST(SimRunner, TrialsVaryBySeed)
{
    HierarchySpec spec = tinyTree(ProtocolVariant::NeoMESI, 2, 2);
    WorkloadParams wl;
    wl.privateBlocksPerCore = 32;
    wl.sharedBlocks = 16;
    wl.sharedFraction = 0.3;
    RunConfig cfg;
    cfg.opsPerCore = 500;
    const TrialSummary t = runTrials(spec, wl, cfg, 3);
    EXPECT_TRUE(t.allCoherent);
    EXPECT_EQ(t.runtime.count(), 3u);
    // Different seeds must produce different (but close) runtimes.
    EXPECT_GT(t.runtime.stdev(), 0.0);
    EXPECT_LT(t.runtime.stdev(), 0.2 * t.runtime.mean());
}

TEST(SimRunner, DeterministicForFixedSeed)
{
    HierarchySpec spec = tinyTree(ProtocolVariant::NSMOESI, 2, 2);
    WorkloadParams wl;
    wl.privateBlocksPerCore = 16;
    wl.sharedBlocks = 8;
    wl.sharedFraction = 0.4;
    RunConfig cfg;
    cfg.opsPerCore = 300;
    cfg.seed = 12345;
    const RunResult a = runOnce(spec, wl, cfg);
    const RunResult b = runOnce(spec, wl, cfg);
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.networkMessages, b.networkMessages);
}

TEST(SimRunner, ProtocolsSeeSameWorkload)
{
    // The evaluation's premise: identical streams across protocols.
    WorkloadParams wl;
    wl.privateBlocksPerCore = 16;
    wl.sharedBlocks = 8;
    wl.sharedFraction = 0.4;
    RunConfig cfg;
    cfg.opsPerCore = 300;
    RunResult results[2];
    int k = 0;
    for (ProtocolVariant v :
         {ProtocolVariant::NeoMESI, ProtocolVariant::NSMOESI}) {
        results[k++] =
            runOnce(tinyTree(v, 2, 2), wl, cfg);
    }
    // Same per-core op streams -> the same total op count; hits,
    // misses and upgrades partition it differently per protocol (the
    // O state turns some upgrades into hits).
    for (const RunResult &r : results) {
        EXPECT_EQ(r.l1Hits + r.l1Misses + r.l1Upgrades,
                  300u * 4u);
    }
}

/** One simulator golden: canneal, 300 ops/core, seed 1. */
struct SimGolden
{
    const char *org;
    ProtocolVariant protocol;
    Tick ticks;
    std::uint64_t messages, hits, misses;
};

/** Print a row as "org/protocol", so no pointer lands in a test name. */
void
PrintTo(const SimGolden &g, std::ostream *os)
{
    *os << g.org << "/" << protocolName(g.protocol);
}

class SimGoldens : public ::testing::TestWithParam<SimGolden>
{
};

TEST_P(SimGoldens, RunOnceMatchesPinnedCounts)
{
    // Any change to event order, routing or protocol behaviour moves
    // these; host-side optimizations of the simulator must not.
    const SimGolden &g = GetParam();
    RunConfig cfg;
    cfg.opsPerCore = 300;
    cfg.seed = 1;
    const RunResult r = runOnce(organizationByName(g.org, g.protocol),
                                parsecProfile("canneal"), cfg);
    EXPECT_FALSE(r.deadlocked);
    EXPECT_TRUE(r.violations.empty());
    EXPECT_EQ(r.runtime, g.ticks);
    EXPECT_EQ(r.networkMessages, g.messages);
    EXPECT_EQ(r.l1Hits, g.hits);
    EXPECT_EQ(r.l1Misses, g.misses);
}

using PV = ProtocolVariant;

INSTANTIATE_TEST_SUITE_P(
    AllOrgsAllProtocols, SimGoldens,
    ::testing::Values(
        SimGolden{"2perL2", PV::TreeMSI, 1353813, 59643, 265, 9252},
        SimGolden{"2perL2", PV::NeoMESI, 1353813, 59635, 345, 9252},
        SimGolden{"2perL2", PV::NSMESI, 1353813, 50196, 345, 9252},
        SimGolden{"2perL2", PV::NSMOESI, 1353813, 49814, 345, 9252},
        SimGolden{"8perL2", PV::TreeMSI, 1353813, 59092, 265, 9252},
        SimGolden{"8perL2", PV::NeoMESI, 1353813, 58945, 345, 9252},
        SimGolden{"8perL2", PV::NSMESI, 1353813, 49751, 345, 9252},
        SimGolden{"8perL2", PV::NSMOESI, 1353813, 49354, 345, 9252},
        SimGolden{"skewed", PV::TreeMSI, 1353813, 58898, 265, 9252},
        SimGolden{"skewed", PV::NeoMESI, 1353813, 58672, 345, 9252},
        SimGolden{"skewed", PV::NSMESI, 1353813, 49589, 345, 9252},
        SimGolden{"skewed", PV::NSMOESI, 1353813, 49192, 345, 9252}),
    [](const ::testing::TestParamInfo<SimGolden> &info) {
        std::string name = std::string(info.param.org) + "_" +
                           protocolName(info.param.protocol);
        std::erase(name, '-');
        return name;
    });

TEST(SimTrace, AddrFilterSelectsOneBlock)
{
    const std::string l40 =
        "l1_3: send GetS[addr=0x40 src=3 dst=34 txn=3:7]";
    const std::string l40fcc0 =
        "dir_0: recv Data[addr=0x40fcc0 src=34 dst=3 grant=E]";
    EXPECT_TRUE(traceLineHasAddr(l40, 0x40));
    EXPECT_FALSE(traceLineHasAddr(l40fcc0, 0x40));
    EXPECT_FALSE(
        traceLineHasAddr("l1_0: recv Inv[addr=0x408980 src=1 dst=0]",
                         0x40));
    EXPECT_TRUE(traceLineHasAddr(l40fcc0, 0x40fcc0));
    EXPECT_FALSE(traceLineHasAddr(l40, 0x4));
    EXPECT_FALSE(traceLineHasAddr("l1_3: reissue GetS", 0x40));
}

TEST(SimTrace, StreamMatchesPinnedDigest)
{
    // Every send/recv line of a small run, tick-stamped as
    // NEO_TRACE_ADDR prints them, folded into one FNV-1a digest.
    EventQueue eventq;
    System system(organizationByName("2perL2", ProtocolVariant::NeoMESI),
                  eventq);
    std::uint64_t lines = 0;
    std::uint64_t digest = 14695981039346656037ULL;
    system.setTrace([&](const std::string &line) {
        ++lines;
        for (unsigned char c :
             std::to_string(eventq.curTick()) + " " + line + "\n") {
            digest ^= c;
            digest *= 1099511628211ULL;
        }
    });
    WorkloadGen gen(parsecProfile("canneal"), 32, 64, 1);
    std::vector<std::unique_ptr<CoreModel>> cores;
    unsigned finished = 0;
    for (unsigned c = 0; c < 32; ++c) {
        cores.push_back(std::make_unique<CoreModel>(
            "core_" + std::to_string(c), eventq, c, system.l1(c), gen, 100,
            [&finished](CoreId) { ++finished; }));
    }
    for (auto &core : cores)
        core->start();
    eventq.run();
    EXPECT_EQ(finished, 32u);
    EXPECT_EQ(eventq.curTick(), 488508u);
    EXPECT_EQ(lines, 38682u);
    EXPECT_EQ(digest, 0xc6ac95dbb8e348afULL);
}

TEST(VerifModels, DeadlockFree)
{
    using namespace neo::verif;
    ModelShape shape;
    const auto closed = explore(
        buildClosedModel(2, VerifFeatures::neoMESI(), shape),
        ExploreLimits{5'000'000, 120.0}, /*detect_deadlock=*/true);
    EXPECT_EQ(closed.status, VerifStatus::Verified)
        << closed.badState;
    const auto open = explore(
        buildOpenModel(2, VerifFeatures::neoMESI(),
                       CompositionMethod::None, shape),
        ExploreLimits{5'000'000, 120.0}, /*detect_deadlock=*/true);
    EXPECT_EQ(open.status, VerifStatus::Verified) << open.badState;
}

} // namespace
