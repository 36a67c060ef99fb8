/**
 * @file
 * Property-based protocol tests: protocol-independent invariants
 * checked over randomized sweeps of protocol x tree shape x seed.
 *
 *  P1  Eventual completion: every issued request finishes (no
 *      deadlock, no lost message) on every swept configuration.
 *  P2  Single writer at quiescence: at most one L1 holds E/M per
 *      block, and then every other L1 holds I.
 *  P3  Inclusion: an L1-resident block is tracked with non-I
 *      Permission by every directory on its path to the root.
 *  P4  Directory precision: every child holding a block appears in
 *      its directory's sharer/owner bookkeeping.
 *  P5  Eviction storms stay coherent: cache pressure with write-heavy
 *      traffic, including directory-level recalls.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>

#include "core/system.hpp"
#include "sim/random.hpp"
#include "test_util.hpp"

using namespace neo;
using namespace neo::test;

namespace
{

class ProtocolProperties
    : public ::testing::TestWithParam<ProtocolVariant>
{
  protected:
    /** Drive random traffic to completion; assert P1. */
    void
    drive(System &system, EventQueue &eventq, unsigned ops_per_core,
          unsigned num_blocks, std::uint64_t seed)
    {
        const auto cores = static_cast<unsigned>(system.numL1s());
        Random rng(seed);
        std::vector<unsigned> left(cores, ops_per_core);
        unsigned done = 0;
        std::function<void(unsigned)> issue = [&](unsigned c) {
            if (left[c] == 0) {
                ++done;
                return;
            }
            --left[c];
            system.l1(c).coreRequest(rng.below(num_blocks) * 64,
                                     rng.chance(0.5),
                                     [&issue, c] { issue(c); });
        };
        for (unsigned c = 0; c < cores; ++c)
            issue(c);
        eventq.run(maxTick, 80'000'000);
        ASSERT_TRUE(eventq.empty()) << "P1: queue did not drain";
        ASSERT_EQ(done, cores) << "P1: a core never finished";
        ASSERT_TRUE(system.checker().quiescent());
    }

    /** Assert P2/P3/P4 on the final quiescent state. */
    void
    checkStructure(System &system)
    {
        // Collect per-block L1 states.
        std::map<Addr, std::vector<std::pair<std::size_t, Perm>>>
            holders;
        for (std::size_t i = 0; i < system.numL1s(); ++i) {
            system.l1(i).forEachLine(
                [&holders, i](Addr a, L1State s) {
                    const Perm p = l1StatePerm(s);
                    if (p != Perm::I)
                        holders[a].emplace_back(i, p);
                });
        }

        for (const auto &[addr, list] : holders) {
            // P2: single writer.
            unsigned exclusive = 0;
            for (const auto &[idx, p] : list)
                if (permRank(p) >= permRank(Perm::E))
                    ++exclusive;
            EXPECT_LE(exclusive, 1u)
                << "P2 violated at 0x" << std::hex << addr;
            if (exclusive == 1) {
                EXPECT_EQ(list.size(), 1u)
                    << "P2: writer coexists with holders at 0x"
                    << std::hex << addr;
            }

            // P3: inclusion along the path to the root.
            for (const auto &[idx, p] : list) {
                NodeId node = system.l1(idx).parentId();
                while (node != invalidNode) {
                    const DirController *dir = nullptr;
                    for (std::size_t d = 0; d < system.numDirs(); ++d)
                        if (system.dir(d).nodeId() == node)
                            dir = &system.dir(d);
                    ASSERT_NE(dir, nullptr);
                    EXPECT_NE(dir->blockPerm(addr), Perm::I)
                        << "P3: " << dir->name()
                        << " does not track 0x" << std::hex << addr;
                    node = dir->parentId();
                }
            }
        }

        // P4: directory bookkeeping covers every holding child.
        for (std::size_t d = 0; d < system.numDirs(); ++d) {
            const DirController &dir = system.dir(d);
            std::map<NodeId, std::size_t> slot_of;
            for (std::size_t s = 0; s < dir.numChildren(); ++s)
                slot_of[dir.childAt(s)] = s;

            auto child_perm = [&](NodeId child,
                                  Addr addr) -> Perm {
                for (std::size_t i = 0; i < system.numL1s(); ++i)
                    if (system.l1(i).nodeId() == child)
                        return system.l1(i).blockPerm(addr);
                for (std::size_t i = 0; i < system.numDirs(); ++i)
                    if (system.dir(i).nodeId() == child)
                        return system.dir(i).blockPerm(addr);
                return Perm::I;
            };

            dir.forEachEntry([&](const DirController::EntryView &e) {
                for (const auto &[child, slot] : slot_of) {
                    const Perm p = child_perm(child, e.addr);
                    if (p == Perm::I)
                        continue;
                    const bool tracked =
                        (e.sharers >> slot) & 1u ||
                        e.owner == static_cast<int>(slot);
                    EXPECT_TRUE(tracked)
                        << "P4: " << dir.name() << " lost child "
                        << child << " holding 0x" << std::hex
                        << e.addr << " in " << permName(p);
                }
            });
        }
    }
};

TEST_P(ProtocolProperties, InvariantsHoldAcrossShapesAndSeeds)
{
    const struct
    {
        unsigned l2s, l1s;
    } shapes[] = {{2, 2}, {3, 2}, {2, 3}};
    for (const auto &shape : shapes) {
        for (std::uint64_t seed : {1ull, 77ull}) {
            EventQueue eventq;
            HierarchySpec spec =
                tinyTree(GetParam(), shape.l2s, shape.l1s);
            System system(spec, eventq);
            drive(system, eventq, 250, 20, seed);
            const auto v = system.checker().check();
            for (const auto &s : v)
                ADD_FAILURE() << s;
            checkStructure(system);
        }
    }
}

TEST_P(ProtocolProperties, InvariantsHoldOnDeepUnbalancedTrees)
{
    EventQueue eventq;
    HierarchySpec spec = deepTree(GetParam());
    System system(spec, eventq);
    drive(system, eventq, 300, 16, 1234);
    const auto v = system.checker().check();
    for (const auto &s : v)
        ADD_FAILURE() << s;
    checkStructure(system);
}

TEST_P(ProtocolProperties, EvictionStormStaysCoherent)
{
    // P5: working set far beyond the L1s AND the L2s, write-heavy, so
    // leaf evictions and directory recalls fire constantly.
    EventQueue eventq;
    HierarchySpec spec = tinyTree(GetParam(), 2, 2);
    System system(spec, eventq);
    const auto cores = static_cast<unsigned>(system.numL1s());
    Random rng(5);
    std::vector<unsigned> left(cores, 400);
    std::function<void(unsigned)> issue = [&](unsigned c) {
        if (left[c]-- == 0)
            return;
        // 160 blocks >> 8-block L1s and 32-block L2s.
        system.l1(c).coreRequest(rng.below(160) * 64, rng.chance(0.7),
                                 [&issue, c] { issue(c); });
    };
    for (unsigned c = 0; c < cores; ++c)
        issue(c);
    eventq.run(maxTick, 80'000'000);
    ASSERT_TRUE(eventq.empty());
    std::uint64_t dir_evictions = 0;
    for (std::size_t d = 0; d < system.numDirs(); ++d)
        dir_evictions += system.dir(d).requestArrivals().value();
    EXPECT_GT(system.l1(0).evictions().value(), 0u);
    const auto v = system.checker().check();
    for (const auto &s : v)
        ADD_FAILURE() << s;
    checkStructure(system);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ProtocolProperties,
    ::testing::Values(ProtocolVariant::TreeMSI, ProtocolVariant::NeoMESI,
                      ProtocolVariant::NSMESI, ProtocolVariant::NSMOESI),
    [](const ::testing::TestParamInfo<ProtocolVariant> &info) {
        std::string n = protocolName(info.param);
        for (auto &c : n)
            if (c == '-')
                c = '_';
        return n;
    });

} // namespace
