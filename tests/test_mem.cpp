/**
 * @file
 * Unit tests for the memory substrate: address slicing, the
 * set-associative array's lookup/LRU/victim behavior, DRAM occupancy.
 */

#include <gtest/gtest.h>

#include "mem/address.hpp"
#include "mem/cache_array.hpp"
#include "mem/dram.hpp"

using namespace neo;

namespace
{

TEST(AddressMap, SlicesCorrectly)
{
    AddressMap map(64, 16); // 6 offset bits, 4 set bits
    const Addr a = 0xABCDE4;
    EXPECT_EQ(map.blockAlign(a), 0xABCDC0u);
    EXPECT_EQ(map.setIndex(a), (0xABCDE4u >> 6) & 0xF);
    EXPECT_EQ(map.tag(a), 0xABCDE4u >> 10);
    EXPECT_EQ(map.blockAlign(map.blockAlign(a)), map.blockAlign(a));
}

TEST(AddressMap, Pow2Helpers)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(64));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(48));
    EXPECT_EQ(log2i(1), 0u);
    EXPECT_EQ(log2i(64), 6u);
}

struct Meta
{
    int v = 0;
};

CacheGeometry
smallGeom()
{
    return CacheGeometry{8 * 64, 2, 64, 1}; // 4 sets x 2 ways
}

TEST(CacheArray, AllocateFindErase)
{
    CacheArray<Meta> c(smallGeom());
    EXPECT_EQ(c.find(0x100), nullptr);
    c.allocate(0x100).v = 7;
    ASSERT_NE(c.find(0x100), nullptr);
    EXPECT_EQ(c.find(0x100)->v, 7);
    EXPECT_EQ(c.occupancy(), 1u);
    c.erase(0x100);
    EXPECT_EQ(c.find(0x100), nullptr);
    EXPECT_EQ(c.occupancy(), 0u);
}

TEST(CacheArray, SetConflictsRespectAssociativity)
{
    CacheArray<Meta> c(smallGeom());
    // Three blocks mapping to the same set (stride = sets*block).
    const Addr stride = 4 * 64;
    c.allocate(0x0);
    c.allocate(stride);
    EXPECT_FALSE(c.hasFreeWay(2 * stride));
    // A different set still has room.
    EXPECT_TRUE(c.hasFreeWay(0x40));
}

TEST(CacheArray, VictimIsLruAmongEvictable)
{
    CacheArray<Meta> c(smallGeom());
    const Addr stride = 4 * 64;
    c.allocate(0x0);
    c.allocate(stride);
    // Touch 0x0 so `stride` becomes LRU.
    c.find(0x0);
    auto victim = c.victimFor(
        2 * stride, [](Addr, const Meta &) { return true; });
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(*victim, stride);
    // Veto the LRU: the other way must be picked.
    victim = c.victimFor(2 * stride, [&](Addr a, const Meta &) {
        return a != stride;
    });
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(*victim, 0u);
    // Veto everything: no victim.
    victim = c.victimFor(2 * stride,
                         [](Addr, const Meta &) { return false; });
    EXPECT_FALSE(victim.has_value());
}

TEST(CacheArray, PeekDoesNotTouchLru)
{
    CacheArray<Meta> c(smallGeom());
    const Addr stride = 4 * 64;
    c.allocate(0x0);
    c.allocate(stride);
    // 0x0 is older. peek must not promote it.
    c.peek(0x0);
    auto victim = c.victimFor(
        2 * stride, [](Addr, const Meta &) { return true; });
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(*victim, 0u);
}

TEST(CacheArray, ForEachVisitsAllValid)
{
    CacheArray<Meta> c(smallGeom());
    c.allocate(0x0).v = 1;
    c.allocate(0x40).v = 2;
    c.allocate(0x80).v = 3;
    int sum = 0;
    unsigned count = 0;
    c.forEach([&](Addr, Meta &m) {
        sum += m.v;
        ++count;
    });
    EXPECT_EQ(count, 3u);
    EXPECT_EQ(sum, 6);
}

TEST(CacheArray, ReconstructedAddressesRoundTrip)
{
    CacheArray<Meta> c(CacheGeometry{64 * 1024, 4, 64, 1});
    const Addr addrs[] = {0x0, 0x12340, 0xFFFC0, 0xABCD00};
    for (Addr a : addrs)
        c.allocate(a);
    unsigned matched = 0;
    c.forEach([&](Addr a, Meta &) {
        for (Addr want : addrs)
            if (a == want)
                ++matched;
    });
    EXPECT_EQ(matched, 4u);
}

TEST(CacheArray, TopTagSitsBesideTheInvalidSentinel)
{
    // Free ways hold an all-ones tag. The highest block address has a
    // tag of all ones below the dropped offset and index bits, one step
    // from that sentinel: it must allocate, hit, round-trip and erase
    // like any other block, and its set must still report free ways.
    CacheArray<Meta> c(smallGeom());
    const Addr top = ~Addr{0} << 6;
    ASSERT_EQ(c.addressMap().tag(top), ~Addr{0} >> 8);
    EXPECT_EQ(c.find(top), nullptr);
    c.allocate(top).v = 9;
    ASSERT_NE(c.find(top), nullptr);
    EXPECT_EQ(c.peek(top)->v, 9);
    EXPECT_TRUE(c.hasFreeWay(top));
    EXPECT_EQ(c.find(top - 4 * 64), nullptr); // same set, other tag
    Addr seen = 0;
    c.forEach([&](Addr a, Meta &) { seen = a; });
    EXPECT_EQ(seen, top);
    auto victim =
        c.victimFor(top, [](Addr, const Meta &) { return true; });
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(*victim, top);
    c.erase(top);
    EXPECT_EQ(c.find(top), nullptr);
    EXPECT_EQ(c.occupancy(), 0u);
}

TEST(Dram, SerializesBackToBackAccesses)
{
    DramModel dram(1 << 20, 100);
    EXPECT_EQ(dram.access(0), 100u);   // idle: plain latency
    EXPECT_EQ(dram.access(0), 200u);   // queued behind the first
    EXPECT_EQ(dram.access(500), 100u); // idle again by t=500
    EXPECT_EQ(dram.accesses(), 3u);
}

} // namespace
