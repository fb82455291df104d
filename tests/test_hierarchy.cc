/**
 * @file
 * Tests for the three-level SRAM hierarchy.
 */

#include <gtest/gtest.h>

#include "cache/cache_hierarchy.h"
#include "common/units.h"

namespace h2::cache {
namespace {

HierarchyParams
tinyHierarchy(u32 cores = 2)
{
    HierarchyParams p;
    p.numCores = cores;
    p.l1 = {"L1", 1 * KiB, 2, 64};
    p.l2 = {"L2", 4 * KiB, 4, 64};
    p.llc = {"LLC", 16 * KiB, 4, 64};
    return p;
}

TEST(Hierarchy, ColdMissHitsMemory)
{
    CacheHierarchy h(tinyHierarchy());
    auto r = h.access(0, 0x1000, AccessType::Read);
    EXPECT_TRUE(r.llcMiss);
    EXPECT_EQ(r.hitLevel, 0u);
    EXPECT_EQ(h.llcMisses(), 1u);
}

TEST(Hierarchy, SecondAccessHitsL1)
{
    CacheHierarchy h(tinyHierarchy());
    h.access(0, 0x1000, AccessType::Read);
    auto r = h.access(0, 0x1000, AccessType::Read);
    EXPECT_FALSE(r.llcMiss);
    EXPECT_EQ(r.hitLevel, 1u);
    EXPECT_EQ(r.latencyCycles, h.params().l1LatencyCycles);
}

TEST(Hierarchy, SubLineAccessSameLine)
{
    CacheHierarchy h(tinyHierarchy());
    h.access(0, 0x1000, AccessType::Read);
    auto r = h.access(0, 0x1030, AccessType::Read);
    EXPECT_EQ(r.hitLevel, 1u);
}

TEST(Hierarchy, PerCoreL1Isolation)
{
    CacheHierarchy h(tinyHierarchy());
    h.access(0, 0x1000, AccessType::Read);
    // Core 1 misses its private L1/L2 but the line is NOT in the LLC
    // yet (it sits in core 0's L1), so this is another memory miss.
    auto r = h.access(1, 0x1000, AccessType::Read);
    EXPECT_TRUE(r.llcMiss);
}

TEST(Hierarchy, EvictionCascadesToL2)
{
    auto p = tinyHierarchy();
    CacheHierarchy h(p);
    // L1: 1 KiB, 2-way, 64 B lines -> 8 sets. Fill 3 lines of set 0.
    u64 setStride = 8 * 64;
    h.access(0, 0 * setStride, AccessType::Read);
    h.access(0, 1 * setStride, AccessType::Read);
    h.access(0, 2 * setStride, AccessType::Read); // evicts line 0 to L2
    auto r = h.access(0, 0, AccessType::Read);
    EXPECT_EQ(r.hitLevel, 2u); // found in L2
}

TEST(Hierarchy, DirtyDataReachesMemoryEventually)
{
    auto p = tinyHierarchy(1);
    CacheHierarchy h(p);
    // Write a line, then stream enough distinct lines to push it out of
    // L1, L2 and the LLC; a writeback must surface exactly once.
    h.access(0, 0, AccessType::Write);
    u64 wbCount = 0;
    for (u64 i = 1; i < 2048; ++i) {
        auto r = h.access(0, i * 64, AccessType::Read);
        if (r.writeback && *r.writeback == 0)
            ++wbCount;
    }
    EXPECT_EQ(wbCount, 1u);
}

TEST(Hierarchy, LlcHolds)
{
    CacheHierarchy h(tinyHierarchy());
    u64 setStride = 8 * 64;
    // Push a line down to the LLC via L1+L2 eviction pressure.
    for (u64 i = 0; i < 16; ++i)
        h.access(0, i * setStride, AccessType::Read);
    // At least one early line must now be LLC-resident.
    u32 resident = h.llcResidentLinesInRange(0, 16 * setStride);
    EXPECT_GT(resident, 0u);
}

TEST(Hierarchy, LatenciesFollowLevels)
{
    auto p = tinyHierarchy();
    CacheHierarchy h(p);
    auto miss = h.access(0, 0x2000, AccessType::Read);
    EXPECT_EQ(miss.latencyCycles, p.llcLatencyCycles);
    auto l1 = h.access(0, 0x2000, AccessType::Read);
    EXPECT_EQ(l1.latencyCycles, p.l1LatencyCycles);
}

TEST(Hierarchy, AccessCounting)
{
    CacheHierarchy h(tinyHierarchy());
    for (int i = 0; i < 10; ++i)
        h.access(0, 0x3000, AccessType::Read);
    EXPECT_EQ(h.accesses(), 10u);
    EXPECT_EQ(h.llcMisses(), 1u);
}

TEST(Hierarchy, CollectStats)
{
    CacheHierarchy h(tinyHierarchy());
    h.access(0, 0, AccessType::Read);
    StatSet out;
    h.collectStats(out);
    EXPECT_DOUBLE_EQ(out.get("hier.accesses"), 1.0);
    EXPECT_DOUBLE_EQ(out.get("hier.llcMisses"), 1.0);
}

TEST(Hierarchy, WriteMissInstallsDirtyLine)
{
    CacheHierarchy h(tinyHierarchy(1));
    h.access(0, 0x40, AccessType::Write);
    // Stream over the same set until the dirty line surfaces; dirty
    // data must not be lost (exactly one writeback of 0x40).
    u64 setStride = 8 * 64;
    u64 wb = 0;
    for (u64 i = 1; i < 1024; ++i) {
        auto r = h.access(0, 0x40 + i * setStride, AccessType::Read);
        if (r.writeback && *r.writeback == 0x40)
            ++wb;
    }
    EXPECT_EQ(wb, 1u);
}

TEST(Hierarchy, Table1Geometry)
{
    HierarchyParams p; // defaults are the paper's Table 1
    EXPECT_EQ(p.l1.sizeBytes, 64 * KiB);
    EXPECT_EQ(p.l1.ways, 4u);
    EXPECT_EQ(p.l2.sizeBytes, 256 * KiB);
    EXPECT_EQ(p.l2.ways, 8u);
    EXPECT_EQ(p.llc.sizeBytes, 8 * MiB);
    EXPECT_EQ(p.llc.ways, 16u);
    EXPECT_EQ(p.l1LatencyCycles, 1u);
    EXPECT_EQ(p.l2LatencyCycles, 9u);
    EXPECT_EQ(p.llcLatencyCycles, 14u);
}

TEST(HierarchyDeath, BadCoreId)
{
    CacheHierarchy h(tinyHierarchy(2));
    EXPECT_DEATH(h.access(2, 0, AccessType::Read), "core id");
}

} // namespace
} // namespace h2::cache
