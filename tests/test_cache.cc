/**
 * @file
 * Tests for the LRU tag array and the generic set-associative cache.
 */

#include <gtest/gtest.h>

#include <set>

#include "cache/set_assoc_cache.h"
#include "common/rng.h"
#include "common/units.h"

namespace h2::cache {
namespace {

CacheParams
smallCache(u32 ways = 4, u32 lineBytes = 64)
{
    CacheParams p;
    p.name = "test";
    p.sizeBytes = u64(ways) * lineBytes * 8; // 8 sets
    p.ways = ways;
    p.lineBytes = lineBytes;
    return p;
}

/** Fill every way of @p set with keys set, set + sets, ..., so key
 *  set + w * sets sits in way w and way 0 is least recently used. */
void
fillSet(TagArray<u8> &a, u64 set)
{
    for (u32 w = 0; w < a.numWays(); ++w) {
        u64 key = set + w * a.numSets();
        a.fill(a.victim(set), key);
        ASSERT_EQ(a.find(key), a.slotAt(set, w));
    }
}

TEST(TagArray, VictimIsFirstInvalidWay)
{
    TagArray<u8> a(8, 4);
    EXPECT_EQ(a.victim(3), a.slotAt(3, 0));
    fillSet(a, 3);
    a.release(a.slotAt(3, 2));
    a.release(a.slotAt(3, 1));
    // Way 0 is least recently used, but an invalid way wins, and of
    // two invalid ways the first.
    EXPECT_FALSE(a.valid(a.slotAt(3, 1)));
    EXPECT_EQ(a.victim(3), a.slotAt(3, 1));
}

TEST(TagArray, VictimIsLeastRecentlyUsedWhenFull)
{
    TagArray<u8> a(8, 4);
    fillSet(a, 5);
    EXPECT_EQ(a.victim(5), a.slotAt(5, 0));
    ASSERT_NE(a.lookup(5), TagArray<u8>::npos); // refresh way 0
    EXPECT_EQ(a.victim(5), a.slotAt(5, 1));
    ASSERT_NE(a.lookup(5 + 8), TagArray<u8>::npos); // refresh way 1
    EXPECT_EQ(a.victim(5), a.slotAt(5, 2));
    // Refilling the victim makes it most recent.
    a.fill(a.victim(5), 5 + 4 * 8);
    EXPECT_EQ(a.victim(5), a.slotAt(5, 3));
}

TEST(TagArray, FindHasNoSideEffectsLookupCountsAndRefreshes)
{
    TagArray<u8> a(8, 4);
    fillSet(a, 0);
    EXPECT_EQ(a.find(0), a.slotAt(0, 0));
    EXPECT_EQ(a.find(4 * 8), TagArray<u8>::npos);
    EXPECT_EQ(a.hits(), 0u);
    EXPECT_EQ(a.misses(), 0u);
    EXPECT_EQ(a.victim(0), a.slotAt(0, 0)); // find did not refresh

    EXPECT_EQ(a.lookup(0), a.slotAt(0, 0));
    EXPECT_EQ(a.lookup(4 * 8), TagArray<u8>::npos);
    EXPECT_EQ(a.hits(), 1u);
    EXPECT_EQ(a.misses(), 1u);
    EXPECT_EQ(a.victim(0), a.slotAt(0, 1)); // lookup did

    a.resetStats();
    EXPECT_EQ(a.hits(), 0u);
    EXPECT_EQ(a.misses(), 0u);
    EXPECT_EQ(a.victim(0), a.slotAt(0, 1)); // recency survives the reset
}

TEST(TagArray, NonPowerOfTwoSetSplitIsExact)
{
    TagArray<u8> a(3, 2);
    for (u64 key = 0; key < 1000; ++key) {
        ASSERT_EQ(a.setOf(key), key % 3);
        ASSERT_EQ(a.tagOf(key), key / 3);
        ASSERT_EQ(a.keyOf(a.setOf(key), a.tagOf(key)), key);
    }
}

TEST(SetAssocCache, MissThenHit)
{
    SetAssocCache c(smallCache());
    EXPECT_FALSE(c.access(0x1000, AccessType::Read));
    c.insert(0x1000, false);
    EXPECT_TRUE(c.access(0x1000, AccessType::Read));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(SetAssocCache, SubLineAddressesAlias)
{
    SetAssocCache c(smallCache());
    c.insert(0x1000, false);
    EXPECT_TRUE(c.access(0x1004, AccessType::Read));
    EXPECT_TRUE(c.probe(0x103F));
    EXPECT_FALSE(c.probe(0x1040));
}

TEST(SetAssocCache, LruEvictionOrder)
{
    // 4-way set; fill 4 lines of one set, touch the first, insert a
    // fifth: the second line (LRU) must be evicted.
    SetAssocCache c(smallCache());
    u64 setStride = 8 * 64; // 8 sets * 64 B
    for (u64 i = 0; i < 4; ++i)
        c.insert(i * setStride, false);
    EXPECT_TRUE(c.access(0, AccessType::Read)); // refresh way 0
    auto victim = c.insert(4 * setStride, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->addr, setStride);
}

TEST(SetAssocCache, NonPowerOfTwoSetsEvictTheAddressesInserted)
{
    // 3 sets x 2 ways (DFC's tag store has 98,304 sets at 1.5 GiB NM):
    // every eviction must name a line that was inserted, with the
    // dirtiness it was inserted with.
    CacheParams p;
    p.name = "threeSets";
    p.sizeBytes = 3 * 2 * 64;
    p.ways = 2;
    p.lineBytes = 64;
    SetAssocCache c(p);
    EXPECT_EQ(c.numSets(), 3u);

    std::set<Addr> resident;
    std::set<Addr> dirty;
    Rng rng(11);
    for (int i = 0; i < 2000; ++i) {
        Addr a = rng.below(64) * 64;
        if (c.access(a, AccessType::Read))
            continue;
        bool d = rng.chance(0.5);
        auto victim = c.insert(a, d);
        if (victim) {
            ASSERT_EQ(resident.erase(victim->addr), 1u)
                << "evicted " << victim->addr << " was never inserted";
            ASSERT_EQ(victim->dirty, dirty.erase(victim->addr) == 1);
            // LRU within a set: the victim shares the new line's set.
            ASSERT_EQ(victim->addr / 64 % 3, a / 64 % 3);
        }
        resident.insert(a);
        if (d)
            dirty.insert(a);
    }
    EXPECT_EQ(c.numValidLines(), resident.size());
    for (Addr a : resident)
        EXPECT_TRUE(c.probe(a));
}

TEST(SetAssocCache, DirtyTracking)
{
    SetAssocCache c(smallCache());
    c.insert(0x40, false);
    EXPECT_FALSE(c.probeDirty(0x40));
    c.access(0x40, AccessType::Write);
    EXPECT_TRUE(c.probeDirty(0x40));
}

TEST(SetAssocCache, DirtyEvictionReported)
{
    SetAssocCache c(smallCache(1)); // direct-mapped, 8 sets
    c.insert(0, true);
    auto victim = c.insert(8 * 64, false); // same set
    ASSERT_TRUE(victim.has_value());
    EXPECT_TRUE(victim->dirty);
    EXPECT_EQ(c.dirtyEvictions(), 1u);
}

TEST(SetAssocCache, InsertDirtyFlag)
{
    SetAssocCache c(smallCache());
    c.insert(0x80, true);
    EXPECT_TRUE(c.probeDirty(0x80));
}

TEST(SetAssocCache, Invalidate)
{
    SetAssocCache c(smallCache());
    c.insert(0x100, true);
    auto wasDirty = c.invalidate(0x100);
    ASSERT_TRUE(wasDirty.has_value());
    EXPECT_TRUE(*wasDirty);
    EXPECT_FALSE(c.probe(0x100));
    EXPECT_FALSE(c.invalidate(0x100).has_value());
}

TEST(SetAssocCache, SetDirty)
{
    SetAssocCache c(smallCache());
    c.insert(0x200, false);
    c.setDirty(0x200);
    EXPECT_TRUE(c.probeDirty(0x200));
}

TEST(SetAssocCache, ResidentLinesInRange)
{
    SetAssocCache c(smallCache(4, 64));
    c.insert(0, false);
    c.insert(64, false);
    c.insert(192, false);
    EXPECT_EQ(c.residentLinesInRange(0, 256), 3u);
    EXPECT_EQ(c.residentLinesInRange(0, 128), 2u);
    EXPECT_EQ(c.residentLinesInRange(256, 256), 0u);
}

TEST(SetAssocCache, NumValidLines)
{
    SetAssocCache c(smallCache());
    EXPECT_EQ(c.numValidLines(), 0u);
    c.insert(0, false);
    c.insert(64, false);
    EXPECT_EQ(c.numValidLines(), 2u);
}

TEST(SetAssocCacheDeath, DoubleInsert)
{
    SetAssocCache c(smallCache());
    c.insert(0x40, false);
    EXPECT_DEATH(c.insert(0x40, false), "double insert");
}

TEST(SetAssocCacheDeath, SetDirtyOnAbsent)
{
    SetAssocCache c(smallCache());
    EXPECT_DEATH(c.setDirty(0x40), "absent");
}

struct GeometryParam
{
    u32 ways;
    u32 lineBytes;
};

class CacheGeometry : public ::testing::TestWithParam<GeometryParam>
{
};

TEST_P(CacheGeometry, FillWholeCacheThenHitEverything)
{
    auto [ways, lineBytes] = GetParam();
    CacheParams p;
    p.name = "sweep";
    p.sizeBytes = 64 * KiB;
    p.ways = ways;
    p.lineBytes = lineBytes;
    SetAssocCache c(p);

    u64 lines = p.sizeBytes / lineBytes;
    for (u64 i = 0; i < lines; ++i)
        ASSERT_FALSE(c.insert(i * lineBytes, false).has_value());
    EXPECT_EQ(c.numValidLines(), lines);
    for (u64 i = 0; i < lines; ++i)
        ASSERT_TRUE(c.access(i * lineBytes, AccessType::Read));
    // One more distinct line forces exactly one eviction.
    EXPECT_TRUE(c.insert(lines * lineBytes, false).has_value());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(GeometryParam{1, 64}, GeometryParam{2, 64},
                      GeometryParam{4, 64}, GeometryParam{8, 256},
                      GeometryParam{16, 64}, GeometryParam{16, 1024},
                      GeometryParam{4, 4096}));

} // namespace
} // namespace h2::cache
