/**
 * @file
 * Tests for the common substrate: units, stats, RNG, permutation, log,
 * the open-addressed flat map, and the thread pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <set>
#include <unordered_map>

#include "common/flat_map.h"
#include "common/log.h"
#include "common/parse.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "common/units.h"

namespace h2 {
namespace {

TEST(Units, Constants)
{
    EXPECT_EQ(KiB, 1024u);
    EXPECT_EQ(MiB, 1024u * 1024u);
    EXPECT_EQ(GiB, 1024u * 1024u * 1024u);
    using namespace literals;
    EXPECT_EQ(64_KiB, 64 * KiB);
    EXPECT_EQ(3_GiB, 3 * GiB);
}

TEST(Units, FormatBytes)
{
    EXPECT_EQ(formatBytes(64), "64B");
    EXPECT_EQ(formatBytes(2 * KiB), "2KiB");
    EXPECT_EQ(formatBytes(64 * MiB), "64MiB");
    EXPECT_EQ(formatBytes(GiB), "1GiB");
    EXPECT_EQ(formatBytes(GiB + GiB / 2), "1.50GiB");
}

TEST(Units, FormatTime)
{
    EXPECT_EQ(formatTime(500), "500ps");
    EXPECT_EQ(formatTime(3500), "3.50ns");
    EXPECT_EQ(formatTime(50 * psPerUs), "50.00us");
    EXPECT_EQ(formatTime(2 * psPerMs), "2.00ms");
}

TEST(Types, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 4), 0u);
    EXPECT_EQ(ceilDiv(1, 4), 1u);
    EXPECT_EQ(ceilDiv(4, 4), 1u);
    EXPECT_EQ(ceilDiv(5, 4), 2u);
}

TEST(Types, PowerOf2)
{
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(2048));
    EXPECT_FALSE(isPowerOf2(2049));
}

TEST(Types, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(4096), 12u);
}

TEST(Stats, DistributionBasics)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    d.sample(3.0);
    d.sample(1.0);
    d.sample(2.0);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 3.0);
    EXPECT_DOUBLE_EQ(d.mean(), 2.0);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
}

TEST(Stats, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Stats, Mean)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 3.0}), 2.0);
}

TEST(Stats, RatioOrZero)
{
    EXPECT_DOUBLE_EQ(ratioOrZero(6.0, 3.0), 2.0);
    EXPECT_DOUBLE_EQ(ratioOrZero(0.0, 3.0), 0.0);
    // Regression (fig18_energy): a zero-energy baseline must yield a
    // renderable 0, not inf/NaN in the table or the JSON artifact.
    EXPECT_DOUBLE_EQ(ratioOrZero(5.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(ratioOrZero(0.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(ratioOrZero(-5.0, 0.0), 0.0);
    double inf = std::numeric_limits<double>::infinity();
    double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DOUBLE_EQ(ratioOrZero(inf, 2.0), 0.0);
    EXPECT_DOUBLE_EQ(ratioOrZero(2.0, inf), 0.0);
    EXPECT_DOUBLE_EQ(ratioOrZero(nan, 2.0), 0.0);
    EXPECT_DOUBLE_EQ(ratioOrZero(2.0, nan), 0.0);
    // Huge/tiny overflowing to inf is also clamped.
    EXPECT_DOUBLE_EQ(ratioOrZero(1e308, 1e-308), 0.0);
}

TEST(Stats, StatSet)
{
    StatSet s;
    s.add("a.b", 2.0);
    s.increment("a.b", 3.0);
    s.increment("fresh");
    EXPECT_TRUE(s.has("a.b"));
    EXPECT_FALSE(s.has("missing"));
    EXPECT_DOUBLE_EQ(s.get("a.b"), 5.0);
    EXPECT_DOUBLE_EQ(s.get("fresh"), 1.0);
    EXPECT_NE(s.toString().find("a.b"), std::string::npos);
}

TEST(Rng, Deterministic)
{
    Rng a(7), b(7), c(8);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BelowInRange)
{
    Rng r(1);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowCoversRange)
{
    Rng r(3);
    std::set<u64> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(r.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(5);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double v = r.uniform();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceProbability)
{
    Rng r(9);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, SplitMixMixes)
{
    EXPECT_NE(splitmix64(1), splitmix64(2));
    EXPECT_EQ(splitmix64(42), splitmix64(42));
}

class PermutationSizes : public ::testing::TestWithParam<u64>
{
};

TEST_P(PermutationSizes, IsBijection)
{
    u64 size = GetParam();
    RandomPermutation perm(size, 1234);
    std::set<u64> images;
    for (u64 i = 0; i < size; ++i) {
        u64 img = perm.map(i);
        ASSERT_LT(img, size);
        images.insert(img);
    }
    EXPECT_EQ(images.size(), size);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PermutationSizes,
                         ::testing::Values(1, 2, 3, 16, 100, 1000, 4096,
                                           5000));

TEST(Permutation, SeedChangesMapping)
{
    RandomPermutation a(1024, 1), b(1024, 2);
    int differing = 0;
    for (u64 i = 0; i < 1024; ++i)
        differing += a.map(i) != b.map(i);
    EXPECT_GT(differing, 900);
}

TEST(Permutation, DeterministicAcrossInstances)
{
    RandomPermutation a(512, 99), b(512, 99);
    for (u64 i = 0; i < 512; ++i)
        EXPECT_EQ(a.map(i), b.map(i));
}

TEST(Parse, U64OrFatalRejectsValuesPastTheBound)
{
    // The bench --jobs= bound: a u32 count one past its range used to
    // truncate to 1 instead of failing.
    ScopedFatalCapture capture;
    EXPECT_EQ(parseU64OrFatal("--jobs", "4294967295", ~u32(0)),
              4294967295u);
    EXPECT_THROW(parseU64OrFatal("--jobs", "4294967297", ~u32(0)),
                 FatalError);
    EXPECT_THROW(parseU64OrFatal("--jobs", "x"), FatalError);
    EXPECT_EQ(parseU64OrFatal("--instr", "18446744073709551615"),
              ~u64(0));
}

TEST(Log, QuietFlagRoundTrip)
{
    setLogQuiet(true);
    EXPECT_TRUE(logQuiet());
    h2_warn("suppressed warning (not shown)");
    setLogQuiet(false);
    EXPECT_FALSE(logQuiet());
}

TEST(LogDeath, AssertPanics)
{
    EXPECT_DEATH(h2_assert(false, "boom"), "boom");
}

TEST(FlatMap64, InsertFindOverwrite)
{
    FlatMap64<u64> m;
    EXPECT_EQ(m.find(3), nullptr);
    m.set(3, 30);
    m.set(7, 70);
    ASSERT_NE(m.find(3), nullptr);
    EXPECT_EQ(*m.find(3), 30u);
    EXPECT_EQ(*m.find(7), 70u);
    m.set(3, 31);
    EXPECT_EQ(*m.find(3), 31u);
    EXPECT_EQ(m.size(), 2u);
}

TEST(FlatMap64, GrowsPastInitialCapacityAndMatchesReference)
{
    FlatMap64<u64> m(4);
    std::unordered_map<u64, u64> ref;
    Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
        u64 key = rng.below(5000);
        u64 value = rng.next();
        m.set(key, value);
        ref[key] = value;
    }
    EXPECT_EQ(m.size(), ref.size());
    for (const auto &[key, value] : ref) {
        ASSERT_NE(m.find(key), nullptr);
        ASSERT_EQ(*m.find(key), value);
    }
    EXPECT_EQ(m.find(999'999), nullptr);
}

TEST(FlatMap64Death, ReservedKey)
{
    FlatMap64<u64> m;
    EXPECT_DEATH(m.set(~u64(0), 1), "reserved");
}

TEST(ThreadPool, RunsAllTasksAcrossWorkers)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::atomic<u64> sum{0};
    for (u64 i = 1; i <= 1000; ++i)
        pool.submit([&sum, i] { sum += i; });
    pool.drain();
    EXPECT_EQ(sum.load(), 500500u);
}

TEST(ThreadPool, DrainIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> n{0};
    pool.submit([&] { ++n; });
    pool.drain();
    EXPECT_EQ(n.load(), 1);
    pool.submit([&] { ++n; });
    pool.submit([&] { ++n; });
    pool.drain();
    EXPECT_EQ(n.load(), 3);
}

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<int> n{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i)
            pool.submit([&] { ++n; });
    }
    EXPECT_EQ(n.load(), 64);
}

} // namespace
} // namespace h2
