/**
 * @file
 * Unit tests for the queued memory controller (mem/mem_controller.h):
 * FR-FCFS row-hit-first dispatch, write-drain hysteresis, the idle
 * drain starvation bound, queue=off passthrough bit-identity against a
 * bare device, and zero-traffic stat hygiene.
 *
 * Address map cheat sheet for DDR4-3200 at 256 MiB (2 channels,
 * interleave 256 B, 2 KiB rows, 8 banks): addr 0 and addr 512 land on
 * channel 0 / bank 0 / row 0; addr 32768 lands on channel 0 / bank 0 /
 * row 1; addr 256 lands on channel 1.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/units.h"
#include "mem/mem_controller.h"

namespace h2::mem {
namespace {

dram::DramParams
ddr()
{
    return dram::DramParams::ddr4_3200(256 * MiB);
}

QueueParams
queueOn()
{
    return QueueParams{};
}

QueueParams
queueOff()
{
    QueueParams q;
    q.enabled = false;
    return q;
}

// ---------------------------------------------------------------------
// queue=off passthrough
// ---------------------------------------------------------------------

TEST(MemControllerOff, AccessAndPostForwardVerbatim)
{
    // With queues disabled the controller must be a transparent shim:
    // same completion ticks and same device counters as driving the
    // device directly, for an arbitrary interleaved sequence.
    dram::DramDevice devA(ddr());
    dram::DramDevice devB(ddr());
    MemController ctrl(devA, queueOff());

    u64 state = 12345;
    Tick now = 0;
    for (int i = 0; i < 500; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        Addr addr = (state >> 16) % (255 * MiB);
        u32 bytes = 64u << ((state >> 8) % 3);
        now += state % 5000;
        if (i % 3 == 2) {
            ASSERT_EQ(ctrl.post(addr, bytes, now),
                      devB.access(addr, bytes, AccessType::Write, now))
                << "op " << i;
        } else {
            AccessType t =
                i % 3 ? AccessType::Write : AccessType::Read;
            ASSERT_EQ(ctrl.access(addr, bytes, t, now),
                      devB.access(addr, bytes, t, now))
                << "op " << i;
        }
    }
    EXPECT_EQ(devA.stats().reads, devB.stats().reads);
    EXPECT_EQ(devA.stats().writes, devB.stats().writes);
    EXPECT_EQ(devA.stats().bytesRead, devB.stats().bytesRead);
    EXPECT_EQ(devA.stats().bytesWritten, devB.stats().bytesWritten);
    EXPECT_EQ(devA.stats().rowHits, devB.stats().rowHits);
    EXPECT_EQ(devA.stats().rowMisses, devB.stats().rowMisses);
    EXPECT_EQ(devA.stats().activations, devB.stats().activations);
    // Nothing ever queues in passthrough mode.
    EXPECT_EQ(ctrl.queuedWrites(), 0u);
    EXPECT_EQ(ctrl.drainEpisodes(), 0u);
    EXPECT_DOUBLE_EQ(ctrl.avgReadQueueDelayPs(), 0.0);
    EXPECT_DOUBLE_EQ(ctrl.avgWriteQueueDelayPs(), 0.0);
}

TEST(MemControllerOff, PostDispatchesImmediately)
{
    dram::DramDevice dev(ddr());
    MemController ctrl(dev, queueOff());
    Tick done = ctrl.post(0, 64, 1000);
    EXPECT_GT(done, 1000u); // device latency, not the enqueue echo
    EXPECT_EQ(dev.stats().writes, 1u);
    EXPECT_EQ(ctrl.queuedWrites(), 0u);
}

// ---------------------------------------------------------------------
// queue=on: deferral, FR-FCFS, hysteresis, starvation bound
// ---------------------------------------------------------------------

TEST(MemController, PostedWritesDeferUntilDrain)
{
    dram::DramDevice dev(ddr());
    MemController ctrl(dev, queueOn());

    EXPECT_EQ(ctrl.post(0, 64, 1000), 1000u);   // echo of readyAt
    EXPECT_EQ(ctrl.post(512, 64, 2000), 2000u);
    EXPECT_EQ(ctrl.post(1024, 64, 3000), 3000u);
    EXPECT_EQ(dev.stats().writes, 0u) << "writes must not touch the "
                                         "device before a drain";
    EXPECT_EQ(ctrl.queuedWrites(), 3u);

    Tick last = ctrl.drainAll(10000);
    EXPECT_GE(last, 10000u);
    EXPECT_EQ(dev.stats().writes, 3u);
    EXPECT_EQ(dev.stats().bytesWritten, 192u);
    EXPECT_EQ(ctrl.queuedWrites(), 0u);
}

TEST(MemController, FrFcfsDispatchesRowHitBeforeOlderRowMiss)
{
    dram::DramDevice dev(ddr());
    MemController ctrl(dev, queueOn());

    // Open row 1 of channel 0 / bank 0.
    ctrl.access(32768, 64, AccessType::Read, 0);
    ASSERT_TRUE(dev.wouldRowHit(32768 + 64));
    ASSERT_FALSE(dev.wouldRowHit(0));

    // Older row-miss (row 0) queued ahead of a younger row-hit (row 1).
    ctrl.post(0, 64, 100000);
    ctrl.post(32768 + 64, 64, 100001);
    u64 hitsBefore = dev.stats().rowHits;

    ctrl.drainAll(200000);
    // The younger write bypassed the older one and landed in the still
    // open row; strict FCFS would have closed row 1 first and scored
    // two row-misses.
    EXPECT_EQ(ctrl.rowHitBypasses(), 1u);
    EXPECT_EQ(dev.stats().rowHits, hitsBefore + 1);
}

TEST(MemController, WriteDrainHysteresis)
{
    dram::DramDevice dev(ddr());
    QueueParams q;
    q.writeHighWatermark = 4;
    q.writeLowWatermark = 1;
    MemController ctrl(dev, q);

    // Distinct chunks on channel 0, all below the high watermark.
    ctrl.post(0, 64, 1000);
    ctrl.post(512, 64, 2000);
    ctrl.post(1024, 64, 3000);
    EXPECT_EQ(ctrl.drainEpisodes(), 0u);
    EXPECT_EQ(dev.stats().writes, 0u);

    // The fourth enqueue hits the watermark: one episode drains the
    // queue down to the low watermark, no further.
    ctrl.post(1536, 64, 4000);
    EXPECT_EQ(ctrl.drainEpisodes(), 1u);
    EXPECT_EQ(ctrl.queuedWrites(), 1u);
    EXPECT_EQ(dev.stats().writes, 3u);

    // Refilling repeats the cycle (hysteresis, not one-shot).
    ctrl.post(2048, 64, 5000);
    ctrl.post(2560, 64, 6000);
    EXPECT_EQ(ctrl.drainEpisodes(), 1u);
    ctrl.post(3072, 64, 7000);
    EXPECT_EQ(ctrl.drainEpisodes(), 2u);
    EXPECT_EQ(ctrl.queuedWrites(), 1u);
}

TEST(MemController, IdleDrainIssuesIntoGapWithoutDelayingTheRead)
{
    // Starvation bound: a lone queued write must be flushed by the
    // next demand access that finds the channel idle, and because it
    // is issued retroactively at its ready tick it reproduces the
    // immediate-dispatch timing exactly — including the read behind it.
    dram::DramDevice devA(ddr());
    dram::DramDevice devB(ddr());
    MemController ctrl(devA, queueOn());

    ctrl.post(0, 64, 1000);
    Tick readDoneA = ctrl.access(32768, 64, AccessType::Read, 10000000);

    devB.access(0, 64, AccessType::Write, 1000);
    Tick readDoneB = devB.access(32768, 64, AccessType::Read, 10000000);

    EXPECT_EQ(readDoneA, readDoneB);
    EXPECT_EQ(devA.stats().writes, 1u);
    EXPECT_EQ(ctrl.queuedWrites(), 0u);
    // Issued into the idle gap at its ready tick: zero residency.
    EXPECT_DOUBLE_EQ(ctrl.avgWriteQueueDelayPs(), 0.0);
}

TEST(MemController, IdleDrainSkipsWritesThatWouldDelayTheRead)
{
    // A write whose service cannot complete by the read's arrival tick
    // stays queued (read priority): the read must observe the same
    // timing as if the write did not exist.
    dram::DramDevice devA(ddr());
    dram::DramDevice devB(ddr());
    MemController ctrl(devA, queueOn());

    // Ready "just before" the read: no idle gap to hide in.
    ctrl.post(0, 64, 9999999);
    Tick readDoneA = ctrl.access(32768, 64, AccessType::Read, 10000000);
    Tick readDoneB = devB.access(32768, 64, AccessType::Read, 10000000);

    EXPECT_EQ(readDoneA, readDoneB);
    EXPECT_EQ(ctrl.queuedWrites(), 1u) << "the write must wait for a "
                                          "drain, not push the read";
    EXPECT_EQ(devA.stats().writes, 0u);
}

TEST(MemController, ReadQueueDelayReflectsContention)
{
    dram::DramDevice dev(ddr());
    MemController ctrl(dev, queueOn());

    // Widely spaced reads: no serialized wait, delay stays zero.
    ctrl.access(0, 64, AccessType::Read, 0);
    ctrl.access(512, 64, AccessType::Read, 10000000);
    EXPECT_DOUBLE_EQ(ctrl.avgReadQueueDelayPs(), 0.0);

    // A same-instant burst on one bank serializes behind bus/bank
    // occupancy: mean delay must become positive.
    for (int i = 0; i < 8; ++i)
        ctrl.access(Addr(i) * 512, 64, AccessType::Read, 20000000);
    EXPECT_GT(ctrl.avgReadQueueDelayPs(), 0.0);
    EXPECT_EQ(ctrl.demandAccesses(), 10u);
}

TEST(MemController, ResetStatsPreservesQueueContents)
{
    dram::DramDevice dev(ddr());
    MemController ctrl(dev, queueOn());

    ctrl.post(0, 64, 1000);
    ctrl.post(512, 64, 2000);
    ctrl.resetStats();

    // Stats are cleared, state is not: the queued writes still exist
    // and still drain.
    EXPECT_EQ(ctrl.queuedWrites(), 2u);
    EXPECT_EQ(ctrl.drainEpisodes(), 0u);
    EXPECT_DOUBLE_EQ(ctrl.avgWriteQueueDelayPs(), 0.0);
    ctrl.drainAll(100000);
    EXPECT_EQ(dev.stats().writes, 2u);
}

TEST(MemController, MultiChunkPostSplitsAcrossChannels)
{
    dram::DramDevice dev(ddr());
    MemController ctrl(dev, queueOn());

    // 512 B from 0 covers chunks on channel 0 and channel 1.
    ctrl.post(0, 512, 1000);
    EXPECT_EQ(ctrl.queuedWrites(), 2u);
    ctrl.drainAll(10000);
    EXPECT_EQ(dev.stats().bytesWritten, 512u);
}

TEST(MemController, UnalignedMultiChunkPostEnqueuesOneEntryPerPiece)
{
    dram::DramDevice dev(ddr());
    MemController ctrl(dev, queueOn());

    // [200, 600) splits at 256 and 512: 56 B on channel 0, 256 B on
    // channel 1, 88 B on channel 0 again.
    u64 pieces = 0;
    dev.forEachChunk(200, 400, [&](Addr, u32, u32, u64, u64) { ++pieces; });
    ASSERT_EQ(pieces, 3u);
    ctrl.post(200, 400, 1000);
    EXPECT_EQ(ctrl.queuedWrites(), pieces);
    ctrl.drainAll(10000);
    EXPECT_EQ(ctrl.queuedWrites(), 0u);
    EXPECT_EQ(dev.stats().writes, pieces);
    EXPECT_EQ(dev.stats().bytesWritten, 400u);
}

// ---------------------------------------------------------------------
// stat hygiene
// ---------------------------------------------------------------------

TEST(MemController, ZeroTrafficStatsAreZeroAndFinite)
{
    // Satellite audit: every queue stat must render as exactly 0 (not
    // NaN, not garbage) before any traffic exists.
    dram::DramDevice dev(ddr());
    MemController ctrl(dev, queueOn());

    StatSet s;
    ctrl.collectStats(s, "q");
    for (const char *key :
         {"q.avgReadQueueDelayPs", "q.avgWriteQueueDelayPs",
          "q.drainEpisodes", "q.rowHitBypasses", "q.queuedWrites",
          "q.readDepthMean", "q.readDepthMax", "q.writeDepthMean",
          "q.writeDepthMax"}) {
        ASSERT_TRUE(s.has(key)) << key;
        EXPECT_TRUE(std::isfinite(s.get(key))) << key;
        EXPECT_DOUBLE_EQ(s.get(key), 0.0) << key;
    }
}

TEST(MemControllerDeath, WatermarksMustBeOrdered)
{
    dram::DramDevice dev(ddr());
    QueueParams q;
    q.writeHighWatermark = 4;
    q.writeLowWatermark = 4;
    EXPECT_DEATH(MemController(dev, q), "low < high");
}

} // namespace
} // namespace h2::mem
