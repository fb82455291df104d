#include "mem/mem_controller.h"

#include <algorithm>

#include "common/log.h"

namespace h2::mem {

MemController::MemController(dram::DramDevice &device,
                             const QueueParams &params)
    : dev(device), cfg(params)
{
    h2_assert(cfg.writeLowWatermark < cfg.writeHighWatermark,
              "write-drain watermarks must satisfy low < high (got low=",
              cfg.writeLowWatermark, " high=", cfg.writeHighWatermark, ")");
    u32 n = dev.channelCount();
    writeQ.resize(n);
    inflight.resize(n);
}

size_t
MemController::pickFrFcfs(const std::vector<QueuedWrite> &q,
                          bool &bypass) const
{
    size_t oldest = 0;
    size_t oldestHit = q.size(); // sentinel: none
    for (size_t i = 0; i < q.size(); ++i) {
        if (q[i].seq < q[oldest].seq)
            oldest = i;
        if (dev.wouldRowHit(q[i].addr) &&
            (oldestHit == q.size() || q[i].seq < q[oldestHit].seq))
            oldestHit = i;
    }
    if (oldestHit != q.size() && oldestHit != oldest) {
        bypass = true;
        return oldestHit;
    }
    bypass = false;
    return oldestHit != q.size() ? oldestHit : oldest;
}

Tick
MemController::dispatchWrite(u32 ch, size_t idx, Tick issueTick)
{
    QueuedWrite w = writeQ[ch][idx];
    writeQ[ch].erase(writeQ[ch].begin() + idx);
    writeDelay.sample(
        double(issueTick > w.readyAt ? issueTick - w.readyAt : 0));
    Tick done = dev.access(w.addr, w.bytes, AccessType::Write, issueTick);
    trackInflight(ch, done);
    return done;
}

void
MemController::idleDrain(u32 ch, Tick now)
{
    auto &q = writeQ[ch];
    while (!q.empty()) {
        bool bypass = false;
        size_t idx = pickFrFcfs(q, bypass);
        const QueuedWrite &w = q[idx];
        Tick issueTick = std::min(w.readyAt, now);
        // Dispatch only writes that fit entirely into the idle gap
        // before `now`: the drain must never delay the demand access
        // it runs in front of (read priority).
        if (dev.probeChunkDone(w.addr, w.bytes, issueTick) > now)
            break;
        if (bypass)
            ++nRowHitBypasses;
        dispatchWrite(ch, idx, issueTick);
    }
}

void
MemController::forcedDrain(u32 ch, Tick now)
{
    ++nDrainEpisodes;
    auto &q = writeQ[ch];
    while (q.size() > cfg.writeLowWatermark) {
        bool bypass = false;
        size_t idx = pickFrFcfs(q, bypass);
        if (bypass)
            ++nRowHitBypasses;
        dispatchWrite(ch, idx, now);
    }
}

void
MemController::trackInflight(u32 ch, Tick doneAt)
{
    inflight[ch].push_back(doneAt);
}

void
MemController::sampleReadDepth(u32 ch, Tick now)
{
    auto &v = inflight[ch];
    v.erase(std::remove_if(v.begin(), v.end(),
                           [now](Tick t) { return t <= now; }),
            v.end());
    readDepthDist.sample(double(v.size()));
}

Tick
MemController::access(Addr addr, u32 bytes, AccessType type, Tick now)
{
    if (!cfg.enabled)
        return dev.access(addr, bytes, type, now);

    // Walk the chunks the device will split this request into: sweep
    // idle-gap writes on each touched channel, then measure the wait
    // the request will serialize behind (bus + bank occupancy left by
    // earlier traffic, including any forced write drains).
    Tick queueDelay = 0;
    dev.forEachChunk(addr, bytes, [&](Addr, u32, u32 ch, u64 bank, u64) {
        idleDrain(ch, now);
        if (type == AccessType::Read)
            sampleReadDepth(ch, now);
        Tick waitUntil =
            std::max(dev.channelBusUntil(ch), dev.bankReadyAt(ch, bank));
        if (waitUntil > now)
            queueDelay = std::max(queueDelay, waitUntil - now);
    });
    if (type == AccessType::Read) {
        ++nReads;
        readDelay.sample(double(queueDelay));
    }

    Tick done = dev.access(addr, bytes, type, now);

    dev.forEachChunk(addr, bytes, [&](Addr, u32, u32 ch, u64, u64) {
        trackInflight(ch, dev.channelBusUntil(ch));
    });
    return done;
}

Tick
MemController::post(Addr addr, u32 bytes, Tick readyAt)
{
    if (!cfg.enabled) {
        // Pre-controller behavior: the posted write dispatches the
        // moment its data is ready; the device clamps to bank/bus
        // availability.
        return dev.access(addr, bytes, AccessType::Write, readyAt);
    }
    dev.forEachChunk(addr, bytes, [&](Addr cur, u32 take, u32 ch, u64, u64) {
        auto &q = writeQ[ch];
        writeDepthDist.sample(double(q.size()));
        q.push_back({cur, take, readyAt, nextSeq++});
        if (q.size() >= cfg.writeHighWatermark)
            forcedDrain(ch, readyAt);
    });
    return readyAt;
}

Tick
MemController::drainChannel(u32 ch, Tick now)
{
    Tick last = now;
    auto &q = writeQ[ch];
    while (!q.empty()) {
        bool bypass = false;
        size_t idx = pickFrFcfs(q, bypass);
        if (bypass)
            ++nRowHitBypasses;
        Tick issueTick = std::max(now, q[idx].readyAt);
        last = std::max(last, dispatchWrite(ch, idx, issueTick));
    }
    return last;
}

Tick
MemController::drainAll(Tick now)
{
    Tick last = now;
    for (u32 ch = 0; ch < writeQ.size(); ++ch)
        last = std::max(last, drainChannel(ch, now));
    return last;
}

u64
MemController::queuedWrites() const
{
    u64 n = 0;
    for (const auto &q : writeQ)
        n += q.size();
    return n;
}

void
MemController::resetStats()
{
    nReads = 0;
    nDrainEpisodes = 0;
    nRowHitBypasses = 0;
    readDelay.reset();
    writeDelay.reset();
    readDepthDist.reset();
    writeDepthDist.reset();
}

void
MemController::collectStats(StatSet &out, const std::string &prefix) const
{
    out.add(prefix + ".avgReadQueueDelayPs", avgReadQueueDelayPs());
    out.add(prefix + ".avgWriteQueueDelayPs", avgWriteQueueDelayPs());
    out.add(prefix + ".drainEpisodes", double(nDrainEpisodes));
    out.add(prefix + ".rowHitBypasses", double(rowHitBypasses()));
    out.add(prefix + ".queuedWrites", double(queuedWrites()));
    out.add(prefix + ".readDepthMean", readDepthDist.mean());
    out.add(prefix + ".readDepthMax", readDepthDist.max());
    out.add(prefix + ".writeDepthMean", writeDepthDist.mean());
    out.add(prefix + ".writeDepthMax", writeDepthDist.max());
}

} // namespace h2::mem
