#include "baselines/segment_migration.h"

#include <algorithm>
#include <utility>

#include "common/log.h"

namespace h2::baselines {

SegmentMigration::SegmentMigration(const mem::MemSystemParams &sysParams,
                                   u32 segBytes, Tick interval,
                                   std::string statPrefix)
    : mem::HybridMemory(sysParams,
                        dram::DramParams::hbm2(sysParams.nmBytes),
                        dram::DramParams::farMemory(sysParams.fmTech,
                                                    sysParams.fmBytes)),
      segmentBytes(segBytes),
      nmSegs(sysParams.nmBytes / segBytes),
      fmSegs(sysParams.fmBytes / segBytes),
      intervalPs(interval),
      prefix(std::move(statPrefix)),
      remap(nmSegs + fmSegs, nmSegs, 0, fmSegs),
      nextInterval(interval)
{
}

u64
SegmentMigration::residentAt(u64 nmLoc) const
{
    auto resident = remap.invLookup(nmLoc);
    h2_assert(resident, name(), " NM location with no resident");
    return *resident;
}

void
SegmentMigration::swapSegments(u64 hotSeg, u64 nmLoc, u32 hotBytes,
                               u32 victimBytes, mem::Timeline &tl)
{
    u64 victim = residentAt(nmLoc);
    core::Loc hotHome = remap.lookup(hotSeg);
    h2_assert(!hotHome.inNm, "hot segment already in NM");
    Addr nmAddr = nmLoc * u64(segmentBytes);
    Addr fmAddr = hotHome.idx * u64(segmentBytes);

    Tick base = tl.now();
    Tick copied = base;
    if (victimBytes > 0)
        copied = std::max(copied, nmc().access(nmAddr, victimBytes,
                                               AccessType::Read, base));
    if (hotBytes > 0)
        copied = std::max(copied, fmc().access(fmAddr, hotBytes,
                                               AccessType::Read, base));
    tl.serialize(copied);
    if (hotBytes > 0)
        postWrite(*nm, nmAddr, hotBytes, tl.now());
    if (victimBytes > 0)
        postWrite(*fm, fmAddr, victimBytes, tl.now());

    remap.update(hotSeg, core::Loc{true, nmLoc});
    remap.update(victim, core::Loc{false, hotHome.idx});
    remap.invUpdate(nmLoc, hotSeg);
    remapTableAccess(AccessType::Write, tl);
    remapTableAccess(AccessType::Write, tl);
    remapCache.invalidate(hotSeg);
    remapCache.invalidate(victim);
    ++nMigrations;
}

mem::MemResult
SegmentMigration::access(Addr addr, AccessType type, Tick now)
{
    h2_assert(addr + mem::llcLineBytes <= flatCapacity(),
              "access beyond flat capacity");
    mem::Timeline tl(now);
    tl.advance(sys.controllerLatencyPs);
    // Interval-end migrations run in the controller when the first
    // request past the boundary arrives; that request (and everything
    // behind it) waits for the swaps' serialized reads.
    while (now >= nextInterval) {
        endInterval(tl);
        ++nIntervals;
        nextInterval += intervalPs;
    }

    u64 seg = addr / segmentBytes;
    if (!remapCache.lookup(seg))
        remapTableAccess(AccessType::Read, tl);

    core::Loc loc = remap.lookup(seg);
    Addr devAddr = loc.idx * u64(segmentBytes) + addr % segmentBytes;
    mem::MemController &ctrl = loc.inNm ? nmc() : fmc();
    tl.serialize(ctrl.access(devAddr, mem::llcLineBytes, type, tl.now()));
    if (!loc.inNm)
        onFmAccess(seg);
    flushPostedWrites(tl);
    recordService(type, loc.inNm, tl);
    return {tl, loc.inNm};
}

void
SegmentMigration::resetStats()
{
    mem::HybridMemory::resetStats();
    remapCache.resetStats();
    nMigrations = 0;
    nIntervals = 0;
}

void
SegmentMigration::collectStats(StatSet &out) const
{
    mem::HybridMemory::collectStats(out);
    out.add(prefix + ".migrations", double(nMigrations));
    out.add(prefix + ".intervals", double(nIntervals));
    out.add(prefix + ".remapCacheHits", double(remapCache.hits()));
    out.add(prefix + ".remapCacheMisses", double(remapCache.misses()));
    out.add(prefix + ".metaReads", double(nmMetaReads()));
    out.add(prefix + ".metaWrites", double(nmMetaWrites()));
}

} // namespace h2::baselines
