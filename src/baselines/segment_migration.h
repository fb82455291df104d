/**
 * @file
 * Flat-space segment-migration engine shared by MemPod and LGM.
 *
 * NM and FM form one flat address space of fixed-size segments. An
 * in-memory remap table (kept in the baseline NM metadata region and
 * fronted by an on-chip RemapCache) maps each flat segment to its NM
 * or FM home. The engine serves every request, runs the interval
 * clock and performs NM<->FM segment swaps; a subclass supplies only
 * the policy: what an FM-served access counts (onFmAccess) and which
 * swaps run when an interval ends (endInterval).
 */

#pragma once

#include <string>

#include "baselines/remap_cache.h"
#include "core/remap_table.h"
#include "mem/hybrid_memory.h"

namespace h2::baselines {

class SegmentMigration : public mem::HybridMemory
{
  public:
    mem::MemResult access(Addr addr, AccessType type, Tick now) override;
    u64 flatCapacity() const override { return sys.nmBytes + sys.fmBytes; }
    void collectStats(StatSet &out) const override;
    void resetStats() override;

    u64 migrations() const { return nMigrations; }
    core::Loc locate(u64 flatSeg) const { return remap.lookup(flatSeg); }

  protected:
    /** @p statPrefix names the design's stat keys ("mempod", "lgm"). */
    SegmentMigration(const mem::MemSystemParams &sysParams,
                     u32 segmentBytes, Tick intervalPs,
                     std::string statPrefix);

    /** Count one FM-served access to flat segment @p seg. */
    virtual void onFmAccess(u64 seg) = 0;

    /** Choose and run this interval's swaps and start counting the
     *  next interval. Runs on the first request past the boundary;
     *  swap reads serialize onto @p tl. */
    virtual void endInterval(mem::Timeline &tl) = 0;

    /** Flat segment currently held by NM location @p nmLoc. */
    u64 residentAt(u64 nmLoc) const;

    /**
     * Swap FM-resident @p hotSeg with the segment at NM location
     * @p nmLoc. Copies @p hotBytes of the hot segment into NM and
     * @p victimBytes of the victim into the hot segment's FM home (0
     * skips that copy). Both reads issue together and serialize onto
     * @p tl; the two writes and the two remap-table updates are posted.
     */
    void swapSegments(u64 hotSeg, u64 nmLoc, u32 hotBytes, u32 victimBytes,
                      mem::Timeline &tl);

    /** One 64 B remap-table access in the NM metadata region. */
    void
    remapTableAccess(AccessType type, mem::Timeline &tl)
    {
        nmMetaRegionAccess(type, baselineMetaRegionBytes(), tl);
    }

    const u32 segmentBytes;
    const u64 nmSegs;

  private:
    const u64 fmSegs;
    const Tick intervalPs;
    const std::string prefix;
    core::RemapTable remap;
    RemapCache remapCache;
    Tick nextInterval;

    u64 nMigrations = 0;
    u64 nIntervals = 0;
};

} // namespace h2::baselines
