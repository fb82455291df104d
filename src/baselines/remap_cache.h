/**
 * @file
 * On-chip remap-entry cache used by the migration baselines.
 *
 * MemPod, LGM (through SegmentMigration) and Chameleon keep their full
 * remap tables in the NM metadata region and cache recently used
 * entries on-chip; DFC uses one as its fused tag cache. A miss costs
 * the caller one HybridMemory::nmMetaRegionAccess read. Per the
 * paper's methodology the remap cache of every baseline is sized equal
 * to Hybrid2's XTA (512 KB) for a fair comparison.
 */

#pragma once

#include "cache/set_assoc_cache.h"
#include "common/types.h"

namespace h2::baselines {

class RemapCache
{
  public:
    /**
     * @param storageBytes on-chip SRAM budget (default 512 KB)
     * @param entryBytes   bytes per cached remap entry
     * @param ways         associativity
     */
    explicit RemapCache(u64 storageBytes = 512 * 1024, u32 entryBytes = 8,
                        u32 ways = 16);

    /** Look up the remap entry of @p segment; true on hit. On a miss the
     *  entry is installed (the caller charges the in-memory table read). */
    bool lookup(u64 segment);

    /** Drop the entry of @p segment (after a remap update). */
    void invalidate(u64 segment);

    u64 hits() const { return tags.hits(); }
    u64 misses() const { return tags.misses(); }

    /** Zero hit/miss counters after warm-up; contents are kept. */
    void resetStats() { tags.resetStats(); }

  private:
    cache::SetAssocCache tags;
};

} // namespace h2::baselines
