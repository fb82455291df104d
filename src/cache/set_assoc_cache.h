/**
 * @file
 * Generic set-associative tag store.
 *
 * Used for the SRAM hierarchy (L1/L2/LLC) and as the tag structure of
 * several DRAM-cache baselines. Purely functional+statistical: it tracks
 * presence/dirtiness, not data values. A TagArray keyed by line number
 * holds the tags, the LRU state and the dirty bits.
 */

#pragma once

#include <optional>
#include <string>

#include "cache/tag_array.h"
#include "common/stats.h"
#include "common/types.h"

namespace h2::cache {

/** Geometry of a SetAssocCache (replacement is LRU). */
struct CacheParams
{
    std::string name = "cache";
    u64 sizeBytes = 0;
    u32 ways = 1;
    u32 lineBytes = 64;
};

/** A line evicted by an insertion. */
struct Eviction
{
    Addr addr = 0;   ///< base address of the victim line
    bool dirty = false;
};

/** Set-associative, write-back, write-allocate tag store. */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheParams &params);

    /**
     * Look up @p addr; on hit, refresh replacement state and apply the
     * dirty bit for writes.
     * @return true on hit.
     */
    bool access(Addr addr, AccessType type);

    /** Look up without disturbing replacement state or stats. */
    bool
    probe(Addr addr) const
    {
        return lines.find(blockIndex(addr)) != npos;
    }

    /** True if present and dirty. */
    bool probeDirty(Addr addr) const;

    /**
     * Insert the line containing @p addr (it must not be present).
     * @return the evicted line, if any valid line had to make room.
     */
    std::optional<Eviction> insert(Addr addr, bool dirty);

    /** Remove the line containing @p addr if present.
     *  @return the removed line's dirtiness. */
    std::optional<bool> invalidate(Addr addr);

    /** Mark the line containing @p addr dirty; it must be present. */
    void setDirty(Addr addr);

    /** Number of valid lines whose addresses fall in
     *  [@p base, @p base + @p bytes). */
    u32 residentLinesInRange(Addr base, u64 bytes) const;

    const CacheParams &params() const { return cfg; }
    u32 numSets() const { return static_cast<u32>(lines.numSets()); }
    u64 numValidLines() const { return lines.numValid(); }

    u64 hits() const { return lines.hits(); }
    u64 misses() const { return lines.misses(); }
    u64 evictions() const { return nEvictions; }
    u64 dirtyEvictions() const { return nDirtyEvictions; }

    /** Zero the counters (contents are kept; used after warm-up). */
    void resetStats();

    void collectStats(StatSet &out, const std::string &prefix) const;

  private:
    static constexpr u64 npos = TagArray<u8>::npos;

    u64
    blockIndex(Addr addr) const
    {
        return linePow2 ? addr >> lineShift : addr / cfg.lineBytes;
    }

    CacheParams cfg;
    bool linePow2;
    u32 lineShift = 0;
    TagArray<u8> lines; ///< keyed by line number; payload = dirty bit
    u64 nEvictions = 0;
    u64 nDirtyEvictions = 0;
};

} // namespace h2::cache
