/**
 * @file
 * The eXtended Tag Array (paper section 3.2).
 *
 * An on-chip, set-associative tag array for the sectored DRAM cache,
 * extended with the fields that unify cache and migration metadata:
 * per-line valid/dirty vectors, a per-sector access counter, and NM/FM
 * location pointers. The NM pointer decouples an XTA way from the
 * physical NM location of its data (indirection), which is what lets
 * Hybrid2 promote a cached sector to a migrated one without copying.
 *
 * The tags, the LRU state and the hit/miss counters are a
 * cache::TagArray keyed by flat sector number, the same engine as the
 * SRAM caches; the XtaEntry payload lane carries the Hybrid2 fields.
 *
 * Set-count rounding: the number of sets is rounded DOWN to a power of
 * two so the per-access setOf/tagOf split is a mask/shift instead of a
 * div/mod (real tag arrays index with address bits the same way). Every
 * paper configuration (power-of-two cache, sector and line sizes)
 * already yields a power-of-two set count, so rounding only affects
 * exotic geometries, where it slightly shrinks capacitySectors().
 */

#pragma once

#include "cache/tag_array.h"
#include "common/stats.h"
#include "common/types.h"

namespace h2::core {

/** Payload of one XTA entry (Figure 4 of the paper).
 *
 *  The presence bit, the tag and the LRU stamp do NOT live here: they
 *  sit in the tag array's contiguous lanes (struct-of-arrays), so the
 *  per-access way scan touches one cache line of tags instead of
 *  striding over full entries. Use Xta::entryValid / Xta::entryTag to
 *  read them and Xta::releaseWay to invalidate. */
struct XtaEntry
{
    u64 validMask = 0;    ///< per-line presence in NM
    u64 dirtyMask = 0;    ///< per-line dirtiness
    u32 accessCounter = 0;
    u64 nmLoc = 0;        ///< NM location of the sector's data
    u64 fmLoc = 0;        ///< FM home while the sector lives in FM
    bool inFm = false;    ///< true: FM sector (fmLoc valid); false: NM

    u32 popcountValid() const { return __builtin_popcountll(validMask); }
    u32 popcountDirty() const { return __builtin_popcountll(dirtyMask); }
};

/** Set-associative XTA with LRU replacement. */
class Xta
{
  public:
    /**
     * @param numSectors total entries (DRAM-cache capacity in sectors)
     * @param ways       associativity
     * @param linesPerSector lines tracked by each valid/dirty vector
     */
    Xta(u64 numSectors, u32 ways, u32 linesPerSector);

    u64 numSets() const { return arr.numSets(); }
    u32 numWays() const { return arr.numWays(); }
    u64 capacitySectors() const { return arr.numSlots(); }
    u32 linesPerSector() const { return lps; }

    u64 setOf(u64 flatSector) const { return arr.setOf(flatSector); }
    u64 tagOf(u64 flatSector) const { return arr.tagOf(flatSector); }
    u64 flatSectorOf(u64 set, u64 tag) const { return arr.keyOf(set, tag); }
    u64
    flatSectorOf(u64 set, const XtaEntry &e) const
    {
        return flatSectorOf(set, entryTag(e));
    }

    /** Presence bit of an in-array entry (lives in the tag lane). */
    bool
    entryValid(const XtaEntry &e) const
    {
        return arr.valid(arr.slotOf(e));
    }

    /** Tag of an in-array entry (lives in the tag lane). */
    u64 entryTag(const XtaEntry &e) const { return arr.tag(arr.slotOf(e)); }

    /** Invalidate an in-array entry (clears its tag-lane slot). */
    void releaseWay(XtaEntry &e) { arr.release(arr.slotOf(e)); }

    /** Find the entry for @p flatSector; refreshes LRU on hit. */
    XtaEntry *
    find(u64 flatSector)
    {
        u64 slot = arr.lookup(flatSector);
        return slot == Array::npos ? nullptr : &arr.payload(slot);
    }

    /** Lookup without touching LRU or stats (allocator victim scan). */
    const XtaEntry *
    peek(u64 flatSector) const
    {
        u64 slot = arr.find(flatSector);
        return slot == Array::npos ? nullptr : &arr.payload(slot);
    }
    bool contains(u64 flatSector) const { return peek(flatSector); }

    /**
     * Pick the way that a new entry for @p flatSector will occupy:
     * an invalid way if one exists, otherwise the LRU way (whose current
     * contents the caller must handle first).
     */
    XtaEntry *
    victimWay(u64 flatSector)
    {
        return &arr.payload(arr.victim(setOf(flatSector)));
    }

    /** Initialize @p entry for @p flatSector and refresh LRU. */
    void fill(u64 flatSector, XtaEntry &entry);

    /** Direct entry access for invariant checks and tests. */
    const XtaEntry &
    entryAt(u64 set, u32 way) const
    {
        return arr.payload(arr.slotAt(set, way));
    }

    /** Iterate the other valid entries of @p flatSector's set. */
    template <typename Fn>
    void
    forOthersInSet(u64 flatSector, const XtaEntry &self, Fn &&fn) const
    {
        u64 selfSlot = arr.slotOf(self);
        arr.forEachValid(setOf(flatSector), [&](u64 slot) {
            if (slot != selfSlot)
                fn(arr.payload(slot));
        });
    }

    /** Estimated on-chip SRAM footprint of the array in bytes
     *  (paper: must stay under ~512 KB). */
    u64 storageBytes() const;

    u64 hits() const { return arr.hits(); }
    u64 misses() const { return arr.misses(); }

    /** Zero hit/miss counters after warm-up; LRU state is kept. */
    void resetStats() { arr.resetStats(); }

    void collectStats(StatSet &out, const std::string &prefix) const;

  private:
    using Array = cache::TagArray<XtaEntry>;

    Array arr;
    u32 lps;
};

} // namespace h2::core
