/**
 * @file
 * Remap table and inverted remap table (paper section 3.3).
 *
 * Hybrid2 keeps an all-to-all sector remap table (processor physical
 * sector -> current NM/FM location) plus an inverted table (NM location
 * -> resident processor sector) in a reserved slice of NM. This module
 * implements both *functionally*, sized to what a run touches: the
 * forward table keeps sparse overrides of the initial identity layout,
 * and the inverted table is one dense lane with an entry per NM
 * location. The DCMC charges NM traffic for each logical access.
 *
 * Initial layout: flat sectors [0, nmFlatSectors) live in the NM flat
 * region (NM locations [cacheSectors, nmLocs)); the remaining flat
 * sectors live in FM identity-mapped. NM locations [0, cacheSectors)
 * start as the DRAM cache's boot data region and hold no flat sector.
 */

#pragma once

#include <optional>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"

namespace h2::core {

/** A sector-granular location in the memory system. */
struct Loc
{
    bool inNm = false;
    u64 idx = 0; ///< NM location index or FM sector index

    bool operator==(const Loc &o) const
    {
        return inNm == o.inNm && idx == o.idx;
    }
};

/** Combined remap + inverted remap tables over the identity layout. */
class RemapTable
{
  public:
    /**
     * @param flatSectors   size of the processor physical space (sectors)
     * @param nmFlatSectors flat sectors initially resident in NM
     * @param cacheSectors  NM locations initially owned by the DRAM cache
     * @param fmSectors     FM capacity in sectors
     */
    RemapTable(u64 flatSectors, u64 nmFlatSectors, u64 cacheSectors,
               u64 fmSectors);

    /** Current location of @p flatSector. */
    Loc lookup(u64 flatSector) const;

    /** Point @p flatSector at @p loc. */
    void update(u64 flatSector, Loc loc);

    /** Which flat sector's data occupies NM location @p nmLoc, if any. */
    std::optional<u64> invLookup(u64 nmLoc) const;

    /** Set (or clear, with nullopt) the occupant of @p nmLoc. */
    void invUpdate(u64 nmLoc, std::optional<u64> flatSector);

    u64 flatSectors() const { return nFlat; }
    u64 nmFlatSectors() const { return nNmFlat; }
    u64 fmSectors() const { return nFm; }
    u64 cacheSectors() const { return nCache; }

    /** Number of explicitly overridden (non-identity) entries. */
    u64 overrides() const { return remapOverride.size(); }

  private:
    /** invLane entry of an NM location that holds no flat sector. */
    static constexpr u64 kNoSector = ~u64(0);

    u64 nFlat;
    u64 nNmFlat;
    u64 nCache;
    u64 nFm;
    /** Sparse overrides of the identity layout, keyed by flat sector,
     *  value = Loc packed as idx << 1 | inNm. Left at FlatMap64's
     *  capped starting size and grown on demand: a run overrides a
     *  fraction of the NM sector count, so sizing the map to that
     *  bound up-front would mostly zero slots that stay empty. */
    FlatMap64<u64> remapOverride;
    /** Resident flat sector of every NM location, or kNoSector;
     *  initialised to the identity layout. */
    std::vector<u64> invLane;
};

} // namespace h2::core
