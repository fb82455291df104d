#include "core/remap_table.h"

#include <numeric>

#include "common/log.h"

namespace h2::core {

namespace {

u64
pack(Loc loc)
{
    return loc.idx << 1 | u64(loc.inNm);
}

Loc
unpack(u64 packed)
{
    return Loc{(packed & 1) != 0, packed >> 1};
}

} // namespace

RemapTable::RemapTable(u64 flatSectors, u64 nmFlatSectors, u64 cacheSectors,
                       u64 fmSectors)
    : nFlat(flatSectors), nNmFlat(nmFlatSectors), nCache(cacheSectors),
      nFm(fmSectors), remapOverride(cacheSectors + nmFlatSectors),
      invLane(cacheSectors + nmFlatSectors, kNoSector)
{
    h2_assert(nFlat == nNmFlat + nFm,
              "flat space must be NM flat region + FM");
    // Identity layout: NM location nCache + s holds flat sector s, and
    // the cache region holds none.
    std::iota(invLane.begin() + static_cast<std::ptrdiff_t>(nCache),
              invLane.end(), u64(0));
}

Loc
RemapTable::lookup(u64 flatSector) const
{
    h2_assert(flatSector < nFlat, "remap lookup out of range: ", flatSector);
    if (const u64 *packed = remapOverride.find(flatSector))
        return unpack(*packed);
    if (flatSector < nNmFlat)
        return Loc{true, nCache + flatSector};
    return Loc{false, flatSector - nNmFlat};
}

void
RemapTable::update(u64 flatSector, Loc loc)
{
    h2_assert(flatSector < nFlat, "remap update out of range");
    if (loc.inNm)
        h2_assert(loc.idx < nCache + nNmFlat,
                  "remap to bad NM location ", loc.idx);
    else
        h2_assert(loc.idx < nFm, "remap to bad FM location ", loc.idx);
    remapOverride.set(flatSector, pack(loc));
}

std::optional<u64>
RemapTable::invLookup(u64 nmLoc) const
{
    h2_assert(nmLoc < nCache + nNmFlat, "invLookup out of range: ", nmLoc);
    u64 sector = invLane[nmLoc];
    if (sector == kNoSector)
        return std::nullopt;
    return sector;
}

void
RemapTable::invUpdate(u64 nmLoc, std::optional<u64> flatSector)
{
    h2_assert(nmLoc < nCache + nNmFlat, "invUpdate out of range");
    if (flatSector)
        h2_assert(*flatSector < nFlat, "invUpdate to bad flat sector");
    invLane[nmLoc] = flatSector.value_or(kNoSector);
}

} // namespace h2::core
