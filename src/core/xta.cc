#include "core/xta.h"

#include "common/log.h"

namespace h2::core {

namespace {

u64
roundedSets(u64 numSectors, u32 ways, u32 linesPerSector)
{
    h2_assert(ways > 0 && numSectors >= ways,
              "XTA needs at least one full set");
    h2_assert(numSectors % ways == 0, "XTA sectors not divisible by ways");
    h2_assert(linesPerSector >= 1 && linesPerSector <= 64,
              "valid/dirty vectors support 1..64 lines per sector, got ",
              linesPerSector);
    // Round the set count down to a power of two (see the header
    // comment) so setOf/tagOf are a mask and a shift on the hot path.
    return u64(1) << floorLog2(numSectors / ways);
}

} // namespace

Xta::Xta(u64 numSectors, u32 ways, u32 linesPerSector)
    : arr(roundedSets(numSectors, ways, linesPerSector), ways),
      lps(linesPerSector)
{
}

void
Xta::fill(u64 flatSector, XtaEntry &entry)
{
    arr.fill(arr.slotOf(entry), flatSector);
    entry.validMask = 0;
    entry.dirtyMask = 0;
    entry.accessCounter = 0;
}

u64
Xta::storageBytes() const
{
    // Per entry: tag (~4 B), valid+dirty vectors (2 * lps bits),
    // 9-bit counter, two pointers (~4 B each), LRU (~1 B).
    u64 bitsPerEntry = 32 + 2 * lps + 9 + 2 * 32 + 8;
    return ceilDiv(capacitySectors() * bitsPerEntry, 8);
}

void
Xta::collectStats(StatSet &out, const std::string &prefix) const
{
    out.add(prefix + ".hits", double(hits()));
    out.add(prefix + ".misses", double(misses()));
    out.add(prefix + ".storageBytes", double(storageBytes()));
}

} // namespace h2::core
