#include "cache/set_assoc_cache.h"

#include "common/log.h"

namespace h2::cache {

namespace {

u64
checkedSets(const CacheParams &cfg)
{
    h2_assert(cfg.sizeBytes > 0 && cfg.ways > 0 && cfg.lineBytes > 0,
              cfg.name, ": bad cache geometry");
    h2_assert(cfg.sizeBytes % (u64(cfg.ways) * cfg.lineBytes) == 0,
              cfg.name, ": size not divisible by ways*lineBytes");
    u64 sets = cfg.sizeBytes / (u64(cfg.ways) * cfg.lineBytes);
    h2_assert(sets > 0, cfg.name, ": zero sets");
    return sets;
}

} // namespace

SetAssocCache::SetAssocCache(const CacheParams &params)
    : cfg(params), linePow2(isPowerOf2(params.lineBytes)),
      lines(checkedSets(params), params.ways)
{
    if (linePow2)
        lineShift = floorLog2(cfg.lineBytes);
}

bool
SetAssocCache::access(Addr addr, AccessType type)
{
    u64 slot = lines.lookup(blockIndex(addr));
    if (slot == npos)
        return false;
    if (type == AccessType::Write)
        lines.payload(slot) = 1;
    return true;
}

bool
SetAssocCache::probeDirty(Addr addr) const
{
    u64 slot = lines.find(blockIndex(addr));
    return slot != npos && lines.payload(slot);
}

std::optional<Eviction>
SetAssocCache::insert(Addr addr, bool dirty)
{
    u64 block = blockIndex(addr);
    h2_assert(lines.find(block) == npos, cfg.name,
              ": double insert of addr ", addr);
    u64 set = lines.setOf(block);
    u64 slot = lines.victim(set);

    std::optional<Eviction> evicted;
    if (lines.valid(slot)) {
        bool wasDirty = lines.payload(slot) != 0;
        ++nEvictions;
        nDirtyEvictions += wasDirty;
        evicted = Eviction{lines.keyOf(set, lines.tag(slot)) * cfg.lineBytes,
                           wasDirty};
    }
    lines.fill(slot, block);
    lines.payload(slot) = dirty ? 1 : 0;
    return evicted;
}

std::optional<bool>
SetAssocCache::invalidate(Addr addr)
{
    u64 slot = lines.find(blockIndex(addr));
    if (slot == npos)
        return std::nullopt;
    lines.release(slot);
    return lines.payload(slot) != 0;
}

void
SetAssocCache::setDirty(Addr addr)
{
    u64 slot = lines.find(blockIndex(addr));
    h2_assert(slot != npos, cfg.name, ": setDirty on absent line ", addr);
    lines.payload(slot) = 1;
}

u32
SetAssocCache::residentLinesInRange(Addr base, u64 bytes) const
{
    u32 n = 0;
    for (Addr a = base; a < base + bytes; a += cfg.lineBytes)
        if (probe(a))
            ++n;
    return n;
}

void
SetAssocCache::resetStats()
{
    lines.resetStats();
    nEvictions = 0;
    nDirtyEvictions = 0;
}

void
SetAssocCache::collectStats(StatSet &out, const std::string &prefix) const
{
    out.add(prefix + ".hits", double(hits()));
    out.add(prefix + ".misses", double(misses()));
    out.add(prefix + ".evictions", double(nEvictions));
    out.add(prefix + ".dirtyEvictions", double(nDirtyEvictions));
}

} // namespace h2::cache
