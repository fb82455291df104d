#include "cache/cache_hierarchy.h"

#include "common/log.h"

namespace h2::cache {

CacheHierarchy::CacheHierarchy(const HierarchyParams &params)
    : cfg(params), llc(params.llc)
{
    h2_assert(cfg.numCores > 0, "hierarchy needs at least one core");
    h2_assert(cfg.l1.lineBytes == cfg.l2.lineBytes &&
              cfg.l2.lineBytes == cfg.llc.lineBytes,
              "all SRAM levels must share one line size");
    l1s.reserve(cfg.numCores);
    l2s.reserve(cfg.numCores);
    for (u32 c = 0; c < cfg.numCores; ++c) {
        l1s.emplace_back(cfg.l1);
        l2s.emplace_back(cfg.l2);
    }
}

void
CacheHierarchy::insertLlc(Addr addr, bool dirty, HierarchyResult &result)
{
    if (llc.probe(addr)) {
        // Non-inclusive: a copy may already live here; just merge dirt.
        if (dirty)
            llc.setDirty(addr);
        return;
    }
    auto victim = llc.insert(addr, dirty);
    if (victim && victim->dirty) {
        h2_assert(!result.writeback,
                  "one access produced two LLC writebacks");
        result.writeback = victim->addr;
    }
}

void
CacheHierarchy::fillL1(CoreId core, Addr addr, bool dirty,
                       HierarchyResult &result)
{
    auto v1 = l1s[core].insert(addr, dirty);
    if (!v1)
        return;
    // L1 victim falls into L2 (merge if already present).
    if (l2s[core].probe(v1->addr)) {
        if (v1->dirty)
            l2s[core].setDirty(v1->addr);
        return;
    }
    auto v2 = l2s[core].insert(v1->addr, v1->dirty);
    if (v2)
        insertLlc(v2->addr, v2->dirty, result);
}

HierarchyResult
CacheHierarchy::access(CoreId core, Addr addr, AccessType type)
{
    h2_assert(core < cfg.numCores, "core id out of range");
    Addr line = addr & ~Addr(cfg.l1.lineBytes - 1);
    ++nAccesses;
    HierarchyResult result;

    if (l1s[core].access(line, type)) {
        result.latencyCycles = cfg.l1LatencyCycles;
        result.hitLevel = 1;
        return result;
    }
    if (l2s[core].access(line, type)) {
        result.latencyCycles = cfg.l2LatencyCycles;
        result.hitLevel = 2;
        // Promote to L1, retaining the L2 copy (non-inclusive). The L1
        // copy starts clean; dirt stays in L2 until eviction merges it.
        fillL1(core, line, false, result);
        return result;
    }
    if (llc.access(line, type)) {
        result.latencyCycles = cfg.llcLatencyCycles;
        result.hitLevel = 3;
        fillL1(core, line, false, result);
        return result;
    }

    // Demand miss: the caller fetches the line from the memory system.
    result.latencyCycles = cfg.llcLatencyCycles;
    result.hitLevel = 0;
    result.llcMiss = true;
    ++nLlcMisses;
    fillL1(core, line, type == AccessType::Write, result);
    return result;
}

bool
CacheHierarchy::llcHolds(Addr addr) const
{
    Addr line = addr & ~Addr(cfg.llc.lineBytes - 1);
    return llc.probe(line);
}

u32
CacheHierarchy::llcResidentLinesInRange(Addr base, u64 bytes) const
{
    return llc.residentLinesInRange(base, bytes);
}

void
CacheHierarchy::resetStats()
{
    nAccesses = 0;
    nLlcMisses = 0;
    for (auto &c : l1s)
        c.resetStats();
    for (auto &c : l2s)
        c.resetStats();
    llc.resetStats();
}

void
CacheHierarchy::collectStats(StatSet &out) const
{
    out.add("hier.accesses", double(nAccesses));
    out.add("hier.llcMisses", double(nLlcMisses));
    llc.collectStats(out, "hier.llc");
}

} // namespace h2::cache
