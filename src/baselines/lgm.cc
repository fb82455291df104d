#include "baselines/lgm.h"

#include <algorithm>
#include <vector>

#include "common/units.h"
#include "sim/design_registry.h"

namespace h2::baselines {

Lgm::Lgm(const mem::MemSystemParams &sysParams, const mem::LlcView &llcView,
         const LgmParams &params)
    : SegmentMigration(sysParams, params.segmentBytes, params.intervalPs,
                       "lgm"),
      cfg(params),
      llc(llcView)
{
}

void
Lgm::endInterval(mem::Timeline &tl)
{
    std::vector<std::pair<u32, u64>> hot;
    for (const auto &[seg, count] : intervalCounts)
        if (count >= cfg.watermark)
            hot.emplace_back(count, seg);
    std::sort(hot.rbegin(), hot.rend());
    if (hot.size() > cfg.maxMigrationsPerInterval)
        hot.resize(cfg.maxMigrationsPerInterval);
    u64 segB = segmentBytes;
    u32 lines = segmentBytes / mem::llcLineBytes;
    for (const auto &[count, seg] : hot) {
        if (locate(seg).inNm)
            continue; // migrated by an earlier candidate this interval
        // FIFO victim over the NM locations, found through the
        // inverted remap table.
        u64 nmLoc = fifoPtr % nmSegs;
        fifoPtr += 1;
        u64 victim = residentAt(nmLoc);
        remapTableAccess(AccessType::Read, tl);

        // Bandwidth economizing: skip lines of both segments that are
        // currently in the LLC (they will be written back to the new
        // homes).
        u32 hotResident = llc.residentLines(seg * segB, segB);
        u32 victimResident = llc.residentLines(victim * segB, segB);
        nLlcLinesSkipped += hotResident + victimResident;
        swapSegments(seg, nmLoc, (lines - hotResident) * mem::llcLineBytes,
                     (lines - victimResident) * mem::llcLineBytes, tl);
    }
    intervalCounts.clear();
}

void
Lgm::resetStats()
{
    SegmentMigration::resetStats();
    nLlcLinesSkipped = 0;
}

void
Lgm::collectStats(StatSet &out) const
{
    SegmentMigration::collectStats(out);
    out.add("lgm.llcLinesSkipped", double(nLlcLinesSkipped));
}

H2_REGISTER_DESIGN(lgm, [] {
    sim::DesignInfo d;
    d.kind = sim::DesignKind::Lgm;
    d.name = "lgm";
    d.description =
        "LLC-Guided Migration (Vasilakis et al., IPDPS'19): flat space "
        "with watermark-triggered segment swaps";
    d.figure12Order = 2;
    sim::ParamDef watermark;
    watermark.name = "watermark";
    watermark.type = sim::ParamDef::Type::U64;
    watermark.description =
        "per-interval access count that makes a segment migrate";
    watermark.defU64 = LgmParams{}.watermark;
    watermark.minU64 = 1;
    watermark.maxU64 = ~u32(0);
    d.params = {watermark};
    d.factory = [](const sim::DesignSpec &spec,
                   const mem::MemSystemParams &mp, const mem::LlcView &llc)
        -> std::unique_ptr<mem::HybridMemory> {
        LgmParams p;
        p.watermark = static_cast<u32>(spec.u64Param("watermark"));
        return std::make_unique<Lgm>(mp, llc, p);
    };
    return d;
}())

} // namespace h2::baselines
