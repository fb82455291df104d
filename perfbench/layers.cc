#include "layers.h"

#include "cache/cache_hierarchy.h"
#include "common/log.h"
#include "common/rng.h"
#include "dram/dram_device.h"
#include "mem/mem_controller.h"
#include "sim/core_model.h"

namespace h2::perfbench {

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

namespace {

dram::DramParams
farParams(const mem::MemSystemParams &p)
{
    return dram::DramParams::farMemory(p.fmTech, p.fmBytes);
}

} // namespace

TracedDesign::TracedDesign(const mem::MemSystemParams &params,
                           std::unique_ptr<mem::HybridMemory> design)
    : HybridMemory(params, farParams(params)), inner(std::move(design))
{
    // Two drains at most (warm-up boundary, end of run), each on its
    // own untouched channel.
    h2_assert(fmDevice().channelCount() >= 2,
              "sentinel needs two far-memory channels");
    for (u32 ch = 0; ch < 2; ++ch) {
        u32 decoded = 0;
        u64 bank = 0;
        u64 row = 0;
        fmDevice().decode(sentinelAddr(ch), decoded, bank, row);
        h2_assert(decoded == ch, "sentinel address misses its channel");
    }
    constexpr Tick kProbe = 1'000'000;
    dram::DramDevice fresh(fmDevice().params());
    fresh.access(sentinelAddr(0), mem::llcLineBytes, AccessType::Write,
                 kProbe);
    sentinelLatency = fresh.channelBusUntil(0) - kProbe;
    fmController().post(sentinelAddr(0), mem::llcLineBytes, 0);
}

Addr
TracedDesign::sentinelAddr(u32 ch) const
{
    return Addr(ch) * fmDevice().params().interleaveBytes;
}

Tick
TracedDesign::drainTick(u32 ch) const
{
    Tick horizon = fmDevice().channelBusUntil(ch);
    if (horizon < sentinelLatency)
        h2_fatal("traced design: sentinel of channel ", ch, " never issued");
    Tick tick = horizon - sentinelLatency;
    dram::DramDevice fresh(fmDevice().params());
    fresh.access(sentinelAddr(ch), mem::llcLineBytes, AccessType::Write,
                 tick);
    if (fresh.channelBusUntil(ch) != horizon)
        h2_fatal("traced design: cannot recover the drain tick");
    return tick;
}

mem::MemResult
TracedDesign::access(Addr addr, AccessType type, Tick now)
{
    auto t0 = Clock::now();
    mem::MemResult r = inner->access(addr, type, now);
    accessSecs += seconds(t0, Clock::now());
    requests.push_back({addr, now, type, r.fromNm});
    return r;
}

void
TracedDesign::resetStats()
{
    // System::run: drainQueues(boundary), then resetStats().
    inner->drainQueues(drainTick(sentinelCh));
    inner->resetStats();
    HybridMemory::resetStats();
    sentinelCh = 1;
    fmController().post(sentinelAddr(sentinelCh), mem::llcLineBytes, 0);
}

void
TracedDesign::checkInvariants() const
{
    // System::run: drainQueues(end), then checkInvariants(). The
    // wrapped design is owned, not part of this object's state, so
    // draining it here is allowed from a const member.
    inner->drainQueues(drainTick(sentinelCh));
    inner->checkInvariants();
}

sim::Metrics
TracedDesign::innerMetrics(const sim::Metrics &outer) const
{
    sim::Metrics m = outer;
    m.memRequests = inner->requests();
    m.servedFromNm = m.memRequests
        ? double(inner->requestsFromNm()) / double(m.memRequests) : 0.0;
    m.fmTrafficBytes = inner->fmDevice().stats().totalBytes();
    m.nmTrafficBytes =
        inner->hasNm() ? inner->nmDevice().stats().totalBytes() : 0;
    m.dynamicEnergyPj = inner->dynamicEnergyPj();
    return m;
}

NullDesign::NullDesign(const mem::MemSystemParams &params, u64 flatBytes)
    : HybridMemory(params, farParams(params)), flat(flatBytes)
{
}

namespace {

/** Walk the records core @p core consumes, as CoreModel does: one
 *  record per step until the instruction budget is reached. */
template <typename Fn>
u64
forEachRecord(const workloads::Workload &wl, const sim::SystemConfig &cfg,
              u32 core, u64 &warmupRecords, Fn &&fn)
{
    auto src = wl.makeSource(core, cfg.numCores, cfg.seed);
    u64 budget = cfg.warmupInstrPerCore + cfg.instrPerCore;
    u64 instrs = 0;
    u64 n = 0;
    warmupRecords = 0;
    while (instrs < budget) {
        workloads::TraceRecord rec = src->next();
        fn(rec);
        instrs += u64(rec.instGap) + 1;
        ++n;
        if (warmupRecords == 0 && cfg.warmupInstrPerCore > 0 &&
            instrs >= cfg.warmupInstrPerCore)
            warmupRecords = n;
    }
    return n;
}

} // namespace

AccessCount
countAccesses(const workloads::Workload &wl, const sim::SystemConfig &cfg)
{
    AccessCount c;
    for (u32 core = 0; core < cfg.numCores; ++core) {
        u64 warm = 0;
        u64 n = forEachRecord(wl, cfg, core, warm,
                              [](const workloads::TraceRecord &) {});
        c.total += n;
        c.measured += n - warm;
    }
    return c;
}

StageTime
replayWorkloads(const workloads::Workload &wl, const sim::SystemConfig &cfg,
                CoreRecords &out)
{
    out.assign(cfg.numCores, {});
    StageTime st;
    for (u32 core = 0; core < cfg.numCores; ++core) {
        auto &recs = out[core];
        u64 warm = 0;
        auto t0 = Clock::now();
        st.ops += forEachRecord(
            wl, cfg, core, warm,
            [&](const workloads::TraceRecord &r) { recs.push_back(r); });
        st.seconds += seconds(t0, Clock::now());
    }
    return st;
}

StageTime
replayCache(const workloads::Workload &wl, const sim::SystemConfig &cfg,
            u64 flatBytes, const CoreRecords &records)
{
    struct Access
    {
        Addr paddr;
        CoreId core;
        AccessType type;
    };
    // Translate up front, as System and CoreModel do: page placement
    // is core-model work, not cache work.
    sim::AddressMap map(flatBytes, wl.totalVirtualBytes(cfg.numCores),
                        splitmix64(cfg.seed));
    std::vector<Access> seq;
    size_t longest = 0;
    for (const auto &r : records)
        longest = std::max(longest, r.size());
    for (size_t i = 0; i < longest; ++i)
        for (u32 core = 0; core < cfg.numCores; ++core) {
            if (i >= records[core].size())
                continue;
            const workloads::TraceRecord &rec = records[core][i];
            Addr vbase = wl.multithreaded
                ? 0 : Addr(core) * wl.perCoreFootprint(cfg.numCores);
            seq.push_back({map.toPhysical(vbase + rec.vaddr), core,
                           rec.type});
        }

    cache::HierarchyParams hp = cfg.hier;
    hp.numCores = cfg.numCores;
    cache::CacheHierarchy hier(hp);
    auto t0 = Clock::now();
    for (const Access &a : seq)
        hier.access(a.core, a.paddr, a.type);
    return {seconds(t0, Clock::now()), seq.size()};
}

namespace {

/** The two memories of a design, standalone: HBM2 near memory and far
 *  memory of the configured technology. Requests land in the one that
 *  served them in the run, wrapped into its capacity. */
struct StandaloneMemories
{
    explicit StandaloneMemories(const mem::MemSystemParams &cfg)
        : nmBytes(cfg.nmBytes), fmBytes(cfg.fmBytes),
          nm(dram::DramParams::hbm2(cfg.nmBytes)), fm(farParams(cfg))
    {
    }

    dram::DramDevice &device(const SeamRequest &r)
    {
        return r.fromNm ? nm : fm;
    }
    Addr addr(const SeamRequest &r) const
    {
        return r.addr % (r.fromNm ? nmBytes : fmBytes);
    }

    u64 nmBytes;
    u64 fmBytes;
    dram::DramDevice nm;
    dram::DramDevice fm;
};

} // namespace

StageTime
replayController(const std::vector<SeamRequest> &stream,
                 const mem::MemSystemParams &cfg)
{
    StandaloneMemories mems(cfg);
    mem::MemController nmCtrl(mems.nm, cfg.queue);
    mem::MemController fmCtrl(mems.fm, cfg.queue);
    Tick last = 0;
    auto t0 = Clock::now();
    for (const SeamRequest &r : stream) {
        mem::MemController &ctrl = r.fromNm ? nmCtrl : fmCtrl;
        if (r.type == AccessType::Read)
            ctrl.access(mems.addr(r), mem::llcLineBytes, AccessType::Read,
                        r.now);
        else
            ctrl.post(mems.addr(r), mem::llcLineBytes, r.now);
        last = std::max(last, r.now);
    }
    nmCtrl.drainAll(last);
    fmCtrl.drainAll(last);
    return {seconds(t0, Clock::now()), stream.size()};
}

StageTime
replayDevice(const std::vector<SeamRequest> &stream,
             const mem::MemSystemParams &cfg)
{
    StandaloneMemories mems(cfg);
    auto t0 = Clock::now();
    for (const SeamRequest &r : stream)
        mems.device(r).access(mems.addr(r), mem::llcLineBytes, r.type,
                              r.now);
    return {seconds(t0, Clock::now()), stream.size()};
}

} // namespace h2::perfbench
