/**
 * @file
 * Outside-in layer instrumentation for the benchmark's traced run.
 *
 * Every layer is measured from the benchmark's side of a public seam;
 * nothing here changes the simulator:
 *  - design (`core` + `baselines`): TracedDesign wraps the real design
 *    behind the DesignFactory seam, times each HybridMemory::access()
 *    and records the request stream the LLC issued;
 *  - workloads / cache: the records a run consumes are regenerated
 *    through TraceSource::next and replayed through a fresh
 *    CacheHierarchy;
 *  - mem / dram: the recorded request stream is replayed through
 *    standalone MemControllers and standalone DramDevices (HBM2 near
 *    memory, far memory of the run's technology), each request sent
 *    to the memory that served it in the run;
 *  - sim (CoreModel + scheduler): a run against NullDesign, whose
 *    access() returns at once, leaves the stepping loop, the trace
 *    and the caches as the only work.
 */

#pragma once

#include <chrono>
#include <memory>
#include <vector>

#include "mem/hybrid_memory.h"
#include "sim/metrics.h"
#include "sim/sim_config.h"
#include "workloads/trace.h"
#include "workloads/workload_registry.h"

namespace h2::perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p from to @p to. */
double seconds(Clock::time_point from, Clock::time_point to);

/** One request at the design seam, as the LLC issued it. */
struct SeamRequest
{
    Addr addr;
    Tick now;
    AccessType type;
    bool fromNm; ///< the design served it from near memory
};

/**
 * Forwarding design: times every access() of the wrapped design and
 * records the request stream, without changing a simulated bit.
 *
 * System::run calls the non-virtual HybridMemory::drainQueues at the
 * warm-up boundary and at the end of the run, and that drains this
 * wrapper's own controllers, not the wrapped design's. The wrapper
 * forwards both drains at the virtual calls System::run makes right
 * after them (resetStats() at the boundary, checkInvariants() at the
 * end). The drain tick is not passed to those calls, so the wrapper
 * learns it from a sentinel: one posted write parked in its own FM
 * controller, which drainQueues dispatches at exactly that tick on an
 * otherwise untouched channel. The tick is read back from the
 * channel's bus horizon and checked by replaying the sentinel on a
 * fresh device.
 */
class TracedDesign : public mem::HybridMemory
{
  public:
    TracedDesign(const mem::MemSystemParams &params,
                 std::unique_ptr<mem::HybridMemory> design);

    mem::MemResult access(Addr addr, AccessType type, Tick now) override;
    std::string name() const override { return inner->name(); }
    u64 flatCapacity() const override { return inner->flatCapacity(); }
    void collectStats(StatSet &out) const override
    {
        inner->collectStats(out);
    }
    void resetStats() override;
    void checkInvariants() const override;

    /** Host seconds spent inside the wrapped design's access(). */
    double accessSeconds() const { return accessSecs; }
    /** The recorded request stream (moved out). */
    std::vector<SeamRequest> takeStream() { return std::move(requests); }

    /** System::metrics() of the traced system with the memory-side
     *  fields it reads from non-virtual HybridMemory members re-read
     *  from the wrapped design. Equal to an untraced run's Metrics
     *  when tracing changed nothing. */
    sim::Metrics innerMetrics(const sim::Metrics &outer) const;

  private:
    Addr sentinelAddr(u32 ch) const;
    /** The tick the pending drain dispatched sentinel channel @p ch at. */
    Tick drainTick(u32 ch) const;

    std::unique_ptr<mem::HybridMemory> inner;
    Tick sentinelLatency = 0; ///< fresh-channel bus horizon of a sentinel
    u32 sentinelCh = 0;       ///< channel of the armed sentinel
    double accessSecs = 0.0;
    std::vector<SeamRequest> requests;
};

/** A design that serves every request instantly; leaves only the
 *  trace, cache and core stepping work in a run. */
class NullDesign : public mem::HybridMemory
{
  public:
    NullDesign(const mem::MemSystemParams &params, u64 flatBytes);

    mem::MemResult
    access(Addr, AccessType, Tick now) override
    {
        return {mem::Timeline(now), false};
    }
    std::string name() const override { return "null"; }
    u64 flatCapacity() const override { return flat; }

  private:
    u64 flat;
};

/** Host time of one replay stage and the operations it replayed. */
struct StageTime
{
    double seconds = 0.0;
    u64 ops = 0;
};

/** Trace records one run consumes: warm-up plus measured, split as
 *  CoreModel splits them (the record that reaches the warm-up budget
 *  still belongs to warm-up). */
struct AccessCount
{
    u64 total = 0;
    u64 measured = 0;
};

/** Count the records a run of @p cfg consumes, without keeping them. */
AccessCount countAccesses(const workloads::Workload &wl,
                          const sim::SystemConfig &cfg);

/** Per-core records a run of @p cfg consumes. */
using CoreRecords = std::vector<std::vector<workloads::TraceRecord>>;

/** Regenerate the records of a run through TraceSource::next (timed). */
StageTime replayWorkloads(const workloads::Workload &wl,
                          const sim::SystemConfig &cfg, CoreRecords &out);

/** Replay @p records through a fresh CacheHierarchy (timed). Each
 *  core's records keep their order; cores are interleaved one record
 *  at a time, which approximates the run's interleaving at the shared
 *  LLC. */
StageTime replayCache(const workloads::Workload &wl,
                      const sim::SystemConfig &cfg, u64 flatBytes,
                      const CoreRecords &records);

/** Replay @p stream through standalone MemControllers (timed): reads
 *  through access(), writes through post(), then the final drains. */
StageTime replayController(const std::vector<SeamRequest> &stream,
                           const mem::MemSystemParams &cfg);

/** Replay @p stream straight into standalone DramDevices (timed). */
StageTime replayDevice(const std::vector<SeamRequest> &stream,
                       const mem::MemSystemParams &cfg);

} // namespace h2::perfbench
