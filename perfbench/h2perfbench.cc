/**
 * @file
 * h2perfbench: runs one workload of the repository benchmark
 * (BENCHMARK.json at the repository root) and prints its metrics.
 *
 *   h2perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *               [--scale F] [--corrupt-digest]
 *
 * --trace 0 repeats whole simulations for S seconds and reports the
 * end-to-end metrics (medians over the repetitions, times scaled to a
 * reference host speed; see "Host speed" below). --trace 1 runs
 * the traced pass of layers.h, whose length the workload fixes, and
 * reports the per-layer metrics.
 * --scale multiplies every instruction budget (the smoke check runs
 * tiny lengths); --corrupt-digest perturbs every digest after a
 * point's first, so the failure accounting can be tested.
 *
 * The last stdout line is one JSON object: correct, attempted, failed
 * (simulations) and metrics. The line before it is a JSON stamp with
 * the build and the run parameters. perfbench/run.py builds this
 * program, adds the host to the stamp and checks the metric names.
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/log.h"
#include "common/rng.h"
#include "layers.h"
#include "sim/phase_timers.h"
#include "sim/runner.h"
#include "sim/sweep_runner.h"
#include "workloads/workload_spec.h"

namespace h2::perfbench {
namespace {

constexpr const char *kBuildType = "Release";
constexpr u32 kCores = 8;       ///< the paper's configuration
constexpr u32 kSweepJobs = 2;   ///< sweep workers (4-thread hosts)
constexpr u32 kMinReps = 3;     ///< timed repetitions, at least
constexpr u32 kTraceRounds = 3; ///< traced rounds of a single simulation
constexpr const char *kDesign = "hybrid2";
constexpr const char *kBaseline = "baseline";

/** Why each workload exists is recorded in BENCHMARK.json and
 *  perfbench/README.md (layer map). */
struct BenchWorkload
{
    const char *name;
    const char *workload; ///< workload spec; nullptr = Figure 12 sweep
    dram::FarMemTech fm;
    u64 instrPerCore;     ///< measured budget; warm-up is as long
};

constexpr BenchWorkload kWorkloads[] = {
    {"hybrid2_mix_high", "mix:lbm+mcf+gcc+roms:8", dram::FarMemTech::Dram,
     2'000'000},
    {"sram_low_mpki", "mix:xalanc+x264+perlbench+blender:8",
     dram::FarMemTech::Dram, 4'000'000},
    {"pcm_write_stream", "lbm", dram::FarMemTech::Pcm, 1'000'000},
    {"fig12_sweep", nullptr, dram::FarMemTech::Dram, 300'000},
};

struct Options
{
    const BenchWorkload *bw = nullptr;
    u64 seed = 42;
    double seconds = 10.0;
    bool trace = false;
    double scale = 1.0;
    bool corruptDigest = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "h2perfbench: %s\nusage: h2perfbench --workload NAME "
                 "[--seed N] [--seconds S] [--trace 0|1] [--scale F] "
                 "[--corrupt-digest]\nworkloads:",
                 why.c_str());
    for (const auto &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

template <typename T>
T
parseNumber(std::string_view flag, std::string_view text)
{
    T v{};
    auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                     v);
    if (ec != std::errc() || end != text.data() + text.size())
        usage(std::string(flag) + ": not a number: '" + std::string(text) +
              "'");
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string_view flag = argv[i];
        if (flag == "--corrupt-digest") {
            o.corruptDigest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(std::string(flag) + " needs a value");
        std::string_view value = argv[++i];
        if (flag == "--workload") {
            for (const auto &w : kWorkloads)
                if (value == w.name)
                    o.bw = &w;
            if (!o.bw)
                usage("unknown workload '" + std::string(value) + "'");
        } else if (flag == "--seed") {
            o.seed = parseNumber<u64>(flag, value);
        } else if (flag == "--seconds") {
            o.seconds = parseNumber<double>(flag, value);
        } else if (flag == "--trace") {
            u64 t = parseNumber<u64>(flag, value);
            if (t > 1)
                usage("--trace takes 0 or 1");
            o.trace = t == 1;
        } else if (flag == "--scale") {
            o.scale = parseNumber<double>(flag, value);
        } else {
            usage("unknown option '" + std::string(flag) + "'");
        }
    }
    if (!o.bw)
        usage("--workload is required");
    if (!(o.seconds > 0.0) || !(o.scale > 0.0))
        usage("--seconds and --scale must be positive");
    return o;
}

sim::RunConfig
runConfig(const Options &o)
{
    sim::RunConfig rc;
    rc.numCores = kCores;
    rc.instrPerCore = std::max<u64>(
        1000, u64(double(o.bw->instrPerCore) * o.scale));
    rc.warmupInstrPerCore = rc.instrPerCore;
    rc.seed = o.seed;
    rc.fm = o.bw->fm;
    return rc;
}

// ------------------------------------------------------------------
// Correctness: every simulation is digested; a point's digest must not
// change between its runs (timed repetitions, traced run).

u64
digest(const sim::Metrics &m)
{
    u64 h = 0xcbf29ce484222325ULL; // FNV-1a over every field + detail
    for (unsigned char c : m.toJson())
        h = (h ^ c) * 0x100000001b3ULL;
    return h;
}

class Tally
{
  public:
    explicit Tally(bool corrupt) : corruptDigest(corrupt) {}

    /**
     * Count one simulation of point @p key. It failed when it produced
     * no metrics (@p m null, @p error says why), when its measured
     * access count is not @p measured, or when its digest differs
     * from the point's first simulation.
     */
    void
    add(const std::string &key, const sim::Metrics *m, u64 measured,
        const std::string &error = {})
    {
        ++nAttempted;
        if (!m)
            return fail(key, error);
        if (m->memAccesses != measured)
            return fail(key, "measured " + std::to_string(m->memAccesses) +
                                 " accesses, trace holds " +
                                 std::to_string(measured));
        u64 d = digest(*m);
        auto [it, first] = digests.emplace(key, d);
        if (!first && corruptDigest)
            d ^= 1;
        if (d != it->second)
            fail(key, "metrics digest differs from the point's first run");
    }

    u64 attempted() const { return nAttempted; }
    u64 failed() const { return nFailed; }
    const std::map<std::string, u64> &pointDigests() const
    {
        return digests;
    }

  private:
    void
    fail(const std::string &key, const std::string &why)
    {
        ++nFailed;
        std::fprintf(stderr, "h2perfbench: %s failed: %s\n", key.c_str(),
                     why.c_str());
    }

    bool corruptDigest;
    u64 nAttempted = 0;
    u64 nFailed = 0;
    std::map<std::string, u64> digests;
};

// ------------------------------------------------------------------
// Host speed.
//
// On a shared host the simulator's speed drifts by tens of percent over
// minutes with the neighbours' load (unchanged code, System
// construction included), and more repetitions do not average that
// out. Every timed repetition is therefore preceded by a
// fixed kernel of the benchmark's own, and its times are scaled by
// kReferenceSeconds / (that kernel's time): they are host seconds on a
// host where the kernel takes kReferenceSeconds. A change to the
// simulator moves the scaled times as it moves the raw ones; the raw
// times and the kernel's go to the stamp.

/** Median kernel seconds on the host the benchmark was defined on
 *  (4-vCPU Xeon, g++ 12, Release; perfbench/README.md). */
constexpr double kReferenceSeconds = 0.045;

/** Fixed host work independent of the simulator: read-modify-write
 *  hashing over a table the size of a core's private cache. */
class ReferenceKernel
{
  public:
    ReferenceKernel() : table(kEntries)
    {
        for (u64 i = 0; i < kEntries; ++i)
            table[i] = splitmix64(i);
    }

    /** Host seconds of one pass. */
    double
    run()
    {
        auto t0 = Clock::now();
        u64 acc = 1;
        for (u32 i = 0; i < kSteps; ++i) {
            u64 &e = table[acc & (kEntries - 1)];
            e += acc;
            acc = splitmix64(acc ^ e);
        }
        sink = acc;
        return seconds(t0, Clock::now());
    }

  private:
    static constexpr u64 kEntries = u64(1) << 15; ///< 256 KiB of u64
    static constexpr u32 kSteps = 3'000'000;
    std::vector<u64> table;
    static inline volatile u64 sink = 0; ///< keeps the loop live
};

// ------------------------------------------------------------------
// Output.

struct Metric
{
    std::string name;
    const char *unit;
    double value;
};

/** What one mode measured: the metrics of BENCHMARK.json, and the raw
 *  per-repetition series behind the medians (for the stamp). */
struct Report
{
    std::vector<Metric> metrics;
    u64 reps = 0;
    std::map<std::string, std::vector<double>> samples;
};

std::string
number(double v)
{
    if (!std::isfinite(v))
        h2_fatal("metric value is not finite");
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

double
median(std::vector<double> v)
{
    h2_assert(!v.empty(), "median of nothing");
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Resident-memory high-water mark of this process in MiB (Linux
 *  VmHWM), since the last resetPeakRss(). */
double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        size_t digits = line.find_first_of("0123456789");
        u64 kib = 0;
        if (line.rfind("VmHWM:", 0) == 0 && digits != std::string::npos &&
            std::from_chars(line.data() + digits,
                            line.data() + line.size(), kib).ec ==
                std::errc())
            return double(kib) / 1024.0;
    }
    h2_fatal("no VmHWM in /proc/self/status");
}

/** Restart the high-water mark at the current resident size. */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

void
printResult(const Options &o, const Tally &tally, const sim::RunConfig &rc,
            const Report &report)
{
    std::string samples;
    for (const auto &[name, series] : report.samples) {
        samples += std::string(samples.empty() ? "" : ",") + "\"" + name +
            "\":[";
        for (size_t i = 0; i < series.size(); ++i) {
            samples += i ? "," : "";
            samples += number(series[i]);
        }
        samples += "]";
    }
    std::string pointDigests;
    for (const auto &[key, d] : tally.pointDigests()) {
        char hex[17];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(d));
        pointDigests += std::string(pointDigests.empty() ? "" : ",") +
            "\"" + key + "\":\"" + hex + "\"";
    }
    std::printf("{\"stamp\":{\"workload\":\"%s\",\"seed\":%llu,"
                "\"trace\":%d,\"build_type\":\"%s\",\"compiler\":\"%s\","
                "\"cores\":%u,\"instr_per_core\":%llu,"
                "\"warmup_instr_per_core\":%llu,\"reps\":%llu,"
                "\"failed_sims\":%llu,\"digests\":{%s},"
                "\"reference_seconds\":%s,\"samples\":{%s}}}\n",
                o.bw->name, static_cast<unsigned long long>(o.seed),
                int(o.trace), H2B_BUILD_TYPE, H2B_COMPILER, rc.numCores,
                static_cast<unsigned long long>(rc.instrPerCore),
                static_cast<unsigned long long>(rc.warmupInstrPerCore),
                static_cast<unsigned long long>(report.reps),
                static_cast<unsigned long long>(tally.failed()),
                pointDigests.c_str(), number(kReferenceSeconds).c_str(),
                samples.c_str());
    std::string out = "{\"correct\": ";
    out += tally.failed() == 0 && tally.attempted() > 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(tally.attempted());
    out += ", \"failed\": " + std::to_string(tally.failed());
    out += ", \"metrics\": {";
    for (size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        out += std::string(i ? ", " : "") + "\"" + m.name +
            "\": {\"value\": " + number(m.value) + ", \"unit\": \"" +
            m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

// ------------------------------------------------------------------
// Simulations.

/** One point of a workload: a workload under one design. */
struct Point
{
    workloads::Workload wl;
    std::string design;
    AccessCount accesses;

    std::string key() const
    {
        return sim::SweepRunner::key(wl, design);
    }
};

std::vector<Point>
points(const Options &o, const sim::SystemConfig &sc)
{
    std::vector<Point> pts;
    if (o.bw->workload) {
        auto wl = workloads::resolveWorkloadOrFatal(o.bw->workload);
        pts.push_back({wl, kDesign, countAccesses(wl, sc)});
        return pts;
    }
    for (const auto &wl : workloads::quickSuite()) {
        AccessCount ac = countAccesses(wl, sc);
        for (const auto &d : sim::evaluatedDesigns())
            pts.push_back({wl, d, ac});
        pts.push_back({wl, kBaseline, ac});
    }
    return pts;
}

sim::DesignFactory
factoryFor(const std::string &design)
{
    return [design](const mem::MemSystemParams &mp,
                    const mem::LlcView &llc) {
        return sim::makeDesign(design, mp, llc);
    };
}

/** Host time of one untraced simulation. */
struct SimTime
{
    double setup = 0.0; ///< System construction
    double sim = 0.0;   ///< System::run
};

/** Construct, run and check one simulation of @p p; nullopt when it
 *  failed to produce metrics. */
std::optional<SimTime>
simulate(const sim::SystemConfig &sc, const Point &p, Tally &tally,
         sim::Metrics *out = nullptr)
{
    try {
        ScopedFatalCapture capture;
        auto t0 = Clock::now();
        sim::System sys(sc, p.wl, factoryFor(p.design));
        auto t1 = Clock::now();
        sys.run();
        auto t2 = Clock::now();
        sim::Metrics m = sys.metrics();
        tally.add(p.key(), &m, p.accesses.measured);
        if (out)
            *out = std::move(m);
        return SimTime{seconds(t0, t1), seconds(t1, t2)};
    } catch (const std::exception &e) {
        tally.add(p.key(), nullptr, p.accesses.measured, e.what());
        return std::nullopt;
    }
}

/** Timed repetitions of one workload until the time budget is spent,
 *  each scaled to the reference host speed measured just before it. */
Report
timedRun(const Options &o, const sim::RunConfig &rc, Tally &tally)
{
    sim::SystemConfig sc = sim::makeSystemConfig(rc);
    std::vector<Point> pts = points(o, sc);
    u64 accesses = 0;
    for (const Point &p : pts)
        accesses += p.accesses.total;

    ReferenceKernel kernel;
    Report r;
    auto &ref = r.samples["reference_s"];
    auto &rate = r.samples["accesses_per_s"];
    auto &wall = r.samples["wall_s"];
    auto &setup = r.samples["setup_s"];
    auto &rss = r.samples["peak_rss_mib"];
    auto start = Clock::now();
    for (; r.reps < kMinReps || seconds(start, Clock::now()) < o.seconds;
         ++r.reps) {
        double refS = kernel.run();
        resetPeakRss();
        double setupS = 0.0;
        double wallS = 0.0;
        double simS = 0.0;
        if (o.bw->workload) {
            auto t = simulate(sc, pts.front(), tally);
            if (!t)
                continue;
            setupS = t->setup;
            simS = t->sim;
            wallS = t->setup + t->sim;
        } else {
            sim::phaseTimersReset();
            auto t0 = Clock::now();
            sim::SweepRunner runner(rc, kSweepJobs);
            for (const Point &p : pts)
                runner.submit(p.wl, p.design);
            runner.waitAll();
            wallS = simS = seconds(t0, Clock::now());
            setupS = sim::phaseTimerTotals().setupSeconds;
            for (const Point &p : pts) {
                const sim::RunOutcome &out = runner.outcome(p.wl, p.design);
                tally.add(p.key(), out.ok ? &out.metrics : nullptr,
                          p.accesses.measured, out.error);
            }
        }
        ref.push_back(refS);
        rss.push_back(peakRssMib());
        rate.push_back(double(accesses) / simS);
        wall.push_back(wallS);
        setup.push_back(setupS);
    }
    if (rate.empty())
        h2_fatal("every simulation of ", o.bw->name, " failed");

    std::vector<double> rateN, wallN, setupN;
    for (size_t i = 0; i < rate.size(); ++i) {
        double toReference = kReferenceSeconds / ref[i];
        rateN.push_back(rate[i] / toReference);
        wallN.push_back(wall[i] * toReference);
        setupN.push_back(setup[i] * toReference);
    }
    r.metrics = {
        {"accesses_per_s", "1/s", median(rateN)},
        {"wall_s", "s", median(wallN)},
        {"setup_s", "s", median(setupN)},
        {"peak_rss_mib", "MiB", median(rss)},
    };
    return r;
}

// ------------------------------------------------------------------
// Traced run.

/** Traced-run totals: stage times (each a median over a point's
 *  rounds) and simulated counters, summed over points. */
struct LayerTotals
{
    double refSim = 0.0;    ///< untraced System::run
    double refSetup = 0.0;  ///< untraced System construction
    double refBusy = 0.0;   ///< setup + run of the untraced references
    double refWall = 0.0;   ///< elapsed over those references' calls
    double tracedSim = 0.0; ///< System::run with TracedDesign
    double nullSim = 0.0;   ///< System::run with NullDesign
    StageTime design, workloads, cache, ctrl, device;
    u64 sims = 0;
    std::map<std::string, double> counters; ///< summed Metrics.detail
    double fmBusUtilSum = 0.0;
    double missLatencyWeighted = 0.0;  ///< × demand reads
    double readDelayWeighted = 0.0;    ///< × demand reads
    double writeDelayWeighted = 0.0;   ///< × device writes
    std::map<std::string, std::map<std::string, Tick>> timePs; ///< wl, design
};

void
addCounters(LayerTotals &lt, const sim::Metrics &m, bool hybrid2)
{
    const auto &d = m.detail.entries();
    auto get = [&](const char *k) {
        auto it = d.find(k);
        return it == d.end() ? 0.0 : it->second;
    };
    for (const auto &[k, v] : d)
        lt.counters[k] += v;
    lt.counters["requests"] += double(m.memRequests);
    if (hybrid2)
        lt.counters["hybrid2.requests"] += double(m.memRequests);
    lt.fmBusUtilSum += get("fm.busUtilization");
    double reads = get("mem.demandReads");
    lt.missLatencyWeighted += get("mem.avgMissLatencyPs") * reads;
    lt.readDelayWeighted += get("mem.avgQueueDelayPs") * reads;
    lt.writeDelayWeighted +=
        get("nmq.avgWriteQueueDelayPs") * get("nm.writes") +
        get("fmq.avgWriteQueueDelayPs") * get("fm.writes");
}

/** Add the median seconds of @p rounds (and their op count) to @p into. */
void
addMedian(StageTime &into, const std::vector<StageTime> &rounds)
{
    std::vector<double> secs;
    for (const StageTime &s : rounds)
        secs.push_back(s.seconds);
    into.seconds += median(secs);
    into.ops += rounds.front().ops;
}

/** Trace one point into @p lt, in @p rounds rounds of: an untraced
 *  reference, the traced run, the null-design run and the replays.
 *  Interleaving the rounds exposes every stage to the same host drift;
 *  each stage contributes its median. */
void
tracePoint(const sim::SystemConfig &sc, const Point &p, u32 rounds,
           Tally &tally, LayerTotals &lt)
{
    std::vector<double> refSim, refSetup, tracedSim, nullSim;
    std::vector<StageTime> design, ctrl, device, wls, cache;
    sim::Metrics ref;
    for (u32 r = 0; r < rounds; ++r) {
        auto start = Clock::now();
        auto t = simulate(sc, p, tally, &ref);
        lt.refWall += seconds(start, Clock::now());
        if (!t)
            h2_fatal(p.key(), ": untraced reference failed");
        refSim.push_back(t->sim);
        refSetup.push_back(t->setup);
        lt.refBusy += t->setup + t->sim;

        std::vector<SeamRequest> stream;
        u64 flatBytes = 0;
        {
            TracedDesign *traced = nullptr;
            sim::System sys(sc, p.wl,
                            [&](const mem::MemSystemParams &mp,
                                const mem::LlcView &llc) {
                                auto d = std::make_unique<TracedDesign>(
                                    mp, sim::makeDesign(p.design, mp, llc));
                                traced = d.get();
                                return d;
                            });
            auto t0 = Clock::now();
            sys.run();
            tracedSim.push_back(seconds(t0, Clock::now()));
            sim::Metrics m = traced->innerMetrics(sys.metrics());
            tally.add(p.key(), &m, p.accesses.measured);
            if (r == 0)
                addCounters(lt, m, p.design == kDesign);
            stream = traced->takeStream();
            design.push_back({traced->accessSeconds(), stream.size()});
            flatBytes = traced->flatCapacity();
        }
        ctrl.push_back(replayController(stream, sc.mem));
        device.push_back(replayDevice(stream, sc.mem));
        stream = {};
        {
            sim::System sys(sc, p.wl,
                            [&](const mem::MemSystemParams &mp,
                                const mem::LlcView &) {
                                return std::make_unique<NullDesign>(
                                    mp, flatBytes);
                            });
            auto t0 = Clock::now();
            sys.run();
            nullSim.push_back(seconds(t0, Clock::now()));
        }
        CoreRecords records;
        wls.push_back(replayWorkloads(p.wl, sc, records));
        cache.push_back(replayCache(p.wl, sc, flatBytes, records));
    }
    lt.refSim += median(refSim);
    lt.refSetup += median(refSetup);
    lt.timePs[p.wl.name][p.design] = ref.timePs;
    ++lt.sims;
    lt.tracedSim += median(tracedSim);
    lt.nullSim += median(nullSim);
    addMedian(lt.design, design);
    addMedian(lt.ctrl, ctrl);
    addMedian(lt.device, device);
    addMedian(lt.workloads, wls);
    addMedian(lt.cache, cache);
}

Report
tracedRun(const Options &o, const sim::RunConfig &rc, Tally &tally)
{
    sim::SystemConfig sc = sim::makeSystemConfig(rc);
    std::vector<Point> pts = points(o, sc);
    LayerTotals lt;
    double busyFrac = 0.0;
    if (o.bw->workload) {
        tracePoint(sc, pts.front(), kTraceRounds, tally, lt);
        busyFrac = lt.refBusy / lt.refWall;
        Point base{pts.front().wl, kBaseline, pts.front().accesses};
        sim::Metrics m;
        simulate(sc, base, tally, &m);
        lt.timePs[base.wl.name][kBaseline] = m.timePs;
    } else {
        for (const Point &p : pts)
            tracePoint(sc, p, 1, tally, lt);
        auto t0 = Clock::now();
        sim::SweepRunner runner(rc, kSweepJobs);
        for (const Point &p : pts)
            runner.submit(p.wl, p.design);
        runner.waitAll();
        double wallMs = 1e3 * seconds(t0, Clock::now());
        double busyMs = 0.0;
        for (const Point &p : pts) {
            const sim::RunOutcome &out = runner.outcome(p.wl, p.design);
            busyMs += double(out.wallMs);
            tally.add(p.key(), out.ok ? &out.metrics : nullptr,
                      p.accesses.measured, out.error);
        }
        busyFrac = busyMs / (kSweepJobs * wallMs);
    }

    std::vector<double> speedups;
    for (const auto &[wl, byDesign] : lt.timePs) {
        auto base = byDesign.find(kBaseline);
        auto h2 = byDesign.find(kDesign);
        if (base != byDesign.end() && h2 != byDesign.end() &&
            base->second > 0 && h2->second > 0)
            speedups.push_back(double(base->second) / double(h2->second));
    }
    double logSum = 0.0;
    for (double s : speedups)
        logSum += std::log(s);

    auto c = [&](const std::string &k) {
        auto it = lt.counters.find(k);
        return it == lt.counters.end() ? 0.0 : it->second;
    };
    auto both = [&](const std::string &suffix) {
        return c("nm" + suffix) + c("fm" + suffix);
    };
    double accesses = double(lt.workloads.ops);
    double designS = lt.design.seconds;
    double coreS = lt.refSim - designS - lt.cache.seconds -
        lt.workloads.seconds;
    double ns = 1e9;
    Report r;
    r.reps = lt.sims;
    r.metrics = {
        {"workloads.ns_per_record", "ns",
         ns * ratio(lt.workloads.seconds, accesses)},
        {"workloads.sim_share", "fraction",
         ratio(lt.workloads.seconds, lt.refSim)},
        {"cache.ns_per_access", "ns", ns * ratio(lt.cache.seconds,
                                                 double(lt.cache.ops))},
        {"cache.sim_share", "fraction", ratio(lt.cache.seconds, lt.refSim)},
        {"cache.llc_miss_ratio", "fraction",
         ratio(c("hier.llc.misses"),
               c("hier.llc.misses") + c("hier.llc.hits"))},
        {"sim.core_ns_per_access", "ns", ns * ratio(coreS, accesses)},
        {"sim.core_sim_share", "fraction", ratio(coreS, lt.refSim)},
        {"sim.setup_ms_per_sim", "ms",
         1e3 * ratio(lt.refSetup, double(lt.sims))},
        {"sim.sweep_busy_frac", "fraction", busyFrac},
        {"design.ns_per_request", "ns",
         ns * ratio(designS, double(lt.design.ops))},
        {"design.sim_share", "fraction", ratio(designS, lt.refSim)},
        {"design.requests", "count", c("requests")},
        {"design.nm_served_frac", "fraction",
         ratio(c("mem.requestsFromNm"), c("requests"))},
        {"design.avg_miss_latency_ps", "ps",
         ratio(lt.missLatencyWeighted, c("mem.demandReads"))},
        {"dcmc.xta_hit_ratio", "fraction",
         ratio(c("dcmc.xta.hits"),
               c("dcmc.xta.hits") + c("dcmc.xta.misses"))},
        {"dcmc.migrations", "count", c("dcmc.migrations")},
        {"dcmc.meta_bytes_per_request", "B",
         ratio(c("dcmc.bytes.nmMeta"), c("hybrid2.requests"))},
        {"sweep.hybrid2_speedup_geomean", "x",
         speedups.empty() ? 0.0
                          : std::exp(logSum / double(speedups.size()))},
        {"mem.ns_per_request", "ns",
         ns * ratio(lt.ctrl.seconds, double(lt.ctrl.ops))},
        {"mem.read_queue_delay_ps", "ps",
         ratio(lt.readDelayWeighted, c("mem.demandReads"))},
        {"mem.write_queue_delay_ps", "ps",
         ratio(lt.writeDelayWeighted, c("nm.writes") + c("fm.writes"))},
        {"mem.drain_episodes", "count", both("q.drainEpisodes")},
        {"mem.row_hit_bypasses", "count", both("q.rowHitBypasses")},
        {"dram.ns_per_access", "ns",
         ns * ratio(lt.device.seconds, double(lt.device.ops))},
        {"dram.row_hit_ratio", "fraction",
         ratio(both(".rowHits"),
               both(".rowHits") + both(".rowMisses") + both(".rowEmpty"))},
        {"dram.fm_bus_utilization", "fraction",
         ratio(lt.fmBusUtilSum, double(lt.sims))},
        {"dram.fm_bytes_written", "B", c("fm.bytesWritten")},
        {"trace.overhead_frac", "fraction",
         ratio(lt.tracedSim - lt.refSim, lt.refSim)},
        {"trace.unattributed_frac", "fraction",
         ratio(lt.refSim - designS - lt.nullSim, lt.refSim)},
    };
    return r;
}

} // namespace
} // namespace h2::perfbench

int
main(int argc, char **argv)
{
    using namespace h2::perfbench;
    Options o = parseOptions(argc, argv);
    if (std::string_view(H2B_BUILD_TYPE) != kBuildType) {
        std::fprintf(stderr,
                     "h2perfbench: built as %s; results are reported "
                     "from %s builds only\n",
                     H2B_BUILD_TYPE, kBuildType);
        return 2;
    }
    h2::setLogQuiet(true);
    h2::sim::RunConfig rc = runConfig(o);
    Tally tally(o.corruptDigest);
    Report report = o.trace ? tracedRun(o, rc, tally)
                            : timedRun(o, rc, tally);
    printResult(o, tally, rc, report);
    return 0;
}
