#include "sim/experiment.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include "common/json.h"
#include "common/log.h"
#include "common/parse.h"
#include "common/units.h"
#include "sim/report.h"
#include "sim/result_journal.h"
#include "sim/sweep_runner.h"
#include "workloads/workload_registry.h"
#include "workloads/workload_spec.h"

namespace h2::sim {

namespace {

/** Strip `#` comments and surrounding whitespace. */
std::string_view
trimLine(std::string_view line)
{
    auto hash = line.find('#');
    if (hash != std::string_view::npos)
        line = line.substr(0, hash);
    while (!line.empty() && std::isspace(static_cast<unsigned char>(
                                line.front())))
        line.remove_prefix(1);
    while (!line.empty() &&
           std::isspace(static_cast<unsigned char>(line.back())))
        line.remove_suffix(1);
    return line;
}

/** Split a directive into (key, value) on '=' or first whitespace run. */
std::pair<std::string_view, std::string_view>
directive(std::string_view line)
{
    auto sep = line.find_first_of("= \t");
    if (sep == std::string_view::npos)
        return {line, {}};
    std::string_view key = line.substr(0, sep);
    std::string_view value = line.substr(sep + 1);
    while (!value.empty() &&
           (value.front() == '=' ||
            std::isspace(static_cast<unsigned char>(value.front()))))
        value.remove_prefix(1);
    return {key, value};
}

std::optional<bool>
parseBool(std::string_view value)
{
    if (value.empty() || value == "on" || value == "true" || value == "1")
        return true;
    if (value == "off" || value == "false" || value == "0")
        return false;
    return std::nullopt;
}

/** Largest MiB count whose byte count still fits in a u64. */
constexpr u64 kMaxMib = (u64(1) << 44) - 1;

/** Store decimal @p value, at most @p max, in @p out. */
template <typename T>
std::string
parseCount(std::string_view name, std::string_view value, T &out,
           u64 max = std::numeric_limits<T>::max())
{
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string_view::npos)
        return detail::concat("bad value for ", name, ": '", value,
                              "' (expected a decimal integer)");
    // All digits, so a failed parse can only be a u64 overflow.
    u64 v = 0;
    if (!tryParseU64(value, v) || v > max)
        return detail::concat("bad value for ", name, ": '", value,
                              "' (out of range; at most ", max, ")");
    out = static_cast<T>(v);
    return {};
}

/** Store a capacity given in MiB as @p bytes. */
std::string
parseMib(std::string_view name, std::string_view value, u64 &bytes)
{
    u64 mib = 0;
    std::string err = parseCount(name, value, mib, kMaxMib);
    if (err.empty())
        bytes = mib * MiB;
    return err;
}

std::string
parseSwitch(std::string_view name, std::string_view value, bool &out)
{
    auto b = parseBool(value);
    if (!b)
        return detail::concat("bad value for ", name, ": '", value,
                              "' (expected on|off)");
    out = *b;
    return {};
}

/** @p bytes in MiB, exactly: a sub-MiB capacity renders a fraction. */
std::string
mibText(u64 bytes)
{
    return JsonWriter::formatDouble(double(bytes) / double(MiB));
}

// The one definition of every run setting. ExperimentSpec::parse
// applies an entry per file line, h2sim one per --<name> flag; the
// --help rows, the --experiment exclusion list and the journal stamp
// are generated from here.
const RunSetting kSettings[] = {
    {"design", "<spec>", "design spec (repeatable); see grammar below",
     SettingRole::FileOnly,
     [](ExperimentSpec &s, std::string_view v) -> std::string {
         DesignSpec::ParseResult r = DesignSpec::parse(v);
         if (!r.ok())
             return r.error;
         s.designs.push_back(r.spec->toString());
         return {};
     },
     nullptr},
    {"workload", "<spec>", "workload spec (repeatable); see grammar below",
     SettingRole::FileOnly,
     [](ExperimentSpec &s, std::string_view v) -> std::string {
         // Full spec grammar: registry names, trace:<path> (opened and
         // validated now; the path is relative to the working
         // directory), and mix:<a>+<b>[:<n>]. The resolved form is
         // kept so the run never re-reads trace files.
         std::string err;
         auto w = workloads::resolveWorkload(std::string(v), &err);
         if (!w)
             return err;
         s.workloads.push_back(*std::move(w));
         return {};
     },
     nullptr},
    {"nm-mib", "<n>", "near-memory (HBM) capacity in MiB [1024]",
     SettingRole::FileOnly,
     [](ExperimentSpec &s, std::string_view v) {
         return parseMib("nm-mib", v, s.config.nmBytes);
     },
     [](const RunConfig &c) { return mibText(c.nmBytes); }},
    {"fm-mib", "<n>", "far-memory (DDR) capacity in MiB [16384]",
     SettingRole::FileOnly,
     [](ExperimentSpec &s, std::string_view v) {
         return parseMib("fm-mib", v, s.config.fmBytes);
     },
     [](const RunConfig &c) { return mibText(c.fmBytes); }},
    {"cores", "<n>", "number of cores [8]", SettingRole::FileOnly,
     [](ExperimentSpec &s, std::string_view v) {
         return parseCount("cores", v, s.config.numCores);
     },
     [](const RunConfig &c) { return std::to_string(c.numCores); }},
    {"instr", "<n>", "simulated instructions per core [1500000]",
     SettingRole::FileOnly,
     [](ExperimentSpec &s, std::string_view v) {
         return parseCount("instr", v, s.config.instrPerCore);
     },
     [](const RunConfig &c) { return std::to_string(c.instrPerCore); }},
    {"warmup", "<n>", "warmup instructions per core [0]",
     SettingRole::FileOnly,
     [](ExperimentSpec &s, std::string_view v) {
         return parseCount("warmup", v, s.config.warmupInstrPerCore);
     },
     [](const RunConfig &c) {
         return std::to_string(c.warmupInstrPerCore);
     }},
    {"seed", "<n>", "trace-generation seed [42]", SettingRole::FileOnly,
     [](ExperimentSpec &s, std::string_view v) {
         return parseCount("seed", v, s.config.seed);
     },
     [](const RunConfig &c) { return std::to_string(c.seed); }},
    {"queue", "<on|off>",
     "queued FR-FCFS controller; off = analytic dispatch [on]",
     SettingRole::FileOnly,
     [](ExperimentSpec &s, std::string_view v) {
         return parseSwitch("queue", v, s.config.queue);
     },
     [](const RunConfig &c) { return std::string(c.queue ? "on" : "off"); }},
    {"fm", "<dram|pcm>",
     "far-memory technology: DDR4 DRAM or PCM-like NVM [dram]",
     SettingRole::FileOnly,
     [](ExperimentSpec &s, std::string_view v) -> std::string {
         auto tech = dram::parseFarMemTech(v);
         if (!tech)
             return detail::concat("bad value for fm: '", v,
                                   "' (expected dram|pcm)");
         s.config.fm = *tech;
         return {};
     },
     [](const RunConfig &c) { return std::string(dram::to_string(c.fm)); }},
    {"jobs", "<n>", "parallel simulations; 0 = all cores [1]",
     SettingRole::Override,
     [](ExperimentSpec &s, std::string_view v) {
         return parseCount("jobs", v, s.jobs);
     },
     nullptr},
    {"speedup", nullptr, "also report speedup over the FM-only baseline",
     SettingRole::Override,
     [](ExperimentSpec &s, std::string_view v) {
         return parseSwitch("speedup", v, s.speedup);
     },
     nullptr},
    {"format", "<f>", "output format: text|json|csv [text]",
     SettingRole::Override,
     [](ExperimentSpec &s, std::string_view v) -> std::string {
         if (!parseOutputFormat(v))
             return detail::concat("bad value for format: '", v,
                                   "' (expected text|json|csv)");
         s.format = std::string(v);
         return {};
     },
     nullptr},
    {"run-timeout", "<ms>",
     "per-run wall-clock watchdog; a late run fails [0=off]",
     SettingRole::FileOnly,
     [](ExperimentSpec &s, std::string_view v) {
         return parseCount("run-timeout", v, s.config.runTimeoutMs);
     },
     nullptr},
    {"retries", "<n>", "re-run a failed sweep point up to <n> times [0]",
     SettingRole::FileOnly,
     [](ExperimentSpec &s, std::string_view v) {
         return parseCount("retries", v, s.config.retries);
     },
     nullptr},
};

} // namespace

const RunSetting *
findRunSetting(std::string_view name)
{
    for (const RunSetting &s : kSettings)
        if (name == s.name)
            return &s;
    return nullptr;
}

std::string
runSettingsHelp()
{
    std::string out;
    for (const RunSetting &s : kSettings) {
        std::string flag = detail::concat("--", s.name);
        if (s.placeholder)
            flag += detail::concat(" ", s.placeholder);
        flag.resize(std::max<size_t>(flag.size(), 19), ' ');
        out += detail::concat("  ", flag, "  ", s.help, "\n");
    }
    return out;
}

std::string
runSettingFlags(SettingRole role)
{
    std::string out;
    for (const RunSetting &s : kSettings)
        if (s.role == role)
            out += detail::concat(out.empty() ? "--" : ", --", s.name);
    return out;
}

std::string
simulatedSettings(const RunConfig &config)
{
    std::string out;
    for (const RunSetting &s : kSettings)
        if (s.render)
            out += detail::concat(out.empty() ? "" : " ", s.name, "=",
                                  s.render(config));
    return out;
}

std::optional<ExperimentSpec>
ExperimentSpec::parse(std::string_view text, std::string *error)
{
    auto fail = [&](int lineNo, const std::string &why) {
        if (error)
            *error = detail::concat("experiment file line ", lineNo, ": ",
                                    why);
        return std::nullopt;
    };

    ExperimentSpec spec;
    std::istringstream in{std::string(text)};
    std::string raw;
    int lineNo = 0;
    while (std::getline(in, raw)) {
        ++lineNo;
        std::string_view line = trimLine(raw);
        if (line.empty())
            continue;
        auto [key, value] = directive(line);
        // Files keep accepting the older run_timeout spelling.
        const RunSetting *setting =
            findRunSetting(key == "run_timeout" ? "run-timeout" : key);
        if (!setting)
            return fail(lineNo,
                        detail::concat("unknown directive '", key, "'"));
        if (std::string err = setting->apply(spec, value); !err.empty())
            return fail(lineNo, err);
    }
    if (std::string err = spec.check(); !err.empty()) {
        if (error)
            *error = "experiment file: " + err;
        return std::nullopt;
    }
    return spec;
}

std::string
ExperimentSpec::check(bool needDesign) const
{
    if (needDesign && designs.empty())
        return "no 'design' directive or --design flag";
    if (workloads.empty())
        return "no 'workload' directive or --workload flag";
    // Settings arrive in any order, so trace stream counts can only be
    // checked against `cores` once all of them are applied.
    for (const workloads::Workload &w : workloads)
        if (std::string err = w.coreMismatch(config.numCores); !err.empty())
            return err;
    if (std::string err = validateRunConfig(config); !err.empty())
        return "invalid run config: " + err;
    return {};
}

std::optional<ExperimentSpec>
ExperimentSpec::parseFile(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = detail::concat("cannot read experiment file '", path,
                                    "'");
        return std::nullopt;
    }
    std::ostringstream text;
    text << in.rdbuf();
    return parse(text.str(), error);
}

std::vector<RunRecord>
runExperiment(const ExperimentSpec &spec)
{
    // Declared before the runner: workers may append right up to the
    // runner's drain, so the journal must be destroyed after it.
    std::unique_ptr<ResultJournal> journal;
    SweepRunner runner(spec.config, spec.jobs);

    if (!spec.faults.empty())
        runner.setFaultPlan(&spec.faults);
    if (!spec.journalPath.empty()) {
        std::string settings = simulatedSettings(spec.config);
        if (spec.resume) {
            std::string err;
            auto recorded =
                ResultJournal::load(spec.journalPath, settings, &err);
            if (!recorded)
                h2_fatal(err);
            for (const auto &[k, outcome] : *recorded)
                runner.seed(k, outcome);
            if (!recorded->empty())
                h2_inform("resuming from '", spec.journalPath, "': ",
                          recorded->size(),
                          " journaled point(s) skipped");
        }
        journal =
            std::make_unique<ResultJournal>(spec.journalPath, settings);
        runner.setJournal(journal.get());
    }

    // Submit everything up front so --jobs overlaps the simulations.
    for (const workloads::Workload &w : spec.workloads) {
        if (spec.speedup)
            runner.submit(w, "baseline");
        for (const auto &design : spec.designs)
            runner.submit(w, design);
    }

    std::vector<RunRecord> records;
    records.reserve(spec.workloads.size() * spec.designs.size());
    for (const workloads::Workload &w : spec.workloads) {
        for (const auto &design : spec.designs) {
            RunRecord rec;
            rec.workload = w.name;
            rec.design = design;
            const RunOutcome &o = runner.outcome(w, design);
            rec.ok = o.ok;
            rec.interrupted = o.interrupted;
            rec.error = o.error;
            rec.attempts = o.attempts;
            if (o.ok)
                rec.metrics = o.metrics;
            if (spec.speedup && o.ok) {
                const RunOutcome &base = runner.outcome(w, "baseline");
                if (base.ok && o.metrics.timePs > 0) {
                    rec.hasSpeedup = true;
                    rec.speedup = double(base.metrics.timePs) /
                                  double(o.metrics.timePs);
                }
            }
            records.push_back(std::move(rec));
        }
    }
    return records;
}

} // namespace h2::sim
