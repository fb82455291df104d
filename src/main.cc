/**
 * @file
 * h2sim: CLI around the experiment engine so the simulator is runnable
 * end-to-end outside of the test and bench harnesses.
 *
 * Usage:
 *   h2sim --design <spec> --workload <spec> [options]
 *   h2sim --experiment <file> [options]
 *   h2sim --dump-trace <file> --workload <spec> [options]
 *   h2sim --list-workloads | --list-designs | --help
 *
 * Each run-setting flag --<name> is the experiment-file directive of
 * the same name, applied through the one settings table in
 * sim/experiment.h; its --help rows come from that table. The
 * design-spec grammar shown by --help and --list-designs is generated
 * from the design registry (sim/design_registry.h), so neither can
 * drift from what the parsers accept. Results render as text, JSON or
 * CSV (--format) to stdout or a file (--out).
 *
 * Sweeps are fault tolerant: a failing point (bad spec deep in a
 * grid, unreadable trace, injected fault, watchdog timeout) is
 * recorded in the report instead of killing the run, --journal makes
 * every completed point durable as it finishes, and --resume skips
 * journaled points after a crash. Ctrl-C flushes the journal and the
 * partial report before exiting.
 *
 * Exit codes:
 *   0    every sweep point succeeded
 *   1    internal failures
 *   2    usage/configuration errors (bad flag, bad design spec,
 *        invalid RunConfig, bad experiment file, unusable journal)
 *   3    the sweep completed but at least one point failed
 *   130  interrupted (SIGINT); journal and partial report were written
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "common/log.h"
#include "sim/design_registry.h"
#include "sim/experiment.h"
#include "sim/fault_plan.h"
#include "sim/interrupt.h"
#include "sim/report.h"
#include "workloads/trace_file.h"
#include "workloads/workload_registry.h"
#include "workloads/workload_spec.h"

namespace {

void printUsage(std::FILE *out)
{
    std::fputs(
        "h2sim - Hybrid2 hybrid-memory simulator (HPCA'20 reproduction)\n"
        "\n"
        "Usage: h2sim --design <spec> --workload <spec> [options]\n"
        "       h2sim --experiment <file> [options]\n"
        "       h2sim --dump-trace <file> --workload <spec> [options]\n"
        "\n"
        "Run settings (each flag is the experiment-file directive of the\n"
        "same name):\n",
        out);
    std::fputs(h2::sim::runSettingsHelp().c_str(), out);
    std::fprintf(
        out,
        "\n"
        "Options:\n"
        "  --experiment <file>  run a declarative sweep (designs x\n"
        "                       workloads x settings) from a file; of the\n"
        "                       run settings only %s\n"
        "                       may be given too, and win over the file\n"
        "  --dump-trace <file>  capture the --workload to a trace file\n"
        "                       (no simulation): text format for .txt/.text\n"
        "                       paths, compact binary otherwise; replay\n"
        "                       with --workload trace:<file>\n"
        "  --out <path>         write results to <path> instead of stdout\n"
        "  --journal <path>     append each completed sweep point to\n"
        "                       <path> (JSONL, fsync'd per record) so a\n"
        "                       crash loses at most the points in flight\n"
        "  --resume             with --journal: skip points already in\n"
        "                       the journal and simulate only the rest\n"
        "  --inject <plan>      deterministic fault injection for testing\n"
        "                       recovery paths: comma-separated\n"
        "                       fail=<key>, timeout=<key>, flaky=<key>:<n>\n"
        "                       with <key> = \"workload|design\"\n"
        "  --list-workloads     list registered workloads and exit\n"
        "  --list-designs       list registered designs (with their\n"
        "                       parameter schemas) and exit\n"
        "  -h, --help           show this help and exit\n"
        "\n"
        "Design spec grammar (generated from the design registry):\n",
        h2::sim::runSettingFlags(h2::sim::SettingRole::Override).c_str());
    std::fputs(h2::sim::DesignRegistry::instance().grammarHelp().c_str(),
               out);
    std::fputs("\n", out);
    std::fputs(h2::workloads::workloadSpecGrammarHelp(), out);
}

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "h2sim: %s\n", msg.c_str());
    std::fprintf(stderr, "h2sim: try 'h2sim --help'\n");
    std::exit(2);
}

void
listDesigns()
{
    using namespace h2;
    for (const sim::DesignInfo *d : sim::DesignRegistry::instance().all())
        std::printf("%-10s %s%s\n", d->name.c_str(),
                    d->description.c_str(),
                    d->figure12Order >= 0 ? " [Figure 12 lineup]" : "");
    std::printf("\nDesign spec grammar (generated from the registry):\n%s",
                sim::DesignRegistry::instance().grammarHelp().c_str());
}

} // namespace

int main(int argc, char **argv)
{
    using namespace h2;

    // Run settings given as flags, applied as they are read; kept too
    // so --experiment can vet them and re-apply its overrides.
    sim::ExperimentSpec experiment;
    std::vector<std::pair<const sim::RunSetting *, const char *>> given;
    std::string experimentFile;
    std::string dumpTracePath;
    std::string outPath;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const std::string &flag) -> const char * {
            if (i + 1 >= argc)
                usageError(flag + " requires a value");
            return argv[++i];
        };
        const sim::RunSetting *setting =
            arg.starts_with("--") ? sim::findRunSetting(arg.substr(2))
                                  : nullptr;
        if (setting) {
            // A bare flag is its directive set to on.
            const char *value = setting->placeholder ? next(arg) : "on";
            if (std::string err = setting->apply(experiment, value);
                !err.empty())
                usageError(err);
            given.emplace_back(setting, value);
        } else if (arg == "-h" || arg == "--help") {
            printUsage(stdout);
            return 0;
        } else if (arg == "--list-workloads") {
            for (const auto &w : workloads::allWorkloads())
                std::printf("%-16s %-6s footprint=%llu MiB  paper-mpki=%.1f\n",
                            w.name.c_str(), to_string(w.cls).c_str(),
                            static_cast<unsigned long long>(w.footprintBytes >>
                                                            20),
                            w.paperMpki);
            return 0;
        } else if (arg == "--list-designs") {
            listDesigns();
            return 0;
        } else if (arg == "--experiment") {
            experimentFile = next(arg);
        } else if (arg == "--dump-trace") {
            dumpTracePath = next(arg);
        } else if (arg == "--out") {
            outPath = next(arg);
        } else if (arg == "--journal") {
            experiment.journalPath = next(arg);
        } else if (arg == "--resume") {
            experiment.resume = true;
        } else if (arg == "--inject") {
            const char *plan = next(arg);
            std::string err;
            auto parsed = sim::FaultPlan::parse(plan, &err);
            if (!parsed)
                usageError(err);
            experiment.faults = *std::move(parsed);
        } else {
            std::fprintf(stderr, "h2sim: unknown option '%s'\n\n",
                         arg.c_str());
            printUsage(stderr);
            return 2;
        }
    }

    if (!dumpTracePath.empty()) {
        if (!experimentFile.empty())
            usageError("--dump-trace is mutually exclusive with "
                       "--experiment");
        if (!experiment.designs.empty())
            usageError("--dump-trace captures a workload, not a "
                       "simulation; drop --design");
        if (experiment.workloads.size() != 1)
            usageError("--dump-trace needs exactly one --workload");
        if (std::string err = experiment.check(/*needDesign=*/false);
            !err.empty())
            usageError(err);
        // Capture exactly what a System run would consume: one stream
        // per core, warmup + measured instructions each.
        workloads::TraceData data = workloads::captureTrace(
            experiment.workloads[0], experiment.config.numCores,
            experiment.config.seed,
            experiment.config.warmupInstrPerCore +
                experiment.config.instrPerCore);
        workloads::TraceFormat traceFormat =
            workloads::traceFormatForPath(dumpTracePath);
        workloads::writeTraceFile(dumpTracePath, data, traceFormat);
        std::fprintf(stderr,
                     "h2sim: wrote %llu records (%u streams, %s) to %s\n",
                     static_cast<unsigned long long>(data.totalRecords()),
                     data.meta.streams,
                     traceFormat == workloads::TraceFormat::Text
                         ? "text" : "binary",
                     dumpTracePath.c_str());
        return 0;
    }

    if (!experimentFile.empty()) {
        for (const auto &[setting, value] : given)
            if (setting->role != sim::SettingRole::Override)
                usageError(
                    std::string("--experiment is mutually exclusive with "
                                "--") +
                    setting->name + "; set it in the experiment file "
                    "(only " +
                    sim::runSettingFlags(sim::SettingRole::Override) +
                    " may join --experiment)");
        std::string err;
        auto fromFile = sim::ExperimentSpec::parseFile(experimentFile, &err);
        if (!fromFile)
            usageError(err);
        // The override settings win over the file; the CLI-only fields
        // survive the file load.
        for (const auto &[setting, value] : given)
            setting->apply(*fromFile, value);
        fromFile->journalPath = std::move(experiment.journalPath);
        fromFile->resume = experiment.resume;
        fromFile->faults = std::move(experiment.faults);
        experiment = *std::move(fromFile);
    } else if (std::string err = experiment.check(); !err.empty()) {
        usageError(err);
    }

    sim::OutputFormat format =
        experiment.format.empty() ? sim::OutputFormat::Text
                                  : *sim::parseOutputFormat(experiment.format);

    if (experiment.resume && experiment.journalPath.empty())
        usageError("--resume needs --journal <path>");

    // Ctrl-C cancels in-flight runs cooperatively: completed points
    // are already journaled, and the partial report still renders.
    sim::installInterruptHandler();

    bool anyFailed = false;
    bool interrupted = false;
    try {
        // Config/setup fatals inside the sweep machinery (unopenable,
        // corrupt or differently-stamped journal, invalid run config)
        // surface as FatalError here, before any point simulates, and
        // report as usage/configuration errors, like at parse time.
        ScopedFatalCapture capture;
        std::vector<sim::RunRecord> records =
            sim::runExperiment(experiment);
        for (const auto &rec : records) {
            anyFailed |= !rec.ok;
            interrupted |= rec.interrupted;
        }
        std::string rendered =
            sim::renderReport(experiment.config, records, format);
        sim::writeReport(rendered, outPath);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "h2sim: fatal: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "h2sim: %s\n", e.what());
        return 1;
    }
    if (interrupted || sim::interruptRequested()) {
        std::fprintf(stderr,
                     "h2sim: interrupted; completed points were "
                     "journaled and the partial report was written\n");
        return 130;
    }
    if (anyFailed) {
        std::fprintf(stderr,
                     "h2sim: sweep completed with failed points (see "
                     "report); exit 3\n");
        return 3;
    }
    return 0;
}
