/**
 * @file
 * Run settings and declarative experiment files: one file describes a
 * whole sweep (designs x workloads x RunConfig overrides), driven
 * through the parallel SweepRunner and rendered by sim/report.h.
 *
 * Every run setting is one entry of the settings table (kSettings in
 * experiment.cc): its name, value placeholder, help line, and the code
 * that parses, range-checks and stores the value in an ExperimentSpec.
 * An experiment file applies one entry per line; h2sim applies each
 * `--<name> <value>` flag through the same entry, and its --help rows
 * are generated from the table, so a flag and its directive cannot
 * drift.
 *
 * File format — one directive per line, `#` starts a comment:
 *
 *   # quick design comparison
 *   design   dfc
 *   design   hybrid2:cache=64
 *   workload lbm
 *   workload mcf
 *   nm-mib   1024        # RunConfig overrides (all optional)
 *   fm-mib   16384
 *   cores    8
 *   instr    1500000
 *   warmup   0
 *   seed     42
 *   queue    on          # queued memory-controller model (off =
 *                        # pre-queue analytic dispatch)
 *   jobs     4           # parallel simulations (0 = all cores)
 *   speedup  on          # also report speedup over the baseline
 *   format   json        # default output format (CLI --format wins)
 *   run-timeout 60000    # per-run wall-clock watchdog in ms (0 = none)
 *   retries  2           # re-run a failed point up to N times
 *
 * `key value` and `key=value` are both accepted, and `run_timeout`
 * still spells `run-timeout`. Design specs are validated against the
 * design registry at parse time, workload specs against the full
 * workload grammar (registry names, `trace:<path>` with the path taken
 * relative to the working directory, and `mix:<a>+<b>[:<n>]` — see
 * workloads/workload_spec.h), and the assembled spec against check() —
 * a bad file is reported with its line number before anything runs.
 */

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sim/fault_plan.h"
#include "sim/runner.h"
#include "workloads/workload_registry.h"

namespace h2::sim {

/** A parsed, validated experiment description. */
struct ExperimentSpec
{
    RunConfig config;
    std::vector<std::string> designs;           ///< canonical spec forms
    std::vector<workloads::Workload> workloads; ///< resolved specs
    bool speedup = false;
    u32 jobs = 1;       ///< parallel simulations (0 = all cores)
    std::string format; ///< "" = caller's default; else text|json|csv

    /** Result journal path (h2sim --journal); "" = no journal. */
    std::string journalPath;
    /** Seed the sweep from the journal before running (--resume). */
    bool resume = false;
    /** Deterministic fault injection (h2sim --inject); CLI-only, no
     *  file directive — faults are a test harness, not an experiment
     *  property. */
    FaultPlan faults;

    /** Parse @p text; on error returns nullopt and sets @p error to a
     *  message naming the offending line. */
    static std::optional<ExperimentSpec> parse(std::string_view text,
                                               std::string *error);

    /** Read and parse @p path; nullopt + @p error on any failure. */
    static std::optional<ExperimentSpec> parseFile(const std::string &path,
                                                   std::string *error);

    /**
     * The checks that need every setting applied first: a design
     * (unless @p needDesign is false, as for a trace capture) and a
     * workload are present, trace stream counts match `cores`, and the
     * RunConfig passes validateRunConfig. "" when the spec is runnable,
     * else the reason.
     */
    std::string check(bool needDesign = true) const;
};

/** How a setting meets an experiment file on the h2sim command line. */
enum class SettingRole : u8
{
    FileOnly, ///< with --experiment, only the file may set it
    Override, ///< the flag may join --experiment and wins over the file
};

/** One run setting: an experiment-file directive and the h2sim flag
 *  `--<name>` of the same meaning. */
struct RunSetting
{
    const char *name;
    /** Value placeholder for --help, e.g. "<n>"; nullptr makes a bare
     *  flag that means `<name> on` (--speedup). */
    const char *placeholder;
    const char *help; ///< one-line help text, default in brackets
    SettingRole role;
    /** Parse, range-check and store @p value; "" or the reason. */
    std::string (*apply)(ExperimentSpec &spec, std::string_view value);
    /** Canonical value text, for settings that change what a point
     *  simulates (the result-journal stamp); nullptr otherwise. */
    std::string (*render)(const RunConfig &config);
};

/** The setting named @p name, or nullptr. */
const RunSetting *findRunSetting(std::string_view name);

/** The --help rows of every setting, generated from the table. */
std::string runSettingsHelp();

/** The flags of every @p role setting as "--a, --b, ...". */
std::string runSettingFlags(SettingRole role);

/** "name=value ..." over the settings that change what a point
 *  simulates; every result-journal record carries it, and --resume
 *  refuses a journal written under another. */
std::string simulatedSettings(const RunConfig &config);

/** One completed (workload, design) point of an experiment. */
struct RunRecord
{
    std::string workload;
    std::string design; ///< canonical design spec
    Metrics metrics;    ///< valid iff ok
    bool hasSpeedup = false;
    double speedup = 0.0; ///< over the FM-only baseline, when requested

    bool ok = true;           ///< the point simulated successfully
    bool interrupted = false; ///< cancelled by SIGINT (implies !ok)
    std::string error;        ///< non-empty iff !ok
    u32 attempts = 1;         ///< attempts consumed (1 + retries used)
};

/**
 * Run the full sweep of @p spec (cross product, plus the baseline per
 * workload when speedups were requested) on @p spec.jobs workers and
 * return the records in workload-major, design-minor file order.
 *
 * Fault tolerance: a failed point yields a record with ok=false and
 * the captured error — the sweep always completes and every point gets
 * a record. With a journalPath, completed outcomes are appended
 * durably as they finish; with resume, journaled outcomes are seeded
 * first and only missing points simulate. h2_fatal (capturable) on an
 * unopenable or corrupt journal, or one written under other
 * simulatedSettings().
 */
std::vector<RunRecord> runExperiment(const ExperimentSpec &spec);

} // namespace h2::sim
