/**
 * @file
 * Crash-safe sweep result journal (h2sim --journal / --resume).
 *
 * Every completed sweep point is appended as one self-contained JSONL
 * record and pushed to stable storage (fflush + fsync) before the
 * sweep moves on, so a crash or a kill -9 loses at most the points
 * still in flight. A later run with --resume loads the journal, seeds
 * the sweep with the recorded outcomes, and re-simulates only what is
 * missing — the resumed report is bit-identical to an uninterrupted
 * run because metrics doubles round-trip exactly (JsonWriter emits
 * shortest-round-trip form).
 *
 * Record shape (one line, compact):
 *   {"key":"lbm|dfc","settings":"nm-mib=1024 ... fm=dram","ok":true,
 *    "attempts":1,"wall_ms":812,"timed_out":false,
 *    "metrics":{...Metrics::writeJson...}}
 *   {"key":"mcf|hybrid2","settings":"...","ok":false,"attempts":3,
 *    "wall_ms":42,"timed_out":false,"error":"..."}
 *
 * `settings` stamps each record with the settings that shaped its
 * simulation (sim::simulatedSettings()). A resume refuses a journal
 * whose records carry another stamp, or none: a point simulated with
 * another instruction budget or capacity is not this run's result.
 *
 * A torn final line (the record being written when the process died)
 * is expected and skipped with a warning on load; a malformed record
 * anywhere earlier is a corrupt journal and a hard error. Duplicate
 * keys are legal — append-only across resumed runs — and the last
 * record wins.
 */

#pragma once

#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "sim/runner.h"

namespace h2::sim {

class ResultJournal
{
  public:
    /** Open @p path for appending records stamped @p settings; fatal
     *  (capturable) on failure. */
    ResultJournal(const std::string &path, std::string settings);
    ~ResultJournal();

    ResultJournal(const ResultJournal &) = delete;
    ResultJournal &operator=(const ResultJournal &) = delete;

    /** Append one record and fsync it. Thread-safe (sweep workers call
     *  this concurrently); fatal (capturable) on a write error. */
    void append(const std::string &key, const RunOutcome &outcome);

    const std::string &path() const { return journalPath; }

    /**
     * Load all records from @p path; missing file is an empty map (a
     * fresh --resume is a fresh run). Later duplicates win. Returns
     * nullopt with @p error on a corrupt journal or a record stamped
     * other than @p settings (the error names the first differing
     * setting); a torn final line is tolerated with a warning.
     */
    static std::optional<std::map<std::string, RunOutcome>>
    load(const std::string &path, const std::string &settings,
         std::string *error);

    /** One outcome as its JSONL record text (no trailing newline). */
    static std::string formatRecord(const std::string &key,
                                    const std::string &settings,
                                    const RunOutcome &outcome);

    /** One parsed record line. */
    struct Record
    {
        std::string key;
        std::string settings;
        RunOutcome outcome;
    };

    /** Parse one record line; nullopt + @p error when malformed. */
    static std::optional<Record> parseRecord(std::string_view line,
                                             std::string *error);

  private:
    std::string journalPath;
    std::string stamp; ///< the settings every record carries
    std::FILE *file = nullptr;
    std::mutex mutex;
};

} // namespace h2::sim
