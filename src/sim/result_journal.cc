#include "sim/result_journal.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "common/json.h"
#include "common/log.h"
#include "common/parse.h"

namespace h2::sim {

namespace {

/** "instr=2000 there, instr=8000 in this run": the first setting of
 *  the space-separated "name=value" lists that differs. */
std::string
firstDifference(std::string_view recorded, std::string_view current)
{
    std::vector<std::string_view> a = splitOn(recorded, ' ');
    std::vector<std::string_view> b = splitOn(current, ' ');
    for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
        std::string_view was = i < a.size() ? a[i] : "(none)";
        std::string_view now = i < b.size() ? b[i] : "(none)";
        if (was != now)
            return detail::concat(was, " there, ", now, " in this run");
    }
    return "(no difference)";
}

} // namespace

ResultJournal::ResultJournal(const std::string &path, std::string settings)
    : journalPath(path), stamp(std::move(settings))
{
    file = std::fopen(path.c_str(), "ab");
    if (!file)
        h2_fatal("cannot open result journal '", path,
                 "': ", std::strerror(errno));
}

ResultJournal::~ResultJournal()
{
    if (file)
        std::fclose(file);
}

std::string
ResultJournal::formatRecord(const std::string &key,
                            const std::string &settings,
                            const RunOutcome &outcome)
{
    JsonWriter w(/*pretty=*/false);
    w.beginObject()
        .kv("key", key)
        .kv("settings", settings)
        .kv("ok", outcome.ok)
        .kv("attempts", outcome.attempts)
        .kv("wall_ms", outcome.wallMs)
        .kv("timed_out", outcome.timedOut);
    if (outcome.ok) {
        w.key("metrics");
        outcome.metrics.writeJson(w);
    } else {
        w.kv("error", outcome.error);
    }
    w.endObject();
    return w.str();
}

std::optional<ResultJournal::Record>
ResultJournal::parseRecord(std::string_view line, std::string *error)
{
    auto fail = [&](const std::string &why) {
        if (error)
            *error = why;
        return std::nullopt;
    };

    std::string parseError;
    auto doc = parseJson(line, &parseError);
    if (!doc)
        return fail(parseError);
    if (!doc->isObject())
        return fail("record is not a JSON object");

    const JsonValue *key = doc->find("key");
    if (!key || !key->isString())
        return fail("record has no string 'key'");
    const JsonValue *settings = doc->find("settings");
    if (!settings || !settings->isString())
        return fail("record has no string 'settings' stamp; it predates "
                    "settings-stamped journals, so start a new journal");
    const JsonValue *ok = doc->find("ok");
    if (!ok || !ok->isBool())
        return fail("record has no boolean 'ok'");

    RunOutcome out;
    out.ok = ok->asBool();
    if (const JsonValue *f = doc->find("attempts");
        f && f->isNumber())
        out.attempts = static_cast<u32>(f->asU64());
    if (const JsonValue *f = doc->find("wall_ms"); f && f->isNumber())
        out.wallMs = f->asU64();
    if (const JsonValue *f = doc->find("timed_out"); f && f->isBool())
        out.timedOut = f->asBool();

    if (out.ok) {
        const JsonValue *metrics = doc->find("metrics");
        if (!metrics)
            return fail("ok record has no 'metrics'");
        std::string metricsError;
        auto m = Metrics::fromJson(*metrics, &metricsError);
        if (!m)
            return fail(metricsError);
        out.metrics = *std::move(m);
    } else {
        const JsonValue *err = doc->find("error");
        if (!err || !err->isString())
            return fail("failed record has no string 'error'");
        out.error = err->asString();
    }
    return Record{key->asString(), settings->asString(), std::move(out)};
}

void
ResultJournal::append(const std::string &key, const RunOutcome &outcome)
{
    std::string record = formatRecord(key, stamp, outcome);
    record += '\n';
    std::lock_guard<std::mutex> lock(mutex);
    if (std::fwrite(record.data(), 1, record.size(), file) !=
            record.size() ||
        std::fflush(file) != 0)
        h2_fatal("cannot append to result journal '", journalPath,
                 "': ", std::strerror(errno));
#ifndef _WIN32
    // The durability guarantee: the record is on stable storage before
    // the sweep proceeds, so kill -9 loses only in-flight points.
    fsync(fileno(file));
#endif
}

std::optional<std::map<std::string, RunOutcome>>
ResultJournal::load(const std::string &path, const std::string &settings,
                    std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open())
        return std::map<std::string, RunOutcome>{}; // fresh resume

    std::map<std::string, RunOutcome> out;
    std::string line;
    u64 lineNo = 0;
    bool sawTornTail = false;
    while (std::getline(in, line)) {
        ++lineNo;
        // getline strips '\n'; a record that never got its newline is
        // the torn tail of a crashed writer.
        bool complete = !in.eof();
        if (line.empty())
            continue;
        std::string recordError;
        auto rec = parseRecord(line, &recordError);
        if (!rec) {
            if (!complete) {
                h2_warn("result journal '", path,
                        "': discarding torn final record (line ", lineNo,
                        "): ", recordError);
                sawTornTail = true;
                break;
            }
            if (error)
                *error = detail::concat(
                    "corrupt result journal '", path, "' line ", lineNo,
                    ": ", recordError);
            return std::nullopt;
        }
        if (rec->settings != settings) {
            if (error)
                *error = detail::concat(
                    "result journal '", path, "' line ", lineNo,
                    " was simulated under other settings: ",
                    firstDifference(rec->settings, settings),
                    "; resume with the journal's settings or start a "
                    "new journal");
            return std::nullopt;
        }
        out.insert_or_assign(std::move(rec->key), std::move(rec->outcome));
    }
    if (!sawTornTail && in.bad()) {
        if (error)
            *error = detail::concat("error reading result journal '",
                                    path, "'");
        return std::nullopt;
    }
    return out;
}

} // namespace h2::sim
