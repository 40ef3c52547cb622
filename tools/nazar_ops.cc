/**
 * @file
 * nazar_ops — the ML-ops command-line companion.
 *
 * Lets an operator work with drift logs outside the deployed system:
 *
 *   nazar_ops gen-log <out.csv> [rows] [seed]
 *       Generate a synthetic drift log with planted weather causes.
 *
 *   nazar_ops analyze <log.csv> [fim|sr|full]
 *       Run root-cause analysis on a drift-log CSV and print the
 *       ranked FIM table plus the final causes (default: the full
 *       pipeline, §3.3 / Algorithm 1).
 *
 *   nazar_ops sql <log.csv> "<query>"
 *       Run a SQL query against the log (table name: drift_log),
 *       e.g. "SELECT weather, COUNT(*) FROM drift_log WHERE drift =
 *       true GROUP BY weather ORDER BY COUNT(*) DESC". Prefix the
 *       query with EXPLAIN to print the bound plan instead of
 *       executing it: the pruned column read set and every WHERE
 *       predicate's resolved dictionary-id range (a literal absent
 *       from the column's dictionary shows as a 0-row short-circuit).
 *
 *   nazar_ops stats <log.csv> [fim|sr|full] [--metrics-out=<path>]
 *       Run root-cause analysis with self-monitoring on and print the
 *       recorded span/counter table (per-stage latencies, rows
 *       scanned); optionally write the full snapshot to a file (JSON,
 *       or Prometheus text for .prom/.txt).
 *
 *   nazar_ops sim [windows] [--metrics-out=<path>] [fault flags]
 *       Run a tiny end-to-end fleet simulation (animals app, Nazar
 *       strategy) and report per-window accuracy plus the obs
 *       snapshot covering every instrumented layer. Fault flags
 *       (--drop= --dup= --delay= --reorder= --offline= --crash=
 *       --push-drop= --queue-cap= --fault-seed=) inject seeded
 *       device↔cloud transport faults (src/net) into the run.
 *
 *   nazar_ops faults <metrics.json>
 *       Print the net.* / fleet.* fault-channel counters and gauges
 *       (plus the cloud ingest/archive counters) from a JSON metrics
 *       snapshot written by --metrics-out.
 *
 *   nazar_ops wal <wal.log>
 *       Dump a cloud write-ahead log: one line per record (seq, type,
 *       payload bytes; every listed record passed its CRC) plus any
 *       torn tail the scanner would truncate.
 *
 *   nazar_ops recover <state-dir>
 *       Run standalone recovery over a cloud state directory
 *       (snapshot chain + wal.log) and print what came back: pending
 *       drift-log rows, uploads, registry versions, dedup windows,
 *       counters.
 *
 *   nazar_ops scrub <state-dir>
 *       Offline, read-only integrity walk: WAL record CRCs and seq
 *       monotonicity, every snapshot chain file's header + payload
 *       CRC, each delta's link to its base, and that the recovery
 *       chain decodes. Prints `SCRUB ok` (exit 0) or `SCRUB CORRUPT`
 *       (exit 1) plus the issues found; benign observations (torn
 *       tail, stale superseded files awaiting GC) are notes, not
 *       failures.
 *
 *   nazar_ops trace <trace.json>
 *       Summarize a Chrome trace_event file written by --trace-out
 *       (obs::writeChromeTrace): a per-span-name latency table, and —
 *       for traces rooted at `net.client.ingest` — the ingest critical
 *       path: end-to-end ack latency decomposed into the recorded
 *       stages (decode, queue wait, convert, commit, ack) with the
 *       unattributed remainder (socket + wire time) called out.
 *
 * The sim subcommand also takes durability flags
 * (--persist-dir=<dir> --snapshot-every=N
 * --fsync=flush|fdatasync|fsync, and --fault-site=<env site>
 * --fault-kind=<kind> --fault-hit=N): with a persist dir the cloud
 * WALs its state there, --fsync selects the WAL durability mode
 * (flush matches the process-kill fault model; fdatasync/fsync
 * survive power loss), and a fault plan injects one disk fault —
 * or, with --fault-kind=crash, kills the cloud at that site,
 * exercising the recover-and-resume path end to end.
 */
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "net/fault.h"
#include "data/apps.h"
#include "data/stream.h"
#include "driftlog/csv.h"
#include "driftlog/drift_log.h"
#include "driftlog/sql.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "persist/cloud_persist.h"
#include "persist/wal.h"
#include "rca/analyzer.h"
#include "sim/runner.h"

using namespace nazar;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  nazar_ops gen-log <out.csv> [rows] [seed]\n"
        "  nazar_ops analyze <log.csv> [fim|sr|full]\n"
        "  nazar_ops sql <log.csv> \"[EXPLAIN] <query>\"\n"
        "  nazar_ops stats <log.csv> [fim|sr|full] "
        "[--metrics-out=<path>]\n"
        "  nazar_ops sim [windows] [--metrics-out=<path>] "
        "[--drop=P --dup=P --delay=P --reorder=P --offline=P "
        "--crash=P --push-drop=P --queue-cap=N --fault-seed=S] "
        "[--persist-dir=<dir> --snapshot-every=N "
        "--fsync=flush|fdatasync|fsync] [--fault-site=<env site> "
        "--fault-kind=enospc|eio|sync_fail|...|crash --fault-hit=N] "
        "[--registry-gc=0|1]\n"
        "  nazar_ops faults <metrics.json>\n"
        "  nazar_ops wal <wal.log>\n"
        "  nazar_ops recover <state-dir>\n"
        "  nazar_ops scrub <state-dir>\n"
        "  nazar_ops trace <trace.json>\n"
        "  (sim also takes --trace-out=<file>: enable causal tracing "
        "and write a Perfetto-loadable Chrome trace)\n");
    return 2;
}

driftlog::Table
loadLog(const std::string &path)
{
    std::ifstream in(path);
    NAZAR_CHECK(in.good(), "cannot open: " + path);
    driftlog::DriftLog schema_holder;
    return driftlog::readCsv(schema_holder.table().schema(), in);
}

int
cmdGenLog(const std::string &path, size_t rows, uint64_t seed)
{
    Rng rng(seed);
    const char *weathers[] = {"clear-day", "rain", "snow", "fog"};
    const char *locations[] = {"new_york", "tibet", "beijing",
                               "new_south_wales", "united_kingdom",
                               "quebec", "sao_paulo"};
    driftlog::DriftLog log;
    for (size_t i = 0; i < rows; ++i) {
        driftlog::DriftLogEntry e;
        e.time = SimDate(static_cast<int>(i % 112),
                         static_cast<int>(rng.uniformInt(0, 86399)));
        int device = static_cast<int>(rng.index(112));
        e.deviceId = "android_" + std::to_string(device);
        e.deviceModel = "model_" + std::to_string(device % 4);
        e.location = locations[rng.index(7)];
        size_t w = rng.index(4);
        e.weather = weathers[w];
        e.drift = w != 0 ? rng.bernoulli(0.7) : rng.bernoulli(0.2);
        log.add(e);
    }
    std::ofstream out(path);
    NAZAR_CHECK(out.good(), "cannot write: " + path);
    driftlog::writeCsv(log.table(), out);
    std::printf("wrote %zu rows to %s (planted causes: rain, snow, "
                "fog)\n",
                rows, path.c_str());
    return 0;
}

int
cmdAnalyze(const std::string &path, const std::string &mode_name)
{
    rca::AnalysisMode mode = rca::AnalysisMode::kFull;
    if (mode_name == "fim")
        mode = rca::AnalysisMode::kFimOnly;
    else if (mode_name == "sr")
        mode = rca::AnalysisMode::kFimSetReduction;
    else if (mode_name != "full")
        throw NazarError("unknown analysis mode: " + mode_name);

    driftlog::Table table = loadLog(path);
    std::printf("%zu entries, %zu flagged as drift\n\n",
                table.rowCount(),
                driftlog::Query(table)
                    .where(driftlog::columns::kDrift,
                           driftlog::Value(true))
                    .count());

    rca::RcaConfig config;
    config.attributeColumns =
        driftlog::DriftLog::defaultAttributeColumns();
    rca::Analyzer analyzer(config);
    rca::AnalysisResult result = analyzer.analyze(table, mode);

    TablePrinter fim({"rank", "occurrence", "support", "risk ratio",
                      "confidence", "attributes"});
    int rank = 0;
    for (const auto &cause : result.fimTable) {
        if (!rca::passesThresholds(cause.metrics, config))
            continue;
        fim.addRow({std::to_string(rank++),
                    TablePrinter::num(cause.metrics.occurrence),
                    TablePrinter::num(cause.metrics.support),
                    TablePrinter::num(cause.metrics.riskRatio, 2),
                    TablePrinter::num(cause.metrics.confidence, 2),
                    cause.attrs.toString()});
        if (rank >= 20)
            break;
    }
    std::printf("thresholded FIM table (top %d):\n%s\n", rank,
                fim.toString().c_str());

    std::printf("root causes (%s):\n", toString(mode).c_str());
    if (result.rootCauses.empty())
        std::printf("  (none)\n");
    for (const auto &cause : result.rootCauses)
        std::printf("  %s  conf %.2f  rr %.2f  (%zu drifted entries)\n",
                    cause.attrs.toString().c_str(),
                    cause.metrics.confidence, cause.metrics.riskRatio,
                    cause.metrics.setDriftCount);
    return 0;
}

int
cmdSql(const std::string &path, const std::string &query)
{
    driftlog::Table table = loadLog(path);
    driftlog::SqlResult result =
        driftlog::executeSql(table, "drift_log", query);
    std::printf("%s(%zu rows)\n", result.toString().c_str(),
                result.rowCount());
    return 0;
}

/** Print the registry snapshot as span + counter tables. */
void
printSnapshot(const obs::Snapshot &snap)
{
    TablePrinter spans(
        {"span", "count", "mean ms", "total s"});
    for (const auto &[name, h] : snap.histograms) {
        if (h.count == 0)
            continue;
        spans.addRow({name, TablePrinter::num(h.count),
                      TablePrinter::num(h.mean() * 1e3, 3),
                      TablePrinter::num(h.sum, 3)});
    }
    std::printf("spans:\n%s\n", spans.toString().c_str());

    // Which pool thread runs a chunk (the caller or a worker) depends
    // on scheduling; every other counter is a deterministic work
    // count, so the `counters:` block can be diffed across runs.
    const std::set<std::string> scheduling = {"runtime.chunks.caller",
                                              "runtime.chunks.worker"};
    TablePrinter counters({"counter", "value"});
    TablePrinter scheduled({"counter", "value"});
    for (const auto &[name, value] : snap.counters)
        (scheduling.count(name) > 0 ? scheduled : counters)
            .addRow({name, TablePrinter::num(value)});
    std::printf("counters:\n%s\n", counters.toString().c_str());
    if (scheduled.rowCount() > 0)
        std::printf("scheduling-dependent counters:\n%s\n",
                    scheduled.toString().c_str());
}

/** Write the snapshot to --metrics-out if given (empty = skip). */
void
maybeWriteMetrics(const std::string &path)
{
    if (path.empty())
        return;
    obs::writeMetricsFile(path);
    std::printf("metrics snapshot: %s\n", path.c_str());
}

int
cmdStats(const std::string &path, const std::string &mode_name,
         const std::string &metrics_out)
{
    rca::AnalysisMode mode = rca::AnalysisMode::kFull;
    if (mode_name == "fim")
        mode = rca::AnalysisMode::kFimOnly;
    else if (mode_name == "sr")
        mode = rca::AnalysisMode::kFimSetReduction;
    else if (mode_name != "full")
        throw NazarError("unknown analysis mode: " + mode_name);

    driftlog::Table table = loadLog(path);
    rca::RcaConfig config;
    config.attributeColumns =
        driftlog::DriftLog::defaultAttributeColumns();
    rca::Analyzer analyzer(config);
    rca::AnalysisResult result = analyzer.analyze(table, mode);

    std::printf("%zu entries analyzed (%s), %zu root causes\n\n",
                table.rowCount(), toString(mode).c_str(),
                result.rootCauses.size());
    printSnapshot(obs::Registry::global().snapshot());
    maybeWriteMetrics(metrics_out);
    return 0;
}

/**
 * Scan a flat JSON object (e.g. the "counters" map of a metrics
 * snapshot) for its scalar members. Good enough for the exporter's
 * own output; not a general JSON parser.
 */
std::vector<std::pair<std::string, std::string>>
scalarMembers(const std::string &text, const std::string &section)
{
    std::vector<std::pair<std::string, std::string>> out;
    std::string key = "\"" + section + "\"";
    size_t pos = text.find(key);
    if (pos == std::string::npos)
        return out;
    pos = text.find('{', pos);
    if (pos == std::string::npos)
        return out;
    size_t end = text.find('}', pos);
    if (end == std::string::npos)
        return out;
    size_t cursor = pos + 1;
    while (cursor < end) {
        size_t name_begin = text.find('"', cursor);
        if (name_begin == std::string::npos || name_begin >= end)
            break;
        size_t name_end = text.find('"', name_begin + 1);
        size_t colon = text.find(':', name_end);
        if (name_end == std::string::npos || colon == std::string::npos ||
            colon >= end)
            break;
        size_t value_begin = colon + 1;
        while (value_begin < end && std::isspace(static_cast<unsigned char>(
                                        text[value_begin])))
            ++value_begin;
        size_t value_end = value_begin;
        while (value_end < end && text[value_end] != ',' &&
               text[value_end] != '\n')
            ++value_end;
        std::string value =
            text.substr(value_begin, value_end - value_begin);
        while (!value.empty() &&
               std::isspace(static_cast<unsigned char>(value.back())))
            value.pop_back();
        out.emplace_back(
            text.substr(name_begin + 1, name_end - name_begin - 1),
            std::move(value));
        cursor = value_end + 1;
    }
    return out;
}

bool
hasAnyPrefix(const std::string &name,
             const std::vector<std::string> &prefixes)
{
    for (const auto &p : prefixes)
        if (name.rfind(p, 0) == 0)
            return true;
    return false;
}

int
cmdFaults(const std::string &path)
{
    std::ifstream in(path);
    NAZAR_CHECK(in.good(), "cannot open: " + path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::vector<std::string> prefixes = {
        "net.", "fleet.", "sim.ingest", "sim.uploads", "sim.cloud."};

    TablePrinter counters({"counter", "value"});
    size_t matched = 0;
    for (const auto &[name, value] : scalarMembers(text, "counters")) {
        if (!hasAnyPrefix(name, prefixes))
            continue;
        counters.addRow({name, value});
        ++matched;
    }
    std::printf("fault-channel counters (%s):\n%s\n", path.c_str(),
                counters.toString().c_str());

    TablePrinter gauges({"gauge", "value"});
    for (const auto &[name, value] : scalarMembers(text, "gauges")) {
        if (!hasAnyPrefix(name, prefixes))
            continue;
        gauges.addRow({name, value});
    }
    std::printf("fault-channel gauges:\n%s\n", gauges.toString().c_str());

    if (matched == 0)
        std::printf("(no net.* counters — run with faults enabled, or "
                    "the snapshot predates the net layer)\n");
    return 0;
}

const char *
walTypeName(persist::WalRecordType type)
{
    switch (type) {
      case persist::WalRecordType::kIngest:      return "ingest";
      case persist::WalRecordType::kCycleCommit: return "cycle-commit";
      case persist::WalRecordType::kFlush:       return "flush";
      case persist::WalRecordType::kRegistryGc:  return "registry-gc";
    }
    return "?";
}

int
cmdWal(const std::string &path)
{
    persist::WalScan scan = persist::Wal::scan(path);
    if (!scan.validHeader) {
        std::printf("%s: no valid WAL header (absent or empty file)\n",
                    path.c_str());
        return 1;
    }
    TablePrinter records({"seq", "type", "payload bytes", "crc"});
    size_t by_type[5] = {0, 0, 0, 0, 0};
    for (const auto &rec : scan.records) {
        records.addRow({TablePrinter::num(rec.seq),
                        walTypeName(rec.type),
                        TablePrinter::num(rec.payload.size()),
                        "ok"}); // scan() only yields CRC-valid records
        ++by_type[std::min<size_t>(
            static_cast<size_t>(rec.type), 4)];
    }
    std::printf("%s: %zu records (%zu ingest, %zu cycle-commit, "
                "%zu flush, %zu registry-gc)\n%s\n",
                path.c_str(), scan.records.size(), by_type[1],
                by_type[2], by_type[3], by_type[4],
                records.toString().c_str());
    if (scan.truncatedBytes > 0)
        std::printf("torn tail: %llu bytes after the last valid record "
                    "(a reopen would truncate them)\n",
                    static_cast<unsigned long long>(scan.truncatedBytes));
    else
        std::printf("clean tail: no torn bytes\n");
    return 0;
}

int
cmdRecover(const std::string &dir)
{
    persist::RecoveredState st = persist::recoverDir(dir);
    std::printf("%s: snapshot %s, %llu WAL records replayed",
                dir.c_str(), st.snapshotLoaded ? "loaded" : "absent",
                static_cast<unsigned long long>(st.replayedRecords));
    if (st.truncatedBytes > 0)
        std::printf(", torn tail %llu bytes",
                    static_cast<unsigned long long>(st.truncatedBytes));
    std::printf(", %llu rows elided (cleared by a later commit)\n",
                static_cast<unsigned long long>(st.elidedRows));

    size_t versions = 0;
    for (const auto &[key, bytes] : st.blobs)
        if (key.size() > 5 &&
            key.compare(key.size() - 5, 5, "/meta") == 0)
            ++versions;
    TablePrinter state({"recovered state", "value"});
    state.addRow({"pending drift-log rows",
                  TablePrinter::num(st.log.size())});
    state.addRow({"pending uploads", TablePrinter::num(st.uploads.size())});
    state.addRow({"registry versions", TablePrinter::num(versions)});
    state.addRow({"registry blobs", TablePrinter::num(st.blobs.size())});
    state.addRow({"dedup windows", TablePrinter::num(st.dedup.size())});
    state.addRow({"dedup hits", TablePrinter::num(st.dedupHits)});
    state.addRow({"total ingested", TablePrinter::num(st.totalIngested)});
    state.addRow({"logical time", TablePrinter::num(st.logicalTime)});
    state.addRow({"next version id", TablePrinter::num(st.nextVersionId)});
    state.addRow({"clean patch",
                  st.cleanPatchText.has_value()
                      ? "present (cycle " +
                            std::to_string(st.cleanPatchTime) + ")"
                      : "none"});
    state.addRow({"last WAL seq", TablePrinter::num(st.lastWalSeq)});
    std::printf("%s\n", state.toString().c_str());
    return 0;
}

int
cmdScrub(const std::string &dir)
{
    persist::ScrubReport report = persist::scrubStateDir(dir);
    TablePrinter summary({"scrub", "value"});
    summary.addRow({"wal records", TablePrinter::num(report.walRecords)});
    summary.addRow(
        {"wal torn bytes", TablePrinter::num(report.walTornBytes)});
    summary.addRow({"chain files", TablePrinter::num(report.chainFiles)});
    summary.addRow(
        {"chain length", TablePrinter::num(report.chainLength)});
    summary.addRow({"chain bytes", TablePrinter::num(report.chainBytes)});
    std::printf("%s: integrity walk\n%s\n", dir.c_str(),
                summary.toString().c_str());
    for (const auto &note : report.notes)
        std::printf("note: %s\n", note.c_str());
    for (const auto &issue : report.issues)
        std::printf("ISSUE: %s\n", issue.c_str());
    std::printf(report.ok ? "SCRUB ok\n" : "SCRUB CORRUPT\n");
    return report.ok ? 0 : 1;
}

/** One "X" event parsed back out of a writeChromeTrace() file. */
struct ParsedEvent
{
    std::string name;
    uint64_t tid = 0;
    double tsUs = 0.0;
    double durUs = 0.0;
    uint64_t trace = 0;
    uint64_t span = 0;
    uint64_t parent = 0;
};

/** The raw token after `key` up to the next `,`/`}`/`"` (exporter
 *  lines are one event each, so line-local search is enough). */
std::string
fieldAfter(const std::string &line, const std::string &key)
{
    size_t pos = line.find(key);
    if (pos == std::string::npos)
        return "";
    pos += key.size();
    size_t end = pos;
    while (end < line.size() && line[end] != ',' &&
           line[end] != '}' && line[end] != '"')
        ++end;
    return line.substr(pos, end - pos);
}

bool
parseTraceLine(const std::string &line, ParsedEvent &ev)
{
    if (line.find("\"ph\": \"X\"") == std::string::npos)
        return false;
    size_t name_begin = line.find("\"name\": \"");
    if (name_begin == std::string::npos)
        return false;
    name_begin += 9;
    size_t name_end = line.find('"', name_begin);
    if (name_end == std::string::npos)
        return false;
    ev.name = line.substr(name_begin, name_end - name_begin);
    ev.tid = std::stoull("0" + fieldAfter(line, "\"tid\": "));
    ev.tsUs = std::stod("0" + fieldAfter(line, "\"ts\": "));
    ev.durUs = std::stod("0" + fieldAfter(line, "\"dur\": "));
    ev.trace = std::stoull("0" + fieldAfter(line, "\"trace\": \""));
    ev.span = std::stoull("0" + fieldAfter(line, "\"span\": \""));
    ev.parent = std::stoull("0" + fieldAfter(line, "\"parent\": \""));
    return true;
}

/** Exact percentile over a sorted sample (nearest-rank style). */
double
pctOf(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    size_t i = static_cast<size_t>(p * (sorted.size() - 1));
    return sorted[i];
}

int
cmdTrace(const std::string &path)
{
    std::ifstream in(path);
    NAZAR_CHECK(in.good(), "cannot open: " + path);
    std::vector<ParsedEvent> events;
    std::string line;
    while (std::getline(in, line)) {
        ParsedEvent ev;
        if (parseTraceLine(line, ev))
            events.push_back(std::move(ev));
    }
    std::printf("%s: %zu span events\n\n", path.c_str(),
                events.size());
    if (events.empty())
        return 0;

    // Per-name latency table (exact durations, not bucketed).
    std::map<std::string, std::vector<double>> byName;
    for (const auto &ev : events)
        byName[ev.name].push_back(ev.durUs / 1e3);
    TablePrinter names(
        {"span", "count", "mean ms", "p50 ms", "p99 ms", "total ms"});
    for (auto &[name, durs] : byName) {
        std::sort(durs.begin(), durs.end());
        double total = 0.0;
        for (double d : durs)
            total += d;
        names.addRow({name, TablePrinter::num(durs.size()),
                      TablePrinter::num(total / durs.size(), 3),
                      TablePrinter::num(pctOf(durs, 0.50), 3),
                      TablePrinter::num(pctOf(durs, 0.99), 3),
                      TablePrinter::num(total, 3)});
    }
    std::printf("spans:\n%s\n", names.toString().c_str());

    // Ingest critical path: traces rooted at net.client.ingest. The
    // root covers send -> ack; every other span in the trace is a
    // stage of it (client encode, server decode/queue/commit/ack), so
    // root minus the stage sum is the unattributed socket/wire time.
    std::map<uint64_t, std::vector<const ParsedEvent *>> byTrace;
    for (const auto &ev : events)
        byTrace[ev.trace].push_back(&ev);
    std::vector<double> e2e;
    std::vector<double> remainder;
    std::map<std::string, std::vector<double>> stages;
    for (const auto &[trace, evs] : byTrace) {
        const ParsedEvent *root = nullptr;
        for (const ParsedEvent *ev : evs)
            if (ev->parent == 0 && ev->name == "net.client.ingest")
                root = ev;
        if (root == nullptr)
            continue;
        double staged = 0.0;
        for (const ParsedEvent *ev : evs) {
            if (ev == root)
                continue;
            stages[ev->name].push_back(ev->durUs / 1e3);
            staged += ev->durUs;
        }
        e2e.push_back(root->durUs / 1e3);
        remainder.push_back((root->durUs - staged) / 1e3);
    }
    if (e2e.empty()) {
        std::printf("no net.client.ingest-rooted traces (not a "
                    "served-run trace, or tracing was off at the "
                    "client)\n");
        return 0;
    }
    std::sort(e2e.begin(), e2e.end());
    std::sort(remainder.begin(), remainder.end());
    double e2e_total = 0.0;
    for (double d : e2e)
        e2e_total += d;
    TablePrinter path_table(
        {"ingest stage", "count", "mean ms", "p50 ms", "p99 ms",
         "share"});
    auto addRow = [&](const std::string &name,
                      std::vector<double> &durs) {
        std::sort(durs.begin(), durs.end());
        double total = 0.0;
        for (double d : durs)
            total += d;
        path_table.addRow(
            {name, TablePrinter::num(durs.size()),
             TablePrinter::num(total / durs.size(), 3),
             TablePrinter::num(pctOf(durs, 0.50), 3),
             TablePrinter::num(pctOf(durs, 0.99), 3),
             TablePrinter::num(
                 e2e_total > 0.0 ? 100.0 * total / e2e_total : 0.0,
                 1) +
                 "%"});
    };
    for (auto &[name, durs] : stages)
        addRow(name, durs);
    addRow("(socket/wire remainder)", remainder);
    std::printf("ingest critical path (%zu traced uploads, e2e "
                "mean %.3f ms, p50 %.3f ms, p99 %.3f ms):\n%s\n",
                e2e.size(), e2e_total / e2e.size(),
                pctOf(e2e, 0.50), pctOf(e2e, 0.99),
                path_table.toString().c_str());
    return 0;
}

int
cmdSim(size_t windows, const net::FaultConfig &faults,
       const persist::PersistConfig &persist_config, bool registry_gc,
       const std::string &metrics_out, const std::string &trace_out)
{
    if (!trace_out.empty()) {
        obs::setTracing(true);
        obs::setThreadName("main");
    }
    // Tiny animals-app fleet (the test workload): big enough to light
    // up every instrumented layer, small enough for a CI smoke run.
    data::AppSpec app = data::makeAnimalsApp(13, 8);
    data::WeatherModel weather(app.locations, 21, 2020);
    sim::RunnerConfig config;
    config.arch = nn::Architecture::kResNet18;
    config.strategy = sim::Strategy::kNazar;
    config.windows = windows;
    config.workload.days = 21;
    config.workload.devicesPerLocation = 3;
    config.workload.imagesPerDevicePerDay = 3.0;
    config.train.epochs = 20;
    config.cloud.minAdaptSamples = 16;
    config.uploadSampleRate = 0.5;
    config.seed = 17;
    config.faults = faults;
    config.persist = persist_config;
    config.registryGc = registry_gc;

    sim::Runner runner(app, weather, config);
    sim::RunResult result = runner.run();

    std::printf("\n%zu windows, base clean accuracy %.3f\n",
                result.windows.size(), result.baseCleanAccuracy);
    for (const auto &w : result.windows)
        std::printf("  window %d: events %zu acc %.3f drifted %.3f "
                    "flagged %zu causes %zu versions %zu stale %zu "
                    "skipped %zu\n",
                    w.window, w.events, w.accuracyAll(),
                    w.accuracyDrifted(), w.flagged, w.rootCauses,
                    w.newVersions, w.staleDevices, w.skippedCauses);
    std::printf("rca %.3fs, adapt %.3fs\n", result.totalRcaSeconds,
                result.totalAdaptSeconds);
    if (persist_config.enabled()) {
        std::printf("cloudCrashes %zu\n", result.cloudCrashes);
        std::printf("cloudDiskFaults %zu registryGcEvicted %zu\n",
                    result.cloudDiskFaults, result.registryGcEvicted);
    }
    // Machine-greppable summary lines (the CI chaos smoke asserts an
    // accuracy floor on the drifted number).
    std::printf("avgAccuracyAll %.4f\n", result.avgAccuracyAll());
    std::printf("avgAccuracyDrifted %.4f\n\n",
                result.avgAccuracyDrifted());
    printSnapshot(obs::Registry::global().snapshot());
    maybeWriteMetrics(metrics_out);
    if (!trace_out.empty()) {
        obs::writeTraceFile(trace_out);
        std::printf("trace: %zu events (%zu dropped) -> %s\n",
                    obs::traceEvents().size(), obs::traceDropped(),
                    trace_out.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        if (argc < 2)
            return usage();
        std::string cmd = argv[1];

        // Pull out --metrics-out=<path> and the fault-injection flags
        // wherever they appear.
        std::string metrics_out;
        std::string trace_out;
        net::FaultConfig faults;
        persist::PersistConfig persist_config;
        bool registry_gc = false;
        std::vector<std::string> args;
        auto probFlag = [](const std::string &arg,
                           const std::string &flag, double &out) {
            if (arg.rfind(flag, 0) != 0)
                return false;
            out = std::stod(arg.substr(flag.size()));
            return true;
        };
        for (int i = 2; i < argc; ++i) {
            std::string arg = argv[i];
            const std::string flag = "--metrics-out=";
            if (arg.rfind(flag, 0) == 0)
                metrics_out = arg.substr(flag.size());
            else if (arg.rfind("--trace-out=", 0) == 0)
                trace_out = arg.substr(12);
            else if (probFlag(arg, "--drop=", faults.dropProb) ||
                     probFlag(arg, "--dup=", faults.dupProb) ||
                     probFlag(arg, "--delay=", faults.delayProb) ||
                     probFlag(arg, "--reorder=", faults.reorderProb) ||
                     probFlag(arg, "--offline=", faults.offlineProb) ||
                     probFlag(arg, "--crash=", faults.crashProb) ||
                     probFlag(arg, "--push-drop=", faults.pushDropProb))
                continue;
            else if (arg.rfind("--queue-cap=", 0) == 0)
                faults.queueCapacity = std::stoul(arg.substr(12));
            else if (arg.rfind("--fault-seed=", 0) == 0)
                faults.seed = std::stoull(arg.substr(13));
            else if (arg.rfind("--persist-dir=", 0) == 0)
                persist_config.dir = arg.substr(14);
            else if (arg.rfind("--snapshot-every=", 0) == 0)
                persist_config.snapshotEvery = std::stoull(arg.substr(17));
            else if (arg.rfind("--fsync=", 0) == 0)
                persist_config.sync =
                    persist::syncModeFromString(arg.substr(8));
            else if (arg.rfind("--fault-site=", 0) == 0)
                persist_config.fault.site = arg.substr(13);
            else if (arg.rfind("--fault-kind=", 0) == 0)
                persist_config.fault.kind =
                    persist::faultKindFromString(arg.substr(13));
            else if (arg.rfind("--fault-hit=", 0) == 0)
                persist_config.fault.hit = std::stoull(arg.substr(12));
            else if (arg.rfind("--registry-gc=", 0) == 0)
                registry_gc = std::stoi(arg.substr(14)) != 0;
            else if (arg.rfind("--", 0) == 0)
                return usage(); // e.g. a removed flag: never run without it
            else
                args.push_back(std::move(arg));
        }

        if (cmd == "gen-log" && !args.empty()) {
            size_t rows =
                args.size() > 1 ? std::stoul(args[1]) : 20000;
            uint64_t seed =
                args.size() > 2 ? std::stoull(args[2]) : 42;
            return cmdGenLog(args[0], rows, seed);
        }
        if (cmd == "analyze" && !args.empty())
            return cmdAnalyze(args[0],
                              args.size() > 1 ? args[1] : "full");
        if (cmd == "sql" && args.size() >= 2)
            return cmdSql(args[0], args[1]);
        if (cmd == "stats" && !args.empty())
            return cmdStats(args[0],
                            args.size() > 1 ? args[1] : "full",
                            metrics_out);
        if (cmd == "sim") {
            size_t windows =
                args.empty() ? 3 : std::stoul(args[0]);
            return cmdSim(windows, faults, persist_config, registry_gc,
                          metrics_out, trace_out);
        }
        if (cmd == "faults" && !args.empty())
            return cmdFaults(args[0]);
        if (cmd == "wal" && !args.empty())
            return cmdWal(args[0]);
        if (cmd == "recover" && !args.empty())
            return cmdRecover(args[0]);
        if (cmd == "scrub" && !args.empty())
            return cmdScrub(args[0]);
        if (cmd == "trace" && !args.empty())
            return cmdTrace(args[0]);
        return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
