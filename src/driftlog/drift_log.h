/**
 * @file
 * The drift log: the cloud database of on-device detection results
 * (paper §3.3, Table 2).
 *
 * Each inference on a device produces one entry: detection verdict
 * plus metadata attributes (time, device, location, weather, model
 * version). The root-cause analyzer mines this table.
 */
#ifndef NAZAR_DRIFTLOG_DRIFT_LOG_H
#define NAZAR_DRIFTLOG_DRIFT_LOG_H

#include <string>
#include <string_view>
#include <vector>

#include "common/sim_date.h"
#include "driftlog/query.h"
#include "driftlog/table.h"

namespace nazar::driftlog {

/** One drift-log record, mirroring the paper's Table 2 schema. */
struct DriftLogEntry
{
    SimDate time;
    std::string deviceId;    ///< e.g. "android_42".
    std::string deviceModel; ///< Hardware model attribute.
    std::string location;    ///< e.g. "new_york".
    std::string weather;     ///< e.g. "snow" (cloud-enriched metadata).
    int64_t modelVersion = 0;
    bool drift = false;      ///< On-device detector verdict.
};

/**
 * A DriftLogEntry whose strings are borrowed, e.g. from the bytes of a
 * decoded WAL record; valid while those bytes are.
 */
struct DriftLogEntryView
{
    SimDate time;
    std::string_view deviceId;
    std::string_view deviceModel;
    std::string_view location;
    std::string_view weather;
    int64_t modelVersion = 0;
    bool drift = false;
};

/** Column names of the drift log's canonical schema. */
namespace columns {
inline constexpr const char *kDay = "day";
inline constexpr const char *kTime = "time";
inline constexpr const char *kDeviceId = "device_id";
inline constexpr const char *kDeviceModel = "device_model";
inline constexpr const char *kLocation = "location";
inline constexpr const char *kWeather = "weather";
inline constexpr const char *kModelVersion = "model_version";
inline constexpr const char *kDrift = "drift";
} // namespace columns

/** Ingestion facade over the column store with the canonical schema. */
class DriftLog
{
  public:
    DriftLog();

    /** Ingest one entry. */
    void add(const DriftLogEntry &entry);

    /**
     * Ingest one entry from borrowed strings, column by column
     * (Table::appendCells): the time string is formatted on the
     * stack, and a cell's string is copied only when its column has
     * not seen it yet. Same columns as add(DriftLogEntry) and as the
     * Row-at-a-time Table::append.
     */
    void add(const DriftLogEntryView &entry);

    /** Number of entries. */
    size_t size() const { return table_.rowCount(); }

    /** Number of entries flagged as drift. */
    size_t driftCount() const;

    /** Drop all entries (e.g. at an analysis-window boundary). */
    void clear() { table_.clear(); }

    const Table &table() const { return table_; }

    /** Start a query over the log. */
    Query query() const { return Query(table_); }

    /**
     * The metadata attributes root-cause analysis mines by default.
     * (Time and model version are bookkeeping, not candidate causes.)
     */
    static std::vector<std::string> defaultAttributeColumns();

    /** The canonical schema every drift log has (Table 2's columns). */
    static Schema canonicalSchema();

    /** Materialize one row back into an entry. */
    DriftLogEntry entry(size_t row) const;

    /**
     * Adopt a table that already has the canonical schema (e.g. one
     * read back from a CSV file or a snapshot's columns). Cell-exact:
     * unlike re-adding entries, no formatting round-trip happens, and
     * the obs ingest counter is not advanced. Throws NazarError on a
     * schema mismatch.
     */
    static DriftLog fromTable(Table table);

  private:
    Table table_;
};

} // namespace nazar::driftlog

#endif // NAZAR_DRIFTLOG_DRIFT_LOG_H
