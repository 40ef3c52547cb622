/**
 * @file
 * Implementation of the drift-log facade.
 */
#include "drift_log.h"

#include "common/error.h"
#include "obs/metrics.h"

namespace nazar::driftlog {

Schema
DriftLog::canonicalSchema()
{
    return Schema({
        {columns::kDay, ValueType::kInt},
        {columns::kTime, ValueType::kString},
        {columns::kDeviceId, ValueType::kString},
        {columns::kDeviceModel, ValueType::kString},
        {columns::kLocation, ValueType::kString},
        {columns::kWeather, ValueType::kString},
        {columns::kModelVersion, ValueType::kInt},
        {columns::kDrift, ValueType::kBool},
    });
}

DriftLog::DriftLog() : table_(canonicalSchema())
{
}

void
DriftLog::add(const DriftLogEntry &entry)
{
    add(DriftLogEntryView{entry.time, entry.deviceId, entry.deviceModel,
                          entry.location, entry.weather,
                          entry.modelVersion, entry.drift});
}

void
DriftLog::add(const DriftLogEntryView &entry)
{
    static obs::Counter &ingested =
        obs::Registry::global().counter("driftlog.rows_ingested");
    ingested.add(1);
    char time[SimDate::kDateTimeLength];
    entry.time.writeDateTime(time);
    const CellRef cells[] = {
        int64_t{entry.time.dayIndex()},
        std::string_view(time, sizeof(time)),
        entry.deviceId,
        entry.deviceModel,
        entry.location,
        entry.weather,
        entry.modelVersion,
        entry.drift,
    };
    table_.appendCells(cells);
}

size_t
DriftLog::driftCount() const
{
    return query().where(columns::kDrift, Value(true)).count();
}

std::vector<std::string>
DriftLog::defaultAttributeColumns()
{
    return {columns::kWeather, columns::kLocation, columns::kDeviceId,
            columns::kDeviceModel};
}

DriftLog
DriftLog::fromTable(Table table)
{
    Schema canonical = canonicalSchema();
    NAZAR_CHECK(table.schema().columnCount() == canonical.columnCount(),
                "drift-log table has wrong column count");
    for (size_t c = 0; c < canonical.columnCount(); ++c) {
        NAZAR_CHECK(table.schema().column(c).name ==
                            canonical.column(c).name &&
                        table.schema().column(c).type ==
                            canonical.column(c).type,
                    "drift-log table schema mismatch at column " +
                        canonical.column(c).name);
    }
    DriftLog log;
    log.table_ = std::move(table);
    return log;
}

DriftLogEntry
DriftLog::entry(size_t row) const
{
    DriftLogEntry e;
    e.time = SimDate(
        static_cast<int>(table_.at(row, columns::kDay).asInt()));
    e.deviceId = table_.at(row, columns::kDeviceId).asString();
    e.deviceModel = table_.at(row, columns::kDeviceModel).asString();
    e.location = table_.at(row, columns::kLocation).asString();
    e.weather = table_.at(row, columns::kWeather).asString();
    e.modelVersion = table_.at(row, columns::kModelVersion).asInt();
    e.drift = table_.at(row, columns::kDrift).asBool();
    return e;
}

} // namespace nazar::driftlog
