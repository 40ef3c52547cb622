/**
 * @file
 * An ordered-map model of driftlog::Column, kept as the oracle that
 * test_columnar compares the hashed dictionary with. It stores the
 * appended cells verbatim and derives every dictionary answer from a
 * std::map keyed on Value (total order), so a dictionary id is simply
 * the value's rank among the distinct cells — no lazy normalization,
 * no hashing. appendEntryRow is the Row-at-a-time drift-log append
 * that test_columnar compares DriftLog::add with.
 */
#ifndef NAZAR_TESTS_COLUMN_ORACLE_H
#define NAZAR_TESTS_COLUMN_ORACLE_H

#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <vector>

#include "driftlog/drift_log.h"
#include "driftlog/table.h"
#include "driftlog/value.h"

namespace nazar::driftlog::oracle {

class OrderedColumn
{
  public:
    void
    append(const Value &v)
    {
        cells_.push_back(v);
        ++counts_[v];
    }

    size_t size() const { return cells_.size(); }
    size_t dictSize() const { return counts_.size(); }

    size_t
    nullCount() const
    {
        auto it = counts_.find(Value());
        return it == counts_.end() ? 0 : it->second;
    }

    /** The distinct cells in Value total order. */
    std::vector<Value>
    dictionary() const
    {
        std::vector<Value> out;
        for (const auto &[value, count] : counts_)
            out.push_back(value);
        return out;
    }

    std::optional<uint32_t>
    idOf(const Value &v) const
    {
        auto it = counts_.find(v);
        if (it == counts_.end())
            return std::nullopt;
        return rank(it);
    }

    uint32_t lowerBound(const Value &v) const
    {
        return rank(counts_.lower_bound(v));
    }

    uint32_t upperBound(const Value &v) const
    {
        return rank(counts_.upper_bound(v));
    }

    uint32_t idAt(size_t row) const { return *idOf(cells_.at(row)); }

    const std::vector<Value> &materialize() const { return cells_; }

  private:
    uint32_t
    rank(std::map<Value, size_t>::const_iterator it) const
    {
        return static_cast<uint32_t>(std::distance(counts_.begin(), it));
    }

    std::vector<Value> cells_;
    std::map<Value, size_t> counts_; ///< Distinct cell -> row count.
};

/**
 * Append @p e to @p table the way DriftLog::add did before it appended
 * column by column: one Row of owned Values (the time string built by
 * SimDate::toDateTimeString) through Table::append.
 */
inline void
appendEntryRow(Table &table, const DriftLogEntry &e)
{
    Row row;
    row.emplace_back(static_cast<int64_t>(e.time.dayIndex()));
    row.emplace_back(e.time.toDateTimeString());
    row.emplace_back(e.deviceId);
    row.emplace_back(e.deviceModel);
    row.emplace_back(e.location);
    row.emplace_back(e.weather);
    row.emplace_back(e.modelVersion);
    row.emplace_back(e.drift);
    table.append(std::move(row));
}

} // namespace nazar::driftlog::oracle

#endif // NAZAR_TESTS_COLUMN_ORACLE_H
