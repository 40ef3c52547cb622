/**
 * @file
 * Column-store table — the offline stand-in for the Amazon Aurora
 * drift log (paper §4, "Drift log").
 *
 * The root-cause analysis of §3.3 runs as relational scans and
 * count-aggregations over this table, exactly where the paper issues
 * SQL queries. Storage is column-major and dictionary-encoded: each
 * column is a driftlog::Column (sorted value dictionary + dense id
 * vector), so the FIM candidate passes and the vectorized query
 * executor compare uint32 ids instead of tagged Values per cell —
 * this is what makes the Fig 9d scalability experiment a property of
 * the real code path. The Value-based accessors (at/row/distinct)
 * remain as thin dictionary-decoding views.
 */
#ifndef NAZAR_DRIFTLOG_TABLE_H
#define NAZAR_DRIFTLOG_TABLE_H

#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "driftlog/column.h"
#include "driftlog/value.h"

namespace nazar::driftlog {

/** A column definition. */
struct ColumnDef
{
    std::string name;
    ValueType type;
};

/** Ordered set of column definitions. */
class Schema
{
  public:
    Schema() = default;
    explicit Schema(std::vector<ColumnDef> columns);

    size_t columnCount() const { return columns_.size(); }
    const ColumnDef &column(size_t i) const { return columns_.at(i); }

    /** Index of a column by name; throws NazarError when absent. */
    size_t indexOf(const std::string &name) const;

    /** True when a column with this name exists. */
    bool has(const std::string &name) const;

    const std::vector<ColumnDef> &columns() const { return columns_; }

  private:
    std::vector<ColumnDef> columns_;
};

/** A row as an ordered list of cell values. */
using Row = std::vector<Value>;

/**
 * One cell of a borrowed row (Table::appendCells): a Value's
 * alternatives, in ValueType order, with a string cell borrowed.
 */
using CellRef =
    std::variant<std::monostate, int64_t, double, bool, std::string_view>;

/** Column-major table with append + scan + aggregate operations. */
class Table
{
  public:
    explicit Table(Schema schema);

    /**
     * Adopt ready-made columns, one per schema column in order: each
     * must have its column's declared type, and all must hold the same
     * number of rows. Throws NazarError otherwise.
     */
    Table(Schema schema, std::vector<Column> columns);

    const Schema &schema() const { return schema_; }
    size_t rowCount() const { return rowCount_; }

    /** Append one row; values must match the schema's types.
     *  kNull cells are allowed anywhere, and int cells appended to a
     *  double column are widened to double at ingest (so a numeric
     *  column holds one representation per value). Takes the row by
     *  value: callers that are done with it move it in, and its cells
     *  move on into the column dictionaries. */
    void append(Row row);

    /**
     * Append one row of borrowed cells, column by column: the same
     * checks and widening as append(Row), and the same columns as
     * appending the Row these cells spell, but a string cell is
     * copied only when its column has not seen it before. The typed
     * ingest path (DriftLog::add) uses it; append(Row) serves the SQL
     * and CSV paths.
     */
    void appendCells(std::span<const CellRef> cells);

    /** Cell accessor. */
    const Value &at(size_t row, size_t col) const;

    /** Cell accessor by column name. */
    const Value &at(size_t row, const std::string &column) const;

    /** Materialize one row. */
    Row row(size_t r) const;

    /** The dictionary-encoded column itself (ids + dictionary). */
    const Column &column(size_t col) const;
    const Column &column(const std::string &name) const;

    /** Distinct values of a column, sorted — a copy of the column's
     *  dictionary, which already is that set in that order. */
    std::vector<Value> distinct(const std::string &column) const;

    /** Remove all rows (schema retained). */
    void clear();

  private:
    /**
     * Check a cell of @p type for column @p col: NULL fits anywhere,
     * an int cell in a double column is to be widened (returns true),
     * any other type must match. Throws NazarError on a mismatch.
     */
    bool widens(size_t col, ValueType type) const;

    Schema schema_;
    size_t rowCount_ = 0;
    std::vector<Column> columns_;
};

} // namespace nazar::driftlog

#endif // NAZAR_DRIFTLOG_TABLE_H
