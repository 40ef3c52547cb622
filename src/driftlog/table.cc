/**
 * @file
 * Implementation of the column-store table.
 */
#include "table.h"

#include <type_traits>

#include "common/error.h"

namespace nazar::driftlog {

Schema::Schema(std::vector<ColumnDef> columns) : columns_(std::move(columns))
{
    NAZAR_CHECK(!columns_.empty(), "schema needs at least one column");
    for (size_t i = 0; i < columns_.size(); ++i)
        for (size_t j = i + 1; j < columns_.size(); ++j)
            NAZAR_CHECK(columns_[i].name != columns_[j].name,
                        "duplicate column name: " + columns_[i].name);
}

size_t
Schema::indexOf(const std::string &name) const
{
    for (size_t i = 0; i < columns_.size(); ++i)
        if (columns_[i].name == name)
            return i;
    throw NazarError("no such column: " + name);
}

bool
Schema::has(const std::string &name) const
{
    for (const auto &c : columns_)
        if (c.name == name)
            return true;
    return false;
}

Table::Table(Schema schema) : schema_(std::move(schema))
{
    columns_.reserve(schema_.columnCount());
    for (size_t i = 0; i < schema_.columnCount(); ++i)
        columns_.emplace_back(schema_.column(i).type);
}

Table::Table(Schema schema, std::vector<Column> columns)
    : schema_(std::move(schema)), columns_(std::move(columns))
{
    NAZAR_CHECK(columns_.size() == schema_.columnCount(),
                "column count does not match schema");
    for (size_t i = 0; i < columns_.size(); ++i) {
        NAZAR_CHECK(columns_[i].type() == schema_.column(i).type,
                    "column type does not match schema: " +
                        schema_.column(i).name);
        NAZAR_CHECK(columns_[i].size() == columns_[0].size(),
                    "columns differ in length");
    }
    rowCount_ = columns_.empty() ? 0 : columns_[0].size();
}

bool
Table::widens(size_t col, ValueType type) const
{
    if (type == ValueType::kNull)
        return false;
    // A double column widens int cells at ingest: 3 and 3.0 must land
    // as one cell value, or downstream Value-keyed aggregations (FIM
    // level 1, group-bys) split a single attribute group into two by
    // variant index.
    if (schema_.column(col).type == ValueType::kDouble &&
        type == ValueType::kInt)
        return true;
    NAZAR_CHECK(type == schema_.column(col).type,
                "type mismatch in column " + schema_.column(col).name);
    return false;
}

void
Table::append(Row row)
{
    NAZAR_CHECK(row.size() == schema_.columnCount(),
                "row width does not match schema");
    // Validate (and normalize numeric cells) before touching any
    // column, so a rejected row leaves the table unchanged.
    for (size_t i = 0; i < row.size(); ++i)
        if (widens(i, row[i].type()))
            row[i] = Value(row[i].asDouble());
    for (size_t i = 0; i < row.size(); ++i)
        columns_[i].append(std::move(row[i]));
    ++rowCount_;
}

void
Table::appendCells(std::span<const CellRef> cells)
{
    NAZAR_CHECK(cells.size() == schema_.columnCount(),
                "row width does not match schema");
    // CellRef's alternatives are in ValueType order.
    static_assert(std::is_same_v<std::variant_alternative_t<
                                     static_cast<size_t>(ValueType::kString),
                                     CellRef>,
                                 std::string_view>);
    for (size_t i = 0; i < cells.size(); ++i)
        widens(i, static_cast<ValueType>(cells[i].index()));
    for (size_t i = 0; i < cells.size(); ++i) {
        Column &col = columns_[i];
        std::visit(
            [&col](const auto &cell) {
                using T = std::decay_t<decltype(cell)>;
                if constexpr (std::is_same_v<T, std::string_view>)
                    col.appendString(cell);
                else if constexpr (std::is_same_v<T, std::monostate>)
                    col.append(Value());
                else if constexpr (std::is_same_v<T, int64_t>)
                    col.append(col.type() == ValueType::kDouble
                                   ? Value(static_cast<double>(cell))
                                   : Value(cell));
                else
                    col.append(Value(cell));
            },
            cells[i]);
    }
    ++rowCount_;
}

const Value &
Table::at(size_t row, size_t col) const
{
    NAZAR_CHECK(row < rowCount_, "row out of range");
    NAZAR_CHECK(col < columns_.size(), "column out of range");
    return columns_[col].at(row);
}

const Value &
Table::at(size_t row, const std::string &column) const
{
    return at(row, schema_.indexOf(column));
}

Row
Table::row(size_t r) const
{
    NAZAR_CHECK(r < rowCount_, "row out of range");
    Row out;
    out.reserve(columns_.size());
    for (const auto &col : columns_)
        out.push_back(col.at(r));
    return out;
}

const Column &
Table::column(size_t col) const
{
    NAZAR_CHECK(col < columns_.size(), "column out of range");
    return columns_[col];
}

const Column &
Table::column(const std::string &name) const
{
    return column(schema_.indexOf(name));
}

std::vector<Value>
Table::distinct(const std::string &name) const
{
    // The dictionary is exactly the distinct set in sorted order.
    return column(name).dictionary();
}

void
Table::clear()
{
    for (auto &col : columns_)
        col.clear();
    rowCount_ = 0;
}

} // namespace nazar::driftlog
