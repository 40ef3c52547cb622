/**
 * @file
 * Implementation of CSV import/export.
 */
#include "csv.h"

#include <algorithm>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.h"

namespace nazar::driftlog {

std::string
csvEscape(const std::string &cell)
{
    bool needs_quotes =
        cell.find_first_of(",\"\n\r") != std::string::npos;
    if (!needs_quotes)
        return cell;
    std::string out = "\"";
    for (char c : cell) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

std::vector<CsvCell>
csvSplitCells(const std::string &record)
{
    std::vector<CsvCell> cells;
    CsvCell current;
    bool in_quotes = false;
    for (size_t i = 0; i < record.size(); ++i) {
        char c = record[i];
        if (in_quotes) {
            if (c == '"') {
                if (i + 1 < record.size() && record[i + 1] == '"') {
                    current.text += '"';
                    ++i;
                } else {
                    in_quotes = false;
                }
            } else {
                current.text += c;
            }
        } else if (c == '"') {
            in_quotes = true;
            current.quoted = true;
        } else if (c == ',') {
            cells.push_back(std::move(current));
            current = CsvCell{};
        } else {
            current.text += c;
        }
    }
    NAZAR_CHECK(!in_quotes, "unterminated quoted cell in CSV");
    cells.push_back(std::move(current));
    return cells;
}

std::vector<std::string>
csvSplit(const std::string &line)
{
    std::vector<std::string> out;
    for (auto &cell : csvSplitCells(line))
        out.push_back(std::move(cell.text));
    return out;
}

bool
readCsvRecord(std::istream &is, std::string &record)
{
    record.clear();
    std::string line;
    bool in_quotes = false;
    bool first = true;
    while (std::getline(is, line)) {
        bool odd_quotes =
            std::count(line.begin(), line.end(), '"') % 2 != 0;
        bool open_after = in_quotes != odd_quotes;
        // A trailing '\r' outside quotes is a CRLF artifact; inside an
        // open quote it is cell content and must survive.
        if (!open_after && !line.empty() && line.back() == '\r')
            line.pop_back();
        if (first) {
            record = std::move(line);
            first = false;
        } else {
            record += '\n';
            record += line;
        }
        in_quotes = open_after;
        if (!in_quotes)
            return true;
    }
    NAZAR_CHECK(!in_quotes, "unterminated quoted cell in CSV");
    return !first;
}

Value
parseCell(const std::string &cell, ValueType type)
{
    if (cell.empty())
        return Value();
    try {
        switch (type) {
          case ValueType::kNull:
            return Value();
          case ValueType::kInt:
            return Value(static_cast<int64_t>(std::stoll(cell)));
          case ValueType::kDouble: {
            // Not std::stod: it throws out_of_range on subnormals,
            // where strtod returns the nearest representable value —
            // required for formatDoubleExact output to round-trip.
            const char *begin = cell.c_str();
            char *end = nullptr;
            double d = std::strtod(begin, &end);
            if (end == begin || *end != '\0')
                throw NazarError("unparsable cell: " + cell);
            return Value(d);
          }
          case ValueType::kBool:
            if (cell == "true" || cell == "1")
                return Value(true);
            if (cell == "false" || cell == "0")
                return Value(false);
            throw NazarError("not a boolean: " + cell);
          case ValueType::kString:
            return Value(cell);
        }
    } catch (const std::invalid_argument &) {
        throw NazarError("unparsable cell: " + cell);
    } catch (const std::out_of_range &) {
        throw NazarError("out-of-range cell: " + cell);
    }
    throw NazarError("unknown value type");
}

void
writeCsv(const Table &table, std::ostream &os)
{
    const Schema &schema = table.schema();
    for (size_t c = 0; c < schema.columnCount(); ++c)
        os << (c ? "," : "") << csvEscape(schema.column(c).name);
    os << "\n";

    // Render each distinct value exactly once: escaping and double
    // formatting run per dictionary entry, and the row loop is id
    // lookups into the pre-rendered cells.
    std::vector<std::vector<std::string>> rendered(schema.columnCount());
    std::vector<const Column::Id *> ids(schema.columnCount());
    for (size_t c = 0; c < schema.columnCount(); ++c) {
        const Column &col = table.column(c);
        ids[c] = col.ids().data();
        rendered[c].reserve(col.dictSize());
        for (const Value &v : col.dictionary()) {
            if (v.isNull()) {
                rendered[c].emplace_back(); // NULL: empty unquoted cell
            } else if (v.type() == ValueType::kString &&
                       v.asString().empty()) {
                rendered[c].emplace_back(
                    "\"\""); // empty string, distinct from NULL
            } else if (v.type() == ValueType::kDouble) {
                rendered[c].push_back(
                    csvEscape(formatDoubleExact(v.asDouble())));
            } else {
                rendered[c].push_back(csvEscape(v.toString()));
            }
        }
    }
    for (size_t r = 0; r < table.rowCount(); ++r) {
        for (size_t c = 0; c < rendered.size(); ++c)
            os << (c ? "," : "") << rendered[c][ids[c][r]];
        os << "\n";
    }
}

Table
readCsv(const Schema &schema, std::istream &is)
{
    std::string record;
    NAZAR_CHECK(readCsvRecord(is, record), "CSV stream is empty");
    auto header = csvSplit(record);
    NAZAR_CHECK(header.size() == schema.columnCount(),
                "CSV header width does not match schema");
    for (size_t c = 0; c < header.size(); ++c)
        NAZAR_CHECK(header[c] == schema.column(c).name,
                    "CSV header mismatch at column " +
                        std::to_string(c) + ": " + header[c]);

    Table table(schema);
    while (readCsvRecord(is, record)) {
        if (record.empty())
            continue;
        auto cells = csvSplitCells(record);
        NAZAR_CHECK(cells.size() == schema.columnCount(),
                    "CSV row width does not match schema");
        Row row;
        row.reserve(cells.size());
        for (size_t c = 0; c < cells.size(); ++c) {
            ValueType type = schema.column(c).type;
            if (cells[c].text.empty() && cells[c].quoted &&
                type == ValueType::kString) {
                row.push_back(Value(std::string()));
            } else {
                row.push_back(parseCell(cells[c].text, type));
            }
        }
        table.append(std::move(row));
    }
    return table;
}

} // namespace nazar::driftlog
