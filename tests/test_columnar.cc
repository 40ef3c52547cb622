/**
 * @file
 * Property and differential tests for the dictionary-encoded column
 * store and the vectorized query path.
 *
 * The vectorized engine (dictionary-id predicates, dense group-by,
 * id-probing FIM) must be observationally identical — bit-for-bit —
 * to the retained row-at-a-time oracles (Condition::matches over
 * decoded Values, executeSqlNaive, Fim::mineReference). Randomized
 * workloads here drive both sides over the hostile corners of the
 * Value total order: NaN, ±inf, negative zero, NULL cells, empty
 * strings, int literals against double columns, and literals absent
 * from a column's dictionary.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "common/error.h"
#include "column_oracle.h"
#include "common/rng.h"
#include "driftlog/csv.h"
#include "driftlog/drift_log.h"
#include "driftlog/plan.h"
#include "driftlog/query.h"
#include "driftlog/sql.h"
#include "rca/fim.h"
#include "runtime/thread_pool.h"

namespace nazar::driftlog {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---- column unit/property tests -----------------------------------------

TEST(Column, DictionarySortedAndDense)
{
    Column col(ValueType::kString);
    for (const char *s : {"pear", "apple", "pear", "fig", "apple"})
        col.append(Value(std::string(s)));
    ASSERT_EQ(col.size(), 5u);
    ASSERT_EQ(col.dictSize(), 3u);
    // Sorted dictionary, dense ids, id order == Value order.
    EXPECT_EQ(col.dictValue(0), Value(std::string("apple")));
    EXPECT_EQ(col.dictValue(1), Value(std::string("fig")));
    EXPECT_EQ(col.dictValue(2), Value(std::string("pear")));
    // Row decode survives the normalization pass.
    EXPECT_EQ(col.at(0), Value(std::string("pear")));
    EXPECT_EQ(col.at(3), Value(std::string("fig")));
    EXPECT_EQ(col.idAt(0), col.idAt(2));
}

TEST(Column, NullIsAnOrdinaryEntrySortingFirst)
{
    Column col(ValueType::kInt);
    col.append(Value(int64_t{7}));
    col.append(Value()); // NULL
    col.append(Value(int64_t{-2}));
    col.append(Value());
    EXPECT_EQ(col.nullCount(), 2u);
    ASSERT_EQ(col.dictSize(), 3u);
    EXPECT_TRUE(col.dictValue(0).isNull());
    EXPECT_EQ(col.dictValue(1), Value(int64_t{-2}));
    EXPECT_EQ(col.dictValue(2), Value(int64_t{7}));
    EXPECT_EQ(col.idAt(1), 0u);
}

TEST(Column, TotalOrderOverDoubles)
{
    Column col(ValueType::kDouble);
    for (double d : {1.5, kNaN, -kInf, 0.0, -0.0, kInf})
        col.append(Value(d));
    // totalOrder: -inf < -0.0 < 0.0 < 1.5 < +inf < NaN, six distinct
    // entries (negative zero is its own dictionary value).
    ASSERT_EQ(col.dictSize(), 6u);
    EXPECT_EQ(col.dictValue(0), Value(-kInf));
    EXPECT_EQ(col.dictValue(1), Value(-0.0));
    EXPECT_EQ(col.dictValue(2), Value(0.0));
    EXPECT_EQ(col.dictValue(3), Value(1.5));
    EXPECT_EQ(col.dictValue(4), Value(kInf));
    EXPECT_TRUE(std::isnan(col.dictValue(5).asDouble()));
    EXPECT_NE(col.idAt(3), col.idAt(4)); // 0.0 vs -0.0
}

TEST(Column, IdOfAndBoundsMatchBruteForce)
{
    Rng rng(2024);
    Column col(ValueType::kInt);
    std::vector<Value> cells;
    for (size_t i = 0; i < 500; ++i) {
        Value v = rng.bernoulli(0.1)
                      ? Value()
                      : Value(rng.uniformInt(-20, 20));
        col.append(v);
        cells.push_back(v);
    }
    // Probe present and absent values plus NULL.
    std::vector<Value> probes;
    for (int64_t x = -25; x <= 25; ++x)
        probes.push_back(Value(x));
    probes.emplace_back();
    for (const Value &probe : probes) {
        bool present = false;
        size_t lt = 0, le = 0;
        for (const Value &dv : col.dictionary()) {
            if (dv == probe)
                present = true;
            if (dv < probe)
                ++lt;
            if (dv <= probe)
                ++le;
        }
        EXPECT_EQ(col.idOf(probe).has_value(), present);
        if (present) {
            EXPECT_EQ(col.dictValue(*col.idOf(probe)), probe);
        }
        EXPECT_EQ(col.lowerBound(probe), lt);
        EXPECT_EQ(col.upperBound(probe), le);
    }
    // materialize() is the exact decode of the appended cells.
    EXPECT_EQ(col.materialize(), cells);
}

TEST(Column, ClearRetainsTypeAndEmptiesDictionary)
{
    Column col(ValueType::kString);
    col.append(Value(std::string("x")));
    col.append(Value());
    col.clear();
    EXPECT_EQ(col.size(), 0u);
    EXPECT_EQ(col.dictSize(), 0u);
    EXPECT_EQ(col.nullCount(), 0u);
    col.append(Value(std::string("y")));
    EXPECT_EQ(col.at(0), Value(std::string("y")));
}

// ---- hashed dictionary vs the ordered-map oracle -------------------------

/** A quiet NaN carrying @p payload (sign bit set when @p negative). */
double
nanWithPayload(uint64_t payload, bool negative = false)
{
    uint64_t bits = 0x7ff8000000000000ULL | payload;
    if (negative)
        bits |= 0x8000000000000000ULL;
    return std::bit_cast<double>(bits);
}

/** One cell of @p type (or NULL) drawn from a small hostile pool, so
 *  values repeat and the dictionary sees both hits and new entries. */
Value
hostileCell(Rng &rng, ValueType type)
{
    if (rng.bernoulli(0.08))
        return Value();
    switch (type) {
      case ValueType::kInt: {
        static const int64_t extremes[] = {
            std::numeric_limits<int64_t>::min(),
            std::numeric_limits<int64_t>::max(), 0, -1};
        if (rng.bernoulli(0.05))
            return Value(extremes[rng.index(4)]);
        return Value(rng.uniformInt(-40, 40));
      }
      case ValueType::kDouble: {
        const double specials[] = {
            0.0,  -0.0, kInf, -kInf, kNaN, -kNaN, nanWithPayload(1),
            nanWithPayload(0xdead), nanWithPayload(7, true)};
        if (rng.bernoulli(0.3))
            return Value(specials[rng.index(std::size(specials))]);
        return Value(static_cast<double>(rng.uniformInt(-30, 30)) / 4.0);
      }
      case ValueType::kBool:
        return Value(rng.bernoulli(0.5));
      case ValueType::kString: {
        static const char *pool[] = {"", "a", "b", "snow", "new_york",
                                     "android_7", "2020-01-01 00:00:00"};
        if (rng.bernoulli(0.5))
            return Value(std::string(pool[rng.index(std::size(pool))]));
        return Value("s" + std::to_string(rng.uniformInt(0, 300)));
      }
      case ValueType::kNull:
        break;
    }
    return Value();
}

/** Every read of @p col agrees with the oracle. */
void
expectMatchesOracle(const Column &col, const oracle::OrderedColumn &o,
                    Rng &rng)
{
    ASSERT_EQ(col.size(), o.size());
    ASSERT_EQ(col.dictSize(), o.dictSize());
    EXPECT_EQ(col.nullCount(), o.nullCount());
    const std::vector<Value> dict = o.dictionary();
    EXPECT_EQ(col.dictionary(), dict);
    for (size_t id = 0; id < dict.size(); ++id)
        EXPECT_EQ(col.dictValue(static_cast<Column::Id>(id)), dict[id]);
    for (size_t row = 0; row < col.size(); ++row)
        ASSERT_EQ(col.idAt(row), o.idAt(row)) << "row " << row;
    for (int k = 0; k < 40; ++k) {
        Value probe = hostileCell(rng, col.type());
        EXPECT_EQ(col.idOf(probe), o.idOf(probe)) << probe;
        EXPECT_EQ(col.lowerBound(probe), o.lowerBound(probe)) << probe;
        EXPECT_EQ(col.upperBound(probe), o.upperBound(probe)) << probe;
    }
    EXPECT_EQ(col.materialize(), o.materialize());
}

/** One read through a random entry point — each one normalizes a
 *  column left unsorted by the appends before it. */
void
expectOneReadMatches(const Column &col, const oracle::OrderedColumn &o,
                     Rng &rng)
{
    Value probe = hostileCell(rng, col.type());
    switch (rng.index(5)) {
      case 0: {
        size_t row = rng.index(col.size());
        EXPECT_EQ(col.idAt(row), o.idAt(row));
        break;
      }
      case 1:
        EXPECT_EQ(col.idOf(probe), o.idOf(probe)) << probe;
        break;
      case 2:
        EXPECT_EQ(col.lowerBound(probe), o.lowerBound(probe)) << probe;
        break;
      case 3:
        EXPECT_EQ(col.upperBound(probe), o.upperBound(probe)) << probe;
        break;
      default: {
        size_t id = rng.index(o.dictSize());
        EXPECT_EQ(col.dictValue(static_cast<Column::Id>(id)),
                  o.dictionary()[id]);
        break;
      }
    }
}

TEST(ColumnDifferential, HashedDictionaryMatchesOrderedMapOracle)
{
    for (ValueType type : {ValueType::kInt, ValueType::kDouble,
                           ValueType::kBool, ValueType::kString}) {
        for (uint64_t seed : {1u, 2u, 3u}) {
            SCOPED_TRACE(toString(type) + " seed " + std::to_string(seed));
            Rng rng(seed * 977 + static_cast<uint64_t>(type));
            Column col(type);
            oracle::OrderedColumn o;
            for (size_t i = 0; i < 1500; ++i) {
                Value v = hostileCell(rng, type);
                o.append(v);
                col.append(v);
                // Reads interleave with the appends, so normalization
                // runs mid-stream over a partly sorted dictionary.
                if (rng.bernoulli(0.15))
                    expectOneReadMatches(col, o, rng);
                if (i % 500 == 499)
                    expectMatchesOracle(col, o, rng);
            }
            expectMatchesOracle(col, o, rng);
        }
    }
}

TEST(ColumnDifferential, TableWideningMatchesOrderedMapOracle)
{
    // Int cells appended to a double column land as doubles: 3 and 3.0
    // are one dictionary entry, in the oracle and in the Table.
    Schema schema({{"i", ValueType::kInt},
                   {"d", ValueType::kDouble},
                   {"b", ValueType::kBool},
                   {"s", ValueType::kString}});
    Rng rng(4242);
    Table table(schema);
    std::vector<oracle::OrderedColumn> o(schema.columnCount());
    for (size_t r = 0; r < 1500; ++r) {
        Row row;
        for (size_t c = 0; c < schema.columnCount(); ++c)
            row.push_back(hostileCell(rng, schema.column(c).type));
        if (rng.bernoulli(0.3) && !row[1].isNull())
            row[1] = Value(rng.uniformInt(-8, 8)); // an int cell
        for (size_t c = 0; c < row.size(); ++c)
            o[c].append(row[c].type() == ValueType::kInt &&
                                schema.column(c).type == ValueType::kDouble
                            ? Value(row[c].asDouble())
                            : row[c]);
        table.append(std::move(row));
        if (rng.bernoulli(0.15)) {
            size_t c = rng.index(schema.columnCount());
            expectOneReadMatches(table.column(c), o[c], rng);
        }
    }
    for (size_t c = 0; c < schema.columnCount(); ++c) {
        SCOPED_TRACE(schema.column(c).name);
        expectMatchesOracle(table.column(c), o[c], rng);
    }
    EXPECT_EQ(table.column("d").idOf(Value(int64_t{3})), std::nullopt);
    EXPECT_EQ(table.column("d").idOf(Value(3.0)),
              o[1].idOf(Value(3.0)));
}

/** @p v as a borrowed cell (a string cell views @p v's string). */
CellRef
cellOf(const Value &v)
{
    switch (v.type()) {
      case ValueType::kNull:
        return std::monostate{};
      case ValueType::kInt:
        return v.asInt();
      case ValueType::kDouble:
        return v.asDouble();
      case ValueType::kBool:
        return v.asBool();
      case ValueType::kString:
        return std::string_view(v.asString());
    }
    return std::monostate{};
}

/** Both tables hold the same columns: dictionaries, ids, NULLs, CSV. */
void
expectSameColumns(const Table &got, const Table &want)
{
    ASSERT_EQ(got.rowCount(), want.rowCount());
    for (size_t c = 0; c < want.schema().columnCount(); ++c) {
        SCOPED_TRACE(want.schema().column(c).name);
        EXPECT_EQ(got.column(c).dictionary(), want.column(c).dictionary());
        EXPECT_EQ(got.column(c).ids(), want.column(c).ids());
        EXPECT_EQ(got.column(c).nullCount(), want.column(c).nullCount());
    }
    std::ostringstream a, b;
    writeCsv(got, a);
    writeCsv(want, b);
    EXPECT_EQ(a.str(), b.str());
}

TEST(ValueHashTest, StringViewHashesAsItsStringValue)
{
    for (const char *s : {"", "a", "snow", "2020-01-18 06:02:01",
                          "a string well past the small-string buffer"})
        EXPECT_EQ(ValueHash{}(std::string_view(s)),
                  ValueHash{}(Value(std::string(s))))
            << s;
    EXPECT_TRUE(Value("x").equalsString("x"));
    EXPECT_FALSE(Value("x").equalsString("y"));
    EXPECT_FALSE(Value(int64_t{1}).equalsString("1"));
    EXPECT_FALSE(Value().equalsString(""));
}

TEST(ColumnDifferential, AppendCellsMatchesAppendRow)
{
    // The borrowed-cell append builds the same columns as the Row
    // append: same widening of int cells into the double column, same
    // NULLs, same ids in the same order.
    Schema schema({{"i", ValueType::kInt},
                   {"d", ValueType::kDouble},
                   {"b", ValueType::kBool},
                   {"s", ValueType::kString}});
    Rng rng(808);
    Table rows(schema);
    Table cells(schema);
    for (size_t r = 0; r < 2000; ++r) {
        Row row;
        for (size_t c = 0; c < schema.columnCount(); ++c)
            row.push_back(hostileCell(rng, schema.column(c).type));
        if (rng.bernoulli(0.3) && !row[1].isNull())
            row[1] = Value(rng.uniformInt(-8, 8)); // an int cell
        std::vector<CellRef> refs;
        for (const Value &v : row)
            refs.push_back(cellOf(v));
        cells.appendCells(refs);
        rows.append(row);
        if (rng.bernoulli(0.05)) // normalize both mid-stream
            expectSameColumns(cells, rows);
    }
    expectSameColumns(cells, rows);
    // A mistyped cell is refused before any column changes.
    const CellRef bad[] = {int64_t{1}, 2.0, true, int64_t{4}};
    EXPECT_THROW(cells.appendCells(bad), NazarError);
    const CellRef narrow[] = {int64_t{1}, 2.0, true};
    EXPECT_THROW(cells.appendCells(narrow), NazarError);
    expectSameColumns(cells, rows);
}

TEST(DriftLogAppendDifferential, AddMatchesRowAppendOracle)
{
    // DriftLog::add appends column by column from borrowed strings; it
    // must build exactly the columns the Row-at-a-time append builds.
    // Times arrive out of order (the dictionary goes unsorted), strings
    // repeat and are new, short and past the small-string buffer.
    for (uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed * 7919);
        DriftLog log;
        Table want(DriftLog::canonicalSchema());
        // A second round after clear() reuses the emptied index.
        for (size_t rows : {size_t{3000}, size_t{500}}) {
            log.clear();
            want.clear();
            for (size_t i = 0; i < rows; ++i) {
                DriftLogEntry e;
                e.time = SimDate(static_cast<int>(rng.index(112)),
                                 static_cast<int>(rng.index(86400)));
                size_t device = rng.index(60);
                e.deviceId =
                    device % 2 == 0
                        ? "android_" + std::to_string(device)
                        : "a_device_id_past_the_small_string_buffer_" +
                              std::to_string(device);
                e.deviceModel = "model_" + std::to_string(device % 5);
                e.location = rng.bernoulli(0.1)
                                 ? ""
                                 : "loc_" + std::to_string(rng.index(9));
                e.weather = rng.bernoulli(0.5) ? "snow" : "clear-day";
                e.modelVersion = rng.uniformInt(-3, 40);
                e.drift = rng.bernoulli(0.4);
                if (i % 2 == 0) {
                    log.add(e);
                } else {
                    log.add(DriftLogEntryView{e.time, e.deviceId,
                                              e.deviceModel, e.location,
                                              e.weather, e.modelVersion,
                                              e.drift});
                }
                oracle::appendEntryRow(want, e);
                if (rng.bernoulli(0.01))
                    expectSameColumns(log.table(), want);
            }
            expectSameColumns(log.table(), want);
        }
    }
}

// ---- randomized workload generators -------------------------------------

/** Random table over the four cell types with hostile values. */
Table
randomTable(Rng &rng, size_t rows)
{
    Table t(Schema({{"tag", ValueType::kString},
                    {"num", ValueType::kDouble},
                    {"cnt", ValueType::kInt},
                    {"flag", ValueType::kBool}}));
    const double specials[] = {kNaN, kInf, -kInf, 0.0, -0.0,
                               std::numeric_limits<double>::denorm_min()};
    for (size_t i = 0; i < rows; ++i) {
        Value tag, num, cnt, flag;
        if (!rng.bernoulli(0.08)) {
            tag = rng.bernoulli(0.05)
                      ? Value(std::string())
                      : Value("s" + std::to_string(rng.index(6)));
        }
        if (!rng.bernoulli(0.08)) {
            num = rng.bernoulli(0.2)
                      ? Value(specials[rng.index(6)])
                      : Value(static_cast<double>(
                            rng.uniformInt(-4, 4)) /
                          2.0);
        }
        if (!rng.bernoulli(0.08))
            cnt = Value(rng.uniformInt(-5, 5));
        if (!rng.bernoulli(0.08))
            flag = Value(rng.bernoulli(0.5));
        t.append({tag, num, cnt, flag});
    }
    return t;
}

/** Random condition mixing present, absent and NULL literals. */
Condition
randomCondition(Rng &rng, const Table &t)
{
    static const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe,
                                    CompareOp::kLt, CompareOp::kLe,
                                    CompareOp::kGt, CompareOp::kGe};
    const char *names[] = {"tag", "num", "cnt", "flag"};
    std::string col = names[rng.index(4)];
    CompareOp op = ops[rng.index(6)];
    Value lit;
    double pick = rng.uniform();
    if (pick < 0.15) {
        lit = Value(); // NULL literal
    } else if (pick < 0.45) {
        // A value actually present in the column.
        const auto &dict = t.column(col).dictionary();
        lit = dict[rng.index(dict.size())];
    } else if (col == "tag") {
        lit = rng.bernoulli(0.5)
                  ? Value("s" + std::to_string(rng.index(8)))
                  : Value(std::string("absent"));
    } else if (col == "num") {
        // Half the time an int literal against the double column —
        // must widen identically on both paths.
        lit = rng.bernoulli(0.5)
                  ? Value(rng.uniformInt(-3, 3))
                  : Value(static_cast<double>(rng.uniformInt(-9, 9)) /
                          4.0);
    } else if (col == "cnt") {
        lit = Value(rng.uniformInt(-8, 8));
    } else {
        lit = Value(rng.bernoulli(0.5));
    }
    return Condition{col, op, lit};
}

// ---- fluent Query vs row-at-a-time oracle --------------------------------

TEST(ColumnarDifferential, QueryMatchesConditionOracle)
{
    Rng rng(7);
    for (size_t round = 0; round < 40; ++round) {
        Table t = randomTable(rng, 80 + rng.index(200));
        size_t n_conds = rng.index(3);
        Query q(t);
        std::vector<Condition> conds;
        for (size_t i = 0; i < n_conds; ++i) {
            Condition c = randomCondition(rng, t);
            q = q.where(c.column, c.op, c.value);
            conds.push_back(c);
        }
        // The oracle: Condition::matches per cell, after the same
        // widening Query::where applies (read back via conditions()).
        const std::vector<Condition> &bound = q.conditions();
        auto row_matches = [&](size_t r) {
            for (const auto &c : bound)
                if (!c.matches(t.at(r, c.column)))
                    return false;
            return true;
        };
        std::vector<size_t> expect_rows;
        for (size_t r = 0; r < t.rowCount(); ++r)
            if (row_matches(r))
                expect_rows.push_back(r);

        EXPECT_EQ(q.count(), expect_rows.size());
        EXPECT_EQ(q.select(), expect_rows);

        // Single-column group-by.
        std::map<Value, size_t> expect_single;
        for (size_t r : expect_rows)
            ++expect_single[t.at(r, "tag")];
        EXPECT_EQ(q.groupByCount("tag"), expect_single);

        // Multi-column group-by over hostile doubles.
        std::map<std::vector<Value>, size_t> expect_multi;
        for (size_t r : expect_rows)
            ++expect_multi[{t.at(r, "tag"), t.at(r, "num")}];
        EXPECT_EQ(q.groupByCount(
                      std::vector<std::string>{"tag", "num"}),
                  expect_multi);
    }
}

TEST(ColumnarDifferential, AbsentLiteralShortCircuits)
{
    Rng rng(11);
    Table t = randomTable(rng, 100);
    Query q = Query(t).where("tag", Value(std::string("never-there")));
    EXPECT_EQ(q.count(), 0u);
    EXPECT_TRUE(q.select().empty());
    EXPECT_TRUE(q.groupByCount("cnt").empty());
    // The binder reports it as impossible — no scan happens.
    auto preds = bindConditions(t, q.conditions());
    EXPECT_TRUE(anyImpossible(preds));
}

TEST(ColumnarDifferential, DistinctIsTheSortedDictionary)
{
    Rng rng(13);
    Table t = randomTable(rng, 150);
    for (const char *col : {"tag", "num", "cnt", "flag"}) {
        std::set<Value> brute;
        for (size_t r = 0; r < t.rowCount(); ++r)
            brute.insert(t.at(r, col));
        std::vector<Value> expect(brute.begin(), brute.end());
        EXPECT_EQ(t.distinct(col), expect) << col;
    }
}

// ---- SQL: vectorized engine vs executeSqlNaive ---------------------------

/** Render a literal as SQL text (strings here are quote-free). */
std::string
sqlLiteral(const Value &v)
{
    if (v.type() == ValueType::kString)
        return "'" + v.asString() + "'";
    return v.toString();
}

std::string
sqlOp(CompareOp op)
{
    switch (op) {
      case CompareOp::kEq: return "=";
      case CompareOp::kNe: return "!=";
      case CompareOp::kLt: return "<";
      case CompareOp::kLe: return "<=";
      case CompareOp::kGt: return ">";
      case CompareOp::kGe: return ">=";
    }
    return "=";
}

/** Random WHERE clause whose literals are expressible as SQL text
 *  (no NULL / NaN / inf literals — cells still contain them). */
std::string
randomWhereSql(Rng &rng, const Table &t, size_t n_conds)
{
    std::string sql;
    size_t emitted = 0;
    for (size_t i = 0; i < n_conds; ++i) {
        Condition c = randomCondition(rng, t);
        if (c.value.isNull())
            continue;
        if (c.value.type() == ValueType::kDouble) {
            // nan/inf/exponent renderings don't lex as SQL numbers.
            std::string text = c.value.toString();
            if (text.find_first_not_of("-0123456789.") !=
                std::string::npos)
                continue;
        }
        sql += emitted++ ? " AND " : " WHERE ";
        sql += c.column + " " + sqlOp(c.op) + " " + sqlLiteral(c.value);
    }
    return sql;
}

void
expectSameResult(const SqlResult &a, const SqlResult &b,
                 const std::string &sql)
{
    ASSERT_EQ(a.columns, b.columns) << sql;
    ASSERT_EQ(a.rows.size(), b.rows.size()) << sql;
    for (size_t r = 0; r < a.rows.size(); ++r)
        EXPECT_EQ(a.rows[r], b.rows[r]) << sql << " row " << r;
}

TEST(ColumnarDifferential, SqlMatchesNaiveOracle)
{
    Rng rng(23);
    for (size_t round = 0; round < 60; ++round) {
        Table t = randomTable(rng, 60 + rng.index(150));
        std::string where = randomWhereSql(rng, t, rng.index(3));
        std::string sql;
        switch (rng.index(5)) {
          case 0:
            sql = "SELECT COUNT(*) FROM t" + where;
            break;
          case 1:
            sql = "SELECT tag, num FROM t" + where +
                  " ORDER BY num LIMIT 17";
            break;
          case 2:
            sql = "SELECT * FROM t" + where;
            break;
          case 3:
            sql = "SELECT tag, COUNT(*) FROM t" + where +
                  " GROUP BY tag ORDER BY COUNT(*) DESC";
            break;
          default:
            sql = "SELECT tag, num, COUNT(*) FROM t" + where +
                  " GROUP BY tag, num ORDER BY COUNT(*) DESC LIMIT 9";
            break;
        }
        SqlResult fast = executeSql(t, "t", sql);
        SqlResult naive = executeSqlNaive(t, "t", sql);
        expectSameResult(fast, naive, sql);
    }
}

TEST(Sql, ExplainRendersPruningAndShortCircuit)
{
    Rng rng(31);
    Table t = randomTable(rng, 50);
    SqlResult plan = executeSql(
        t, "t",
        "EXPLAIN SELECT tag, COUNT(*) FROM t WHERE cnt >= 0 "
        "GROUP BY tag");
    ASSERT_EQ(plan.columns, std::vector<std::string>{"plan"});
    std::string text;
    for (const auto &row : plan.rows)
        text += row[0].asString() + "\n";
    EXPECT_NE(text.find("read 2/4 columns (tag, cnt)"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("pruned 2 (num, flag)"), std::string::npos)
        << text;
    EXPECT_NE(text.find("dense per-id counts"), std::string::npos);

    SqlResult none = executeSql(
        t, "t",
        "EXPLAIN SELECT COUNT(*) FROM t WHERE tag = 'never-there'");
    std::string none_text;
    for (const auto &row : none.rows)
        none_text += row[0].asString() + "\n";
    EXPECT_NE(none_text.find("0 rows"), std::string::npos) << none_text;

    // The naive oracle has no planner to render.
    EXPECT_THROW(executeSqlNaive(t, "t", "EXPLAIN SELECT * FROM t"),
                 NazarError);
}

// ---- FIM: id probes vs Value-comparing reference -------------------------

TEST(ColumnarDifferential, FimMatchesReferenceMiner)
{
    Rng rng(43);
    for (size_t round = 0; round < 8; ++round) {
        // Drift log shaped like the RCA workload, with NULL-free bool
        // drift column but NULLs allowed in the attributes.
        Table t(Schema({{"weather", ValueType::kString},
                        {"location", ValueType::kString},
                        {"severity", ValueType::kDouble},
                        {"drift", ValueType::kBool}}));
        size_t rows = 200 + rng.index(400);
        const double sev[] = {0.0, 1.0, 2.0, kNaN};
        for (size_t i = 0; i < rows; ++i) {
            Value w = rng.bernoulli(0.05)
                          ? Value()
                          : Value("w" + std::to_string(rng.index(4)));
            Value l = Value("l" + std::to_string(rng.index(3)));
            Value s = Value(sev[rng.index(4)]);
            bool drift =
                rng.bernoulli(w == Value(std::string("w1")) ? 0.7 : 0.2);
            t.append({w, l, s, Value(drift)});
        }
        rca::RcaConfig config;
        config.attributeColumns = {"weather", "location", "severity"};
        rca::Fim fim(t, config);
        for (size_t threads : {1u, 4u}) {
            runtime::setThreads(threads);
            auto fast = fim.mine();
            auto ref = fim.mineReference();
            ASSERT_EQ(fast.size(), ref.size());
            for (size_t i = 0; i < fast.size(); ++i) {
                EXPECT_EQ(fast[i].attrs.toString(),
                          ref[i].attrs.toString());
                EXPECT_EQ(fast[i].metrics.setCount,
                          ref[i].metrics.setCount);
                EXPECT_EQ(fast[i].metrics.setDriftCount,
                          ref[i].metrics.setDriftCount);
                // Metrics derive from identical integer counts via
                // identical arithmetic: exact double equality.
                EXPECT_EQ(fast[i].metrics.riskRatio,
                          ref[i].metrics.riskRatio);
                EXPECT_EQ(fast[i].metrics.confidence,
                          ref[i].metrics.confidence);
            }
        }
        runtime::setThreads(1);
    }
}

// ---- round-trips ---------------------------------------------------------

TEST(ColumnarRoundTrip, CsvPreservesDictionaryAndCells)
{
    Rng rng(57);
    for (size_t round = 0; round < 10; ++round) {
        Table t = randomTable(rng, 120);
        std::ostringstream first;
        writeCsv(t, first);
        std::istringstream in(first.str());
        Table back = readCsv(t.schema(), in);
        ASSERT_EQ(back.rowCount(), t.rowCount());
        for (size_t r = 0; r < t.rowCount(); ++r)
            for (size_t c = 0; c < t.schema().columnCount(); ++c)
                EXPECT_EQ(back.at(r, c), t.at(r, c));
        // Dictionaries rebuild identically from the decoded stream...
        for (size_t c = 0; c < t.schema().columnCount(); ++c) {
            EXPECT_EQ(back.column(c).dictionary(),
                      t.column(c).dictionary());
            EXPECT_EQ(back.column(c).nullCount(),
                      t.column(c).nullCount());
        }
        // ...and a second encode is byte-identical.
        std::ostringstream second;
        writeCsv(back, second);
        EXPECT_EQ(second.str(), first.str());
    }
}

TEST(ColumnarRoundTrip, QuotedCellsSurviveDictionaryEncode)
{
    // Two columns: a row whose string cell is NULL must not collapse
    // into an all-empty record (readCsv skips blank lines).
    Table t(Schema({{"s", ValueType::kString}, {"i", ValueType::kInt}}));
    int64_t i = 0;
    for (const char *s :
         {"plain", "comma,inside", "quote\"inside", "line\nbreak", "",
          "trailing\r"})
        t.append({Value(std::string(s)), Value(i++)});
    t.append({Value(), Value(i)}); // NULL vs "" must stay distinct
    std::ostringstream os;
    writeCsv(t, os);
    std::istringstream in(os.str());
    Table back = readCsv(t.schema(), in);
    ASSERT_EQ(back.rowCount(), t.rowCount());
    for (size_t r = 0; r < t.rowCount(); ++r)
        EXPECT_EQ(back.at(r, 0), t.at(r, 0)) << r;
    EXPECT_TRUE(back.at(6, 0).isNull());
    EXPECT_EQ(back.at(4, 0), Value(std::string()));
}

} // namespace
} // namespace nazar::driftlog
