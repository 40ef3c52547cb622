#include "persist/serial.h"

#include <algorithm>
#include <bit>
#include <compare>
#include <cstring>
#include <limits>

#include "common/error.h"

namespace nazar::persist {

namespace detail {

// Out of line so each inline getter stays one compare and one load.
void
throwTruncated(size_t need, size_t have)
{
    throw NazarError(::nazar::detail::formatCheckMessage(
        "check", "len_ - pos_ >= n", __FILE__, __LINE__,
        "persist: truncated record (need " + std::to_string(need) +
            " bytes, have " + std::to_string(have) + ")"));
}

void
throwStringOverrun()
{
    throw NazarError(::nazar::detail::formatCheckMessage(
        "check", "n <= remaining()", __FILE__, __LINE__,
        "persist: string length exceeds buffer"));
}

} // namespace detail

void
putValue(Writer &w, const driftlog::Value &v)
{
    w.putU8(static_cast<uint8_t>(v.type()));
    switch (v.type()) {
      case driftlog::ValueType::kNull:
        break;
      case driftlog::ValueType::kInt:
        w.putI64(v.asInt());
        break;
      case driftlog::ValueType::kDouble:
        w.putF64(v.asDouble());
        break;
      case driftlog::ValueType::kBool:
        w.putBool(v.asBool());
        break;
      case driftlog::ValueType::kString:
        w.putString(v.asString());
        break;
    }
}

driftlog::Value
getValue(Reader &r)
{
    auto type = static_cast<driftlog::ValueType>(r.getU8());
    switch (type) {
      case driftlog::ValueType::kNull:
        return driftlog::Value();
      case driftlog::ValueType::kInt:
        return driftlog::Value(r.getI64());
      case driftlog::ValueType::kDouble:
        return driftlog::Value(r.getF64());
      case driftlog::ValueType::kBool:
        return driftlog::Value(r.getBool());
      case driftlog::ValueType::kString:
        return driftlog::Value(r.getString());
    }
    throw NazarError("persist: unknown Value type tag " +
                     std::to_string(static_cast<int>(type)));
}

namespace {

/** One encoded Value read in place: getValue's checks (the tag, then
 *  the payload's bounds), no Value built. */
struct ValueView
{
    driftlog::ValueType type = driftlog::ValueType::kNull;
    uint64_t bits = 0; ///< An int's or double's bits; a bool's 0/1.
    std::string_view str;
};

ValueView
getValueView(Reader &r)
{
    ValueView v;
    v.type = static_cast<driftlog::ValueType>(r.getU8());
    switch (v.type) {
      case driftlog::ValueType::kNull:
        return v;
      case driftlog::ValueType::kInt:
      case driftlog::ValueType::kDouble:
        v.bits = r.getU64();
        return v;
      case driftlog::ValueType::kBool:
        v.bits = r.getBool() ? 1 : 0;
        return v;
      case driftlog::ValueType::kString:
        v.str = r.getStringView();
        return v;
    }
    throw NazarError("persist: unknown Value type tag " +
                     std::to_string(static_cast<int>(v.type)));
}

/** Value's `<` over two views: by type, then by value (doubles by IEEE
 *  totalOrder, strings bytewise). */
bool
lessThan(const ValueView &a, const ValueView &b)
{
    if (a.type != b.type)
        return a.type < b.type;
    switch (a.type) {
      case driftlog::ValueType::kNull:
        return false;
      case driftlog::ValueType::kInt:
        return static_cast<int64_t>(a.bits) < static_cast<int64_t>(b.bits);
      case driftlog::ValueType::kDouble:
        return std::strong_order(std::bit_cast<double>(a.bits),
                                 std::bit_cast<double>(b.bits)) < 0;
      case driftlog::ValueType::kBool:
        return a.bits < b.bits;
      case driftlog::ValueType::kString:
        return a.str < b.str;
    }
    return false;
}

/** An attribute set's count, checked against the bytes left: each
 *  attribute takes at least its string length and its Value tag. */
uint32_t
getAttributeCount(Reader &r)
{
    uint32_t n = r.getU32();
    NAZAR_CHECK(n <= r.remaining() / 9,
                "persist: attribute count exceeds buffer");
    return n;
}

/** An upload's feature count, checked against the bytes left. */
uint64_t
getFeatureCount(Reader &r)
{
    uint64_t n = r.getU64();
    NAZAR_CHECK(n <= r.remaining() / 8,
                "persist: upload feature count exceeds buffer");
    return n;
}

} // namespace

void
putAttributeSet(Writer &w, const rca::AttributeSet &attrs)
{
    w.putU32(static_cast<uint32_t>(attrs.size()));
    for (const auto &attr : attrs.attributes()) {
        w.putString(attr.column);
        putValue(w, attr.value);
    }
}

rca::AttributeSet
getAttributeSet(Reader &r)
{
    uint32_t n = getAttributeCount(r);
    std::vector<rca::Attribute> attrs;
    attrs.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
        rca::Attribute attr;
        attr.column = r.getString();
        attr.value = getValue(r);
        attrs.push_back(std::move(attr));
    }
    return rca::AttributeSet(std::move(attrs));
}

void
putEntry(Writer &w, const driftlog::DriftLogEntry &e)
{
    w.putU32(static_cast<uint32_t>(e.time.dayIndex()));
    w.putU32(static_cast<uint32_t>(e.time.secondOfDay()));
    w.putString(e.deviceId);
    w.putString(e.deviceModel);
    w.putString(e.location);
    w.putString(e.weather);
    w.putI64(e.modelVersion);
    w.putBool(e.drift);
}

driftlog::DriftLogEntryView
getEntryView(Reader &r)
{
    driftlog::DriftLogEntryView e;
    int day = static_cast<int>(r.getU32());
    int second = static_cast<int>(r.getU32());
    e.time = SimDate(day, second);
    e.deviceId = r.getStringView();
    e.deviceModel = r.getStringView();
    e.location = r.getStringView();
    e.weather = r.getStringView();
    e.modelVersion = r.getI64();
    e.drift = r.getBool();
    return e;
}

void
putDriftLog(Writer &w, const driftlog::DriftLog &log)
{
    const driftlog::Table &table = log.table();
    w.putU32(static_cast<uint32_t>(table.schema().columnCount()));
    for (size_t c = 0; c < table.schema().columnCount(); ++c) {
        const driftlog::Column &col = table.column(c);
        w.putU8(static_cast<uint8_t>(col.type()));
        w.putU64(col.dictionary().size());
        for (const driftlog::Value &v : col.dictionary())
            putValue(w, v);
        w.putU64(col.ids().size());
        for (driftlog::Column::Id id : col.ids())
            w.putU32(id);
    }
}

driftlog::DriftLog
getDriftLog(Reader &r)
{
    driftlog::Schema schema = driftlog::DriftLog::canonicalSchema();
    NAZAR_CHECK(r.getU32() == schema.columnCount(),
                "persist: drift log has the wrong column count");
    std::vector<driftlog::Column> columns;
    columns.reserve(schema.columnCount());
    for (const driftlog::ColumnDef &def : schema.columns()) {
        NAZAR_CHECK(r.getU8() == static_cast<uint8_t>(def.type),
                    "persist: drift-log column " + def.name +
                        " has the wrong type");
        uint64_t entries = r.getU64();
        // Every encoded Value takes at least its one-byte tag.
        NAZAR_CHECK(entries <= r.remaining(),
                    "persist: drift-log dictionary exceeds buffer");
        std::vector<driftlog::Value> dict;
        dict.reserve(static_cast<size_t>(entries));
        for (uint64_t i = 0; i < entries; ++i)
            dict.push_back(getValue(r));
        uint64_t rows = r.getU64();
        NAZAR_CHECK(rows <= r.remaining() / 4,
                    "persist: drift-log ids exceed buffer");
        std::vector<driftlog::Column::Id> ids(static_cast<size_t>(rows));
        for (auto &id : ids)
            id = r.getU32();
        columns.emplace_back(def.type, std::move(dict), std::move(ids));
    }
    return driftlog::DriftLog::fromTable(
        driftlog::Table(std::move(schema), std::move(columns)));
}

void
skipDriftLog(Reader &r)
{
    const driftlog::Schema schema = driftlog::DriftLog::canonicalSchema();
    NAZAR_CHECK(r.getU32() == schema.columnCount(),
                "persist: drift log has the wrong column count");
    std::vector<uint64_t> lengths;
    std::vector<bool> referenced;
    for (const driftlog::ColumnDef &def : schema.columns()) {
        NAZAR_CHECK(r.getU8() == static_cast<uint8_t>(def.type),
                    "persist: drift-log column " + def.name +
                        " has the wrong type");
        uint64_t entries = r.getU64();
        NAZAR_CHECK(entries <= r.remaining(),
                    "persist: drift-log dictionary exceeds buffer");
        // Column's from-parts checks run after the whole column is
        // read; note the first entry that fails one, in their order.
        const char *bad_entry = nullptr;
        ValueView prev;
        for (uint64_t i = 0; i < entries; ++i) {
            ValueView v = getValueView(r);
            if (bad_entry != nullptr)
                continue;
            if (v.type != driftlog::ValueType::kNull && v.type != def.type)
                bad_entry = "dictionary entry type does not match column "
                            "type";
            else if (i > 0 && !lessThan(prev, v))
                bad_entry = "column dictionary is not strictly ascending";
            prev = v;
        }
        uint64_t rows = r.getU64();
        NAZAR_CHECK(rows <= r.remaining() / 4,
                    "persist: drift-log ids exceed buffer");
        // Column reserves its largest id as the index's empty slot.
        NAZAR_CHECK(entries < std::numeric_limits<driftlog::Column::Id>::max(),
                    "column dictionary overflow");
        NAZAR_CHECK(bad_entry == nullptr, bad_entry);
        NAZAR_CHECK(entries == 0 || std::bit_ceil(std::max<uint64_t>(
                                        16, 2 * entries)) <=
                                        (uint64_t{1} << 32),
                    "column index overflow");
        referenced.assign(static_cast<size_t>(entries), false);
        for (uint64_t i = 0; i < rows; ++i) {
            uint32_t id = r.getU32();
            NAZAR_CHECK(id < entries, "column id out of range");
            referenced[id] = true;
        }
        NAZAR_CHECK(std::find(referenced.begin(), referenced.end(),
                              false) == referenced.end(),
                    "column dictionary has an unreferenced entry");
        lengths.push_back(rows);
    }
    for (uint64_t rows : lengths)
        NAZAR_CHECK(rows == lengths.front(), "columns differ in length");
}

void
putUpload(Writer &w, const UploadRecord &u)
{
    w.putU64(u.features.size());
    for (double f : u.features)
        w.putF64(f);
    putAttributeSet(w, u.context);
    w.putBool(u.driftFlag);
}

UploadRecord
getUpload(Reader &r)
{
    UploadRecord u;
    uint64_t n = getFeatureCount(r);
    u.features.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i)
        u.features.push_back(r.getF64());
    u.context = getAttributeSet(r);
    u.driftFlag = r.getBool();
    return u;
}

namespace {

/**
 * getAttributeSet's checks without building the set: the count, each
 * column string and Value, and the AttributeSet constructor's rule of
 * at most one value per column.
 */
void
skipAttributeSet(Reader &r)
{
    const Reader start = r;
    uint32_t n = getAttributeCount(r);
    bool ascending = true; // strictly ascending columns are distinct
    std::string_view prev;
    for (uint32_t i = 0; i < n; ++i) {
        std::string_view column = r.getStringView();
        ascending = ascending && (i == 0 || prev < column);
        prev = column;
        getValueView(r);
    }
    if (ascending)
        return;
    // Written out of order (putAttributeSet never does): compare every
    // column with every other, as the constructor's sort does.
    Reader again = start;
    again.getU32();
    std::vector<std::string_view> columns(n);
    for (std::string_view &column : columns) {
        column = again.getStringView();
        getValueView(again);
    }
    std::sort(columns.begin(), columns.end());
    NAZAR_CHECK(std::adjacent_find(columns.begin(), columns.end()) ==
                    columns.end(),
                "at most one value per column in an attribute set");
}

} // namespace

void
skipUpload(Reader &r)
{
    r.skip(static_cast<size_t>(getFeatureCount(r)) * 8);
    skipAttributeSet(r);
    r.getBool();
}

} // namespace nazar::persist
