#include "persist/serial.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"

namespace nazar::persist {

void
Writer::putU32(uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        putU8(static_cast<uint8_t>(v >> (8 * i)));
}

void
Writer::putU64(uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        putU8(static_cast<uint8_t>(v >> (8 * i)));
}

void
Writer::putF64(double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(bits);
}

void
Writer::putBytes(const void *data, size_t len)
{
    buf_.append(static_cast<const char *>(data), len);
}

void
Writer::putString(std::string_view s)
{
    putU64(s.size());
    buf_.append(s);
}

const char *
Reader::need(size_t n)
{
    NAZAR_CHECK(len_ - pos_ >= n,
                "persist: truncated record (need " + std::to_string(n) +
                    " bytes, have " + std::to_string(len_ - pos_) + ")");
    const char *p = data_ + pos_;
    pos_ += n;
    return p;
}

uint8_t
Reader::getU8()
{
    return static_cast<uint8_t>(*need(1));
}

uint32_t
Reader::getU32()
{
    const char *p = need(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
    return v;
}

uint64_t
Reader::getU64()
{
    const char *p = need(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
    return v;
}

double
Reader::getF64()
{
    uint64_t bits = getU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string_view
Reader::getStringView()
{
    uint64_t n = getU64();
    NAZAR_CHECK(n <= remaining(),
                "persist: string length exceeds buffer");
    const char *p = need(static_cast<size_t>(n));
    return std::string_view(p, static_cast<size_t>(n));
}

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

/** getValue's checks (tag, then the payload's bounds), no Value built. */
void
skipValue(Reader &r)
{
    auto type = static_cast<driftlog::ValueType>(r.getU8());
    switch (type) {
      case driftlog::ValueType::kNull:
        return;
      case driftlog::ValueType::kInt:
      case driftlog::ValueType::kDouble:
        r.skip(8);
        return;
      case driftlog::ValueType::kBool:
        r.skip(1);
        return;
      case driftlog::ValueType::kString:
        r.getStringView();
        return;
    }
    throw NazarError("persist: unknown Value type tag " +
                     std::to_string(static_cast<int>(type)));
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

driftlog::DriftLogEntry
getEntry(Reader &r)
{
    driftlog::DriftLogEntryView v = getEntryView(r);
    driftlog::DriftLogEntry e;
    e.time = v.time;
    e.deviceId = v.deviceId;
    e.deviceModel = v.deviceModel;
    e.location = v.location;
    e.weather = v.weather;
    e.modelVersion = v.modelVersion;
    e.drift = v.drift;
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
        skipValue(r);
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
        skipValue(again);
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
