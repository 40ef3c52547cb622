/**
 * @file
 * Implementation of the typed cell value.
 */
#include "value.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "common/error.h"

namespace nazar::driftlog {

std::string
toString(ValueType type)
{
    switch (type) {
      case ValueType::kNull:   return "null";
      case ValueType::kInt:    return "int";
      case ValueType::kDouble: return "double";
      case ValueType::kBool:   return "bool";
      case ValueType::kString: return "string";
    }
    return "?";
}

ValueType
Value::type() const
{
    switch (data_.index()) {
      case 0: return ValueType::kNull;
      case 1: return ValueType::kInt;
      case 2: return ValueType::kDouble;
      case 3: return ValueType::kBool;
      case 4: return ValueType::kString;
    }
    return ValueType::kNull;
}

int64_t
Value::asInt() const
{
    NAZAR_CHECK(std::holds_alternative<int64_t>(data_),
                "value is not an int");
    return std::get<int64_t>(data_);
}

double
Value::asDouble() const
{
    if (std::holds_alternative<int64_t>(data_))
        return static_cast<double>(std::get<int64_t>(data_));
    NAZAR_CHECK(std::holds_alternative<double>(data_),
                "value is not a double");
    return std::get<double>(data_);
}

bool
Value::asBool() const
{
    NAZAR_CHECK(std::holds_alternative<bool>(data_),
                "value is not a bool");
    return std::get<bool>(data_);
}

const std::string &
Value::asString() const
{
    NAZAR_CHECK(std::holds_alternative<std::string>(data_),
                "value is not a string");
    return std::get<std::string>(data_);
}

std::string
Value::toString() const
{
    switch (type()) {
      case ValueType::kNull:
        return "NULL";
      case ValueType::kInt:
        return std::to_string(std::get<int64_t>(data_));
      case ValueType::kDouble: {
        std::ostringstream os;
        os << std::get<double>(data_);
        return os.str();
      }
      case ValueType::kBool:
        return std::get<bool>(data_) ? "true" : "false";
      case ValueType::kString:
        return std::get<std::string>(data_);
    }
    return "?";
}

std::strong_ordering
Value::operator<=>(const Value &other) const
{
    if (auto c = data_.index() <=> other.data_.index(); c != 0)
        return c;
    switch (type()) {
      case ValueType::kNull:
        return std::strong_ordering::equal;
      case ValueType::kInt:
        return std::get<int64_t>(data_) <=> std::get<int64_t>(other.data_);
      case ValueType::kDouble:
        // IEEE totalOrder, not `<`: a NaN cell must order consistently
        // against every other double (and equal only to its own bit
        // pattern), or the std::map aggregations in Fim::mine lose the
        // strict-weak-ordering precondition and silently merge or drop
        // keys.
        return std::strong_order(std::get<double>(data_),
                                 std::get<double>(other.data_));
      case ValueType::kBool:
        return std::get<bool>(data_) <=> std::get<bool>(other.data_);
      case ValueType::kString:
        return std::get<std::string>(data_) <=>
               std::get<std::string>(other.data_);
    }
    return std::strong_ordering::equal;
}

namespace {

/** Mix a cell's bits with its type index (splitmix64 finalizer): the
 *  ints and doubles here hash to their own bits, which for small ints
 *  and round doubles leave most bits zero. */
size_t
mixHash(uint64_t bits, size_t type_index)
{
    uint64_t h = bits + 0x9e3779b97f4a7c15ULL * (type_index + 1);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<size_t>(h ^ (h >> 31));
}

} // namespace

size_t
Value::hash() const
{
    uint64_t bits = 0;
    switch (type()) {
      case ValueType::kNull:
        break;
      case ValueType::kInt:
        bits = static_cast<uint64_t>(std::get<int64_t>(data_));
        break;
      case ValueType::kDouble:
        bits = std::bit_cast<uint64_t>(std::get<double>(data_));
        break;
      case ValueType::kBool:
        bits = std::get<bool>(data_) ? 1 : 0;
        break;
      case ValueType::kString:
        return hashString(std::get<std::string>(data_));
    }
    return mixHash(bits, data_.index());
}

size_t
Value::hashString(std::string_view s)
{
    constexpr size_t kStringIndex = 4;
    static_assert(std::is_same_v<std::variant_alternative_t<
                                     kStringIndex, decltype(Value::data_)>,
                                 std::string>);
    return mixHash(std::hash<std::string_view>{}(s), kStringIndex);
}

std::ostream &
operator<<(std::ostream &os, const Value &v)
{
    return os << v.toString();
}

std::string
formatDoubleExact(double v)
{
    if (std::isnan(v))
        return std::signbit(v) ? "-nan" : "nan";
    if (std::isinf(v))
        return std::signbit(v) ? "-inf" : "inf";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace nazar::driftlog
