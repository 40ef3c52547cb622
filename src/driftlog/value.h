/**
 * @file
 * Typed cell values of the drift-log column store.
 */
#ifndef NAZAR_DRIFTLOG_VALUE_H
#define NAZAR_DRIFTLOG_VALUE_H

#include <compare>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <variant>

namespace nazar::driftlog {

/** Column data types supported by the store. */
enum class ValueType { kNull = 0, kInt, kDouble, kBool, kString };

/** Printable type name. */
std::string toString(ValueType type);

/** A dynamically typed cell value. */
class Value
{
  public:
    Value() = default;
    Value(int64_t v) : data_(v) {}                     // NOLINT(implicit)
    Value(int v) : data_(static_cast<int64_t>(v)) {}   // NOLINT(implicit)
    Value(double v) : data_(v) {}                      // NOLINT(implicit)
    Value(bool v) : data_(v) {}                        // NOLINT(implicit)
    Value(std::string v) : data_(std::move(v)) {}      // NOLINT(implicit)
    Value(const char *v) : data_(std::string(v)) {}    // NOLINT(implicit)

    ValueType type() const;

    bool isNull() const { return type() == ValueType::kNull; }

    /** Typed accessors; throw NazarError on type mismatch. */
    int64_t asInt() const;
    double asDouble() const;
    bool asBool() const;
    const std::string &asString() const;

    /** Render for display / serialization. */
    std::string toString() const;

    /**
     * Total order across all cells: by type first, then by value.
     * Doubles use IEEE totalOrder (std::strong_order), so NaN sorts
     * consistently (above +inf, below nothing) instead of comparing
     * "equal" to everything — a strict-weak-ordering requirement for
     * every std::map/std::set keyed on Value (Table::distinct, the
     * query group-bys, and the FIM level-1 aggregation).
     */
    std::strong_ordering operator<=>(const Value &other) const;

    /** Agrees with <=> by construction: equal iff same type and same
     *  value bits (NaN == NaN with the same payload; -0.0 != +0.0). */
    bool operator==(const Value &other) const
    {
        return (*this <=> other) == 0;
    }

    /**
     * Hash that agrees with operator==: the type index mixed with the
     * value's bits. Doubles hash their bit pattern, so NaN payloads
     * and -0.0 / +0.0 land on distinct keys exactly as they compare.
     */
    size_t hash() const;

    /** The hash() of a string Value holding @p s, without building it. */
    static size_t hashString(std::string_view s);

    /** True when this is a string cell equal to @p s. */
    bool equalsString(std::string_view s) const
    {
        const auto *p = std::get_if<std::string>(&data_);
        return p != nullptr && *p == s;
    }

  private:
    std::variant<std::monostate, int64_t, double, bool, std::string> data_;
};

/**
 * Hasher for containers keyed on Value. Transparent: a string_view
 * hashes as the string Value holding it does, so a string cell can be
 * looked up without building a Value (driftlog::Column's index).
 */
struct ValueHash
{
    using is_transparent = void;

    size_t operator()(const Value &v) const { return v.hash(); }
    size_t operator()(std::string_view s) const
    {
        return Value::hashString(s);
    }
};

std::ostream &operator<<(std::ostream &os, const Value &v);

/**
 * Full-precision decimal rendering of a double ("%.17g", with
 * nan/-nan/inf/-inf spelled so std::stod parses them back), so
 * parse(format(v)) is bit-exact for every finite value and preserves
 * the sign of NaN and infinity. Value::toString keeps the short
 * display form; serialization paths (CSV export, version metadata)
 * use this.
 */
std::string formatDoubleExact(double v);

} // namespace nazar::driftlog

#endif // NAZAR_DRIFTLOG_VALUE_H
