/**
 * @file
 * The worked example of the paper's §3.3 (Tables 2 and 3): a 5-entry
 * drift log from two devices in Helsinki and New York where the true
 * root cause is snowy weather and entry 3 is a detector false
 * positive. Shared by the RCA tests, together with a seeded log of odd
 * attribute values (goldenLog) and a full-precision ranked-table
 * printer.
 */
#ifndef NAZAR_TESTS_PAPER_EXAMPLE_H
#define NAZAR_TESTS_PAPER_EXAMPLE_H

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>

#include "common/rng.h"
#include "driftlog/table.h"
#include "rca/fim.h"

namespace nazar::rca::testing {

/** Build the paper's Table 2 as a drift-log-shaped table. */
inline driftlog::Table
paperTable2()
{
    using driftlog::Schema;
    using driftlog::Table;
    using driftlog::Value;
    using driftlog::ValueType;

    Table t(Schema({{"time", ValueType::kString},
                    {"device_id", ValueType::kString},
                    {"weather", ValueType::kString},
                    {"location", ValueType::kString},
                    {"drift", ValueType::kBool}}));
    t.append({Value("06:02:01"), Value("android_42"), Value("clear-day"),
              Value("helsinki"), Value(false)});
    t.append({Value("06:02:23"), Value("android_21"), Value("clear-day"),
              Value("new_york"), Value(false)});
    t.append({Value("06:04:55"), Value("android_21"), Value("clear-day"),
              Value("new_york"), Value(true)}); // false positive
    t.append({Value("08:03:32"), Value("android_21"), Value("snow"),
              Value("new_york"), Value(true)});
    t.append({Value("11:05:01"), Value("android_42"), Value("snow"),
              Value("helsinki"), Value(true)});
    return t;
}

/** RCA config matching the paper's example (3 metadata attributes). */
inline RcaConfig
paperConfig()
{
    RcaConfig config;
    config.attributeColumns = {"weather", "location", "device_id"};
    return config;
}

/** Find a cause by attribute set in a ranked list; nullptr if absent. */
inline const RankedCause *
findCause(const std::vector<RankedCause> &causes, const AttributeSet &attrs)
{
    for (const auto &c : causes)
        if (c.attrs == attrs)
            return &c;
    return nullptr;
}

/** Shorthand attribute-set constructors for the example's values. */
inline AttributeSet
weatherIs(const std::string &value)
{
    return AttributeSet({{"weather", driftlog::Value(value)}});
}

inline AttributeSet
locationIs(const std::string &value)
{
    return AttributeSet({{"location", driftlog::Value(value)}});
}

inline AttributeSet
weatherAndLocation(const std::string &weather, const std::string &loc)
{
    return AttributeSet({{"weather", driftlog::Value(weather)},
                         {"location", driftlog::Value(loc)}});
}

/**
 * Seeded log with NULL weather cells and a severity column of NaN,
 * -0.0, 0.0 and 1.5 (-0.0 and 0.0 are distinct dictionary entries
 * under Value's total order). Weather NULL, severity -0.0 and NaN, w1
 * and d2 carry drift signal, so the counterfactual walk accepts coarse
 * keys and, after absorbing them, finer merged causes.
 */
inline driftlog::Table
goldenLog(size_t rows)
{
    using driftlog::Value;
    using driftlog::ValueType;
    Rng rng(2026);
    const double sev[] = {std::numeric_limits<double>::quiet_NaN(), -0.0,
                          0.0, 1.5};
    driftlog::Table t(driftlog::Schema({{"weather", ValueType::kString},
                                        {"severity", ValueType::kDouble},
                                        {"device_id", ValueType::kString},
                                        {"drift", ValueType::kBool}}));
    for (size_t i = 0; i < rows; ++i) {
        size_t w = rng.index(5); // 4 = NULL weather
        size_t s = rng.index(4);
        size_t d = rng.index(6);
        double p = 0.15;
        if (w == 1)
            p += 0.45;
        if (s == 0)
            p += 0.3;
        if (s == 1)
            p += 0.55;
        if (w == 4)
            p += 0.6;
        if (d == 2)
            p += 0.5;
        t.append({w == 4 ? Value() : Value("w" + std::to_string(w)),
                  Value(sev[s]), Value("d" + std::to_string(d)),
                  Value(rng.bernoulli(std::min(0.95, p)))});
    }
    return t;
}

/** RCA config over goldenLog's three attribute columns. */
inline RcaConfig
goldenConfig()
{
    RcaConfig config;
    config.attributeColumns = {"weather", "severity", "device_id"};
    return config;
}

/** Every field of a ranked table, doubles at full precision. */
inline std::string
causesText(const std::vector<RankedCause> &causes)
{
    std::string out;
    for (const auto &c : causes) {
        char buf[160];
        std::snprintf(buf, sizeof buf, " %zu/%zu %.17g %.17g %.17g %.17g\n",
                      c.metrics.setCount, c.metrics.setDriftCount,
                      c.metrics.occurrence, c.metrics.support,
                      c.metrics.confidence, c.metrics.riskRatio);
        out += c.attrs.toString() + buf;
    }
    return out;
}

} // namespace nazar::rca::testing

#endif // NAZAR_TESTS_PAPER_EXAMPLE_H
