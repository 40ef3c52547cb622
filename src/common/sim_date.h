/**
 * @file
 * Simulated calendar time for Nazar experiments.
 *
 * The paper's evaluation emulates the period January 1, 2020 through
 * April 21, 2020 (112 days) and divides it into a configurable number
 * of analysis windows (8 by default). SimDate models a day within that
 * period plus a second-of-day timestamp; TimeWindows splits the period.
 */
#ifndef NAZAR_COMMON_SIM_DATE_H
#define NAZAR_COMMON_SIM_DATE_H

#include <cstdint>
#include <string>
#include <vector>

namespace nazar {

/** First day of the emulated period (day index 0). */
inline constexpr int kSimYear = 2020;

/** Number of days in the default evaluation period (Jan 1 - Apr 21). */
inline constexpr int kSimPeriodDays = 112;

/**
 * A calendar date inside the simulated deployment period, stored as a
 * day index from January 1, 2020, plus an optional second-of-day.
 */
class SimDate
{
  public:
    SimDate() = default;

    /** Construct from a day index (0 == Jan 1 2020) and second of day. */
    explicit SimDate(int day_index, int second_of_day = 0);

    /** Day index since January 1, 2020. */
    int dayIndex() const { return dayIndex_; }

    /** Seconds elapsed within the day, in [0, 86400). */
    int secondOfDay() const { return secondOfDay_; }

    /** Month in [1, 12] for 2020 (a leap year). */
    int month() const;

    /** Day of month in [1, 31]. */
    int dayOfMonth() const;

    /** ISO-style date string, e.g. "2020-01-18". */
    std::string toString() const;

    /** Date-time string, e.g. "2020-01-18 06:02:01". */
    std::string toDateTimeString() const;

    /** Length of toDateTimeString(): every field is fixed-width. */
    static constexpr size_t kDateTimeLength = 19;

    /** Write toDateTimeString()'s characters to @p out (no NUL). */
    void writeDateTime(char *out) const;

    /** Total ordering by (day, second). */
    auto operator<=>(const SimDate &) const = default;

  private:
    int dayIndex_ = 0;
    int secondOfDay_ = 0;
};

/**
 * An analysis window: a half-open range of day indices [begin, end).
 * Nazar runs root-cause analysis and adaptation at the end of each
 * window.
 */
struct TimeWindow
{
    int index = 0;    ///< Window ordinal (0-based).
    int beginDay = 0; ///< First day (inclusive).
    int endDay = 0;   ///< One past the last day.

    bool
    contains(int day) const
    {
        return day >= beginDay && day < endDay;
    }
};

/**
 * Split @p total_days into @p count contiguous windows of near-equal
 * size (earlier windows take the remainder).
 */
std::vector<TimeWindow> makeTimeWindows(int total_days, int count);

} // namespace nazar

#endif // NAZAR_COMMON_SIM_DATE_H
