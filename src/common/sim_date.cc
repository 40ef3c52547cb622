/**
 * @file
 * Implementation of simulated calendar time.
 */
#include "sim_date.h"

#include <array>
#include <cstdio>

#include "error.h"

namespace nazar {

namespace {

// 2020 is a leap year.
constexpr std::array<int, 12> kDaysPerMonth = {31, 29, 31, 30, 31, 30,
                                               31, 31, 30, 31, 30, 31};

} // namespace

SimDate::SimDate(int day_index, int second_of_day)
    : dayIndex_(day_index), secondOfDay_(second_of_day)
{
    NAZAR_CHECK(day_index >= 0, "day index must be non-negative");
    NAZAR_CHECK(second_of_day >= 0 && second_of_day < 86400,
                "second of day must be in [0, 86400)");
}

int
SimDate::month() const
{
    int d = dayIndex_ % 366;
    for (int m = 0; m < 12; ++m) {
        if (d < kDaysPerMonth[m])
            return m + 1;
        d -= kDaysPerMonth[m];
    }
    return 12;
}

int
SimDate::dayOfMonth() const
{
    int d = dayIndex_ % 366;
    for (int m = 0; m < 12; ++m) {
        if (d < kDaysPerMonth[m])
            return d + 1;
        d -= kDaysPerMonth[m];
    }
    return kDaysPerMonth[11];
}

std::string
SimDate::toString() const
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", kSimYear, month(),
                  dayOfMonth());
    return buf;
}

void
SimDate::writeDateTime(char *out) const
{
    // "YYYY-MM-DD hh:mm:ss": every field is fixed-width (the year is
    // kSimYear, month/day/h/m/s are two digits), so the 19 characters
    // are written in place instead of going through snprintf.
    static_assert(kSimYear >= 1000 && kSimYear <= 9999);
    auto two = [out](size_t at, int v) {
        out[at] = static_cast<char>('0' + v / 10);
        out[at + 1] = static_cast<char>('0' + v % 10);
    };
    two(0, kSimYear / 100);
    two(2, kSimYear % 100);
    out[4] = '-';
    two(5, month());
    out[7] = '-';
    two(8, dayOfMonth());
    out[10] = ' ';
    two(11, secondOfDay_ / 3600);
    out[13] = ':';
    two(14, (secondOfDay_ / 60) % 60);
    out[16] = ':';
    two(17, secondOfDay_ % 60);
}

std::string
SimDate::toDateTimeString() const
{
    std::string out(kDateTimeLength, ' ');
    writeDateTime(out.data());
    return out;
}

std::vector<TimeWindow>
makeTimeWindows(int total_days, int count)
{
    NAZAR_CHECK(total_days > 0, "need at least one day");
    NAZAR_CHECK(count > 0 && count <= total_days,
                "window count must be in [1, total_days]");
    std::vector<TimeWindow> windows;
    windows.reserve(count);
    int base = total_days / count;
    int rem = total_days % count;
    int day = 0;
    for (int i = 0; i < count; ++i) {
        int len = base + (i < rem ? 1 : 0);
        windows.push_back(TimeWindow{i, day, day + len});
        day += len;
    }
    NAZAR_ASSERT(day == total_days, "window split must cover the period");
    return windows;
}

} // namespace nazar
