/**
 * @file
 * Tests for simulated calendar time and analysis windows.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/error.h"
#include "common/sim_date.h"

namespace nazar {
namespace {

TEST(SimDate, EpochIsJanuaryFirst)
{
    SimDate d(0);
    EXPECT_EQ(d.month(), 1);
    EXPECT_EQ(d.dayOfMonth(), 1);
    EXPECT_EQ(d.toString(), "2020-01-01");
}

TEST(SimDate, LeapFebruary)
{
    // 2020 is a leap year: day 59 is Feb 29.
    SimDate d(31 + 28);
    EXPECT_EQ(d.month(), 2);
    EXPECT_EQ(d.dayOfMonth(), 29);
    EXPECT_EQ(d.toString(), "2020-02-29");
}

TEST(SimDate, MarchFirstAfterLeapDay)
{
    SimDate d(31 + 29);
    EXPECT_EQ(d.toString(), "2020-03-01");
}

TEST(SimDate, EndOfDefaultPeriodIsApril21)
{
    SimDate d(kSimPeriodDays - 1);
    EXPECT_EQ(d.toString(), "2020-04-21");
}

TEST(SimDate, DateTimeStringFormatting)
{
    SimDate d(17, 6 * 3600 + 2 * 60 + 1);
    EXPECT_EQ(d.toDateTimeString(), "2020-01-18 06:02:01");
}

/** The snprintf rendering toDateTimeString used to produce. */
std::string
printfDateTime(const SimDate &d)
{
    char buf[48];
    int s = d.secondOfDay();
    std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d",
                  kSimYear, d.month(), d.dayOfMonth(), s / 3600,
                  (s / 60) % 60, s % 60);
    return buf;
}

TEST(SimDate, DateTimeStringMatchesPrintf)
{
    // Every second of a leap year's first day and of the day the
    // 366-day calendar wraps.
    for (int day : {0, 365})
        for (int s = 0; s < 86400; ++s) {
            SimDate d(day, s);
            ASSERT_EQ(d.toDateTimeString(), printfDateTime(d))
                << "day " << day << " second " << s;
        }
    // Boundary seconds of every day across more than two wraps.
    for (int day = 0; day <= 800; ++day)
        for (int s : {0, 1, 59, 3599, 86399}) {
            SimDate d(day, s);
            ASSERT_EQ(d.toDateTimeString(), printfDateTime(d))
                << "day " << day << " second " << s;
        }
}

TEST(SimDate, RejectsBadConstruction)
{
    EXPECT_THROW(SimDate(-1), NazarError);
    EXPECT_THROW(SimDate(0, -5), NazarError);
    EXPECT_THROW(SimDate(0, 86400), NazarError);
}

TEST(SimDate, Ordering)
{
    EXPECT_LT(SimDate(1, 100), SimDate(1, 200));
    EXPECT_LT(SimDate(1, 86399), SimDate(2, 0));
    EXPECT_EQ(SimDate(3, 7), SimDate(3, 7));
}

TEST(TimeWindows, EvenSplit)
{
    auto windows = makeTimeWindows(112, 8);
    ASSERT_EQ(windows.size(), 8u);
    for (const auto &w : windows)
        EXPECT_EQ(w.endDay - w.beginDay, 14);
    EXPECT_EQ(windows.front().beginDay, 0);
    EXPECT_EQ(windows.back().endDay, 112);
}

TEST(TimeWindows, UnevenSplitCoversEverything)
{
    auto windows = makeTimeWindows(10, 3);
    ASSERT_EQ(windows.size(), 3u);
    int covered = 0;
    int prev_end = 0;
    for (const auto &w : windows) {
        EXPECT_EQ(w.beginDay, prev_end);
        covered += w.endDay - w.beginDay;
        prev_end = w.endDay;
    }
    EXPECT_EQ(covered, 10);
}

TEST(TimeWindows, ContainsIsHalfOpen)
{
    auto windows = makeTimeWindows(20, 2);
    EXPECT_TRUE(windows[0].contains(0));
    EXPECT_TRUE(windows[0].contains(9));
    EXPECT_FALSE(windows[0].contains(10));
    EXPECT_TRUE(windows[1].contains(10));
    EXPECT_FALSE(windows[1].contains(20));
}

TEST(TimeWindows, RejectsBadArguments)
{
    EXPECT_THROW(makeTimeWindows(0, 1), NazarError);
    EXPECT_THROW(makeTimeWindows(5, 0), NazarError);
    EXPECT_THROW(makeTimeWindows(5, 6), NazarError);
}

class WindowSplitTest
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(WindowSplitTest, PartitionProperty)
{
    auto [days, count] = GetParam();
    auto windows = makeTimeWindows(days, count);
    ASSERT_EQ(windows.size(), static_cast<size_t>(count));
    // Every day belongs to exactly one window.
    for (int day = 0; day < days; ++day) {
        int owners = 0;
        for (const auto &w : windows)
            owners += w.contains(day) ? 1 : 0;
        EXPECT_EQ(owners, 1) << "day " << day;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WindowSplitTest,
    ::testing::Values(std::pair{112, 8}, std::pair{112, 4},
                      std::pair{7, 7}, std::pair{13, 5},
                      std::pair{100, 3}, std::pair{1, 1}));

} // namespace
} // namespace nazar
