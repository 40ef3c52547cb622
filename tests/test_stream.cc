/**
 * @file
 * Tests for streaming-workload generation.
 */
#include <gtest/gtest.h>

#include <map>

#include "common/error.h"
#include "data/stream.h"

namespace nazar::data {
namespace {

struct Fixture
{
    AppSpec app = makeAnimalsApp(13, 10); // 10 classes: fast
    WeatherModel weather{app.locations, kSimPeriodDays, 2020};
};

WorkloadConfig
smallConfig()
{
    WorkloadConfig c;
    c.days = 28;
    c.devicesPerLocation = 4;
    c.imagesPerDevicePerDay = 2.0;
    c.seed = 5;
    return c;
}

TEST(Workload, DeterministicFromSeed)
{
    Fixture f;
    WorkloadGenerator g1(f.app, f.weather, smallConfig());
    WorkloadGenerator g2(f.app, f.weather, smallConfig());
    auto a = g1.generate();
    auto b = g2.generate();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].when, b[i].when);
        EXPECT_EQ(a[i].deviceId, b[i].deviceId);
        EXPECT_EQ(a[i].label, b[i].label);
        EXPECT_EQ(a[i].features, b[i].features);
    }
}

TEST(Workload, EventsAreChronological)
{
    Fixture f;
    WorkloadGenerator gen(f.app, f.weather, smallConfig());
    auto events = gen.generate();
    ASSERT_GT(events.size(), 100u);
    for (size_t i = 1; i < events.size(); ++i)
        EXPECT_LE(events[i - 1].when, events[i].when);
}

TEST(Workload, DeviceLocationMappingConsistent)
{
    Fixture f;
    WorkloadGenerator gen(f.app, f.weather, smallConfig());
    EXPECT_EQ(gen.deviceCount(),
              4 * static_cast<int>(f.app.locations.size()));
    for (const auto &ev : gen.generate()) {
        EXPECT_EQ(ev.locationId, gen.locationOfDevice(ev.deviceId));
        EXPECT_GE(ev.deviceId, 0);
        EXPECT_LT(ev.deviceId, gen.deviceCount());
    }
    EXPECT_THROW(gen.locationOfDevice(-1), NazarError);
}

TEST(Workload, EventCountNearExpectation)
{
    Fixture f;
    WorkloadConfig c = smallConfig();
    WorkloadGenerator gen(f.app, f.weather, c);
    double expected = c.days * gen.deviceCount() *
                      c.imagesPerDevicePerDay;
    double actual = static_cast<double>(gen.generate().size());
    EXPECT_NEAR(actual / expected, 1.0, 0.1);
}

TEST(Workload, DriftOnlyOnNonClearWeather)
{
    Fixture f;
    WorkloadGenerator gen(f.app, f.weather, smallConfig());
    for (const auto &ev : gen.generate()) {
        EXPECT_EQ(ev.weather,
                  f.weather.weatherAt(ev.locationId,
                                      ev.when.dayIndex()));
        if (ev.trueDrift) {
            EXPECT_NE(ev.weather, Weather::kClear);
            EXPECT_EQ(ev.corruption, weatherCorruption(ev.weather));
            EXPECT_GT(ev.severity, 0);
        } else {
            EXPECT_EQ(ev.corruption, CorruptionType::kNone);
        }
    }
}

TEST(Workload, FixedSeverityPolicy)
{
    Fixture f;
    WorkloadConfig c = smallConfig();
    c.severity = 4;
    WorkloadGenerator gen(f.app, f.weather, c);
    for (const auto &ev : gen.generate())
        if (ev.trueDrift) {
            EXPECT_EQ(ev.severity, 4);
        }
}

TEST(Workload, NormalSeverityPolicyVaries)
{
    Fixture f;
    WorkloadConfig c = smallConfig();
    c.severityPolicy = SeverityPolicy::kNormal;
    WorkloadGenerator gen(f.app, f.weather, c);
    std::map<int, int> histogram;
    for (const auto &ev : gen.generate())
        if (ev.trueDrift)
            ++histogram[ev.severity];
    // Severities are drawn from round(clip(N(3,1),0,5)): expect more
    // than one distinct level, all within [1,5] for drifted events.
    EXPECT_GT(histogram.size(), 1u);
    for (const auto &[severity, count] : histogram) {
        EXPECT_GE(severity, 1);
        EXPECT_LE(severity, 5);
    }
}

TEST(Workload, ZeroWeatherDriftProbMeansNoDrift)
{
    Fixture f;
    WorkloadConfig c = smallConfig();
    c.weatherDriftProb = 0.0;
    WorkloadGenerator gen(f.app, f.weather, c);
    for (const auto &ev : gen.generate())
        EXPECT_FALSE(ev.trueDrift);
}

TEST(Workload, ZipfSkewConcentratesClasses)
{
    Fixture f;
    WorkloadConfig uniform = smallConfig();
    WorkloadConfig skewed = smallConfig();
    skewed.zipfAlpha = 2.0;

    auto count_top_class = [&](const WorkloadConfig &c) {
        WorkloadGenerator gen(f.app, f.weather, c);
        // Location 0's class histogram.
        std::map<int, int> hist;
        int total = 0;
        for (const auto &ev : gen.generate()) {
            if (ev.locationId != 0)
                continue;
            ++hist[ev.label];
            ++total;
        }
        int top = 0;
        for (const auto &[cls, n] : hist)
            top = std::max(top, n);
        return static_cast<double>(top) / total;
    };
    EXPECT_GT(count_top_class(skewed), count_top_class(uniform) + 0.2);
}

TEST(Workload, LocationsHaveDifferentClassMixUnderSkew)
{
    Fixture f;
    WorkloadConfig c = smallConfig();
    c.zipfAlpha = 1.5;
    WorkloadGenerator gen(f.app, f.weather, c);
    // The most frequent class must differ across at least one pair of
    // locations (location-specific permutations).
    std::map<int, std::map<int, int>> hist;
    for (const auto &ev : gen.generate())
        ++hist[ev.locationId][ev.label];
    std::vector<int> top;
    for (auto &[loc, h] : hist) {
        int best = -1, best_n = -1;
        for (auto &[cls, n] : h)
            if (n > best_n) {
                best = cls;
                best_n = n;
            }
        top.push_back(best);
    }
    bool all_same = std::all_of(top.begin(), top.end(),
                                [&](int t) { return t == top[0]; });
    EXPECT_FALSE(all_same);
}

TEST(Workload, FeaturesHaveDomainWidth)
{
    Fixture f;
    WorkloadGenerator gen(f.app, f.weather, smallConfig());
    auto events = gen.generate();
    ASSERT_FALSE(events.empty());
    for (const auto &ev : events)
        EXPECT_EQ(ev.features.size(), f.app.domain.featureDim());
}

TEST(Workload, RejectsBadConfig)
{
    Fixture f;
    WorkloadConfig c = smallConfig();
    c.days = kSimPeriodDays + 1; // exceeds the weather model
    EXPECT_THROW(WorkloadGenerator(f.app, f.weather, c), NazarError);
}

} // namespace
} // namespace nazar::data
