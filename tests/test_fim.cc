/**
 * @file
 * Tests for frequent itemset mining, validated against the paper's
 * worked example (Tables 2 and 3) and its explicitly stated metric
 * values.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.h"
#include "obs/metrics.h"
#include "paper_example.h"
#include "rca/fim.h"
#include "runtime/thread_pool.h"

namespace nazar::rca {
namespace {

using testing::attributeSetCandidates;
using testing::causesText;
using testing::findCause;
using testing::goldenConfig;
using testing::goldenLog;
using testing::locationIs;
using testing::paperConfig;
using testing::paperTable2;
using testing::weatherAndLocation;
using testing::weatherIs;

/** A drift-flag bitset from per-row bools. */
RowBitset
flagsOf(const std::vector<bool> &bools)
{
    RowBitset flags(bools.size());
    for (size_t r = 0; r < bools.size(); ++r)
        flags.set(r, bools[r]);
    return flags;
}

TEST(Fim, SnowMetricsMatchPaperText)
{
    driftlog::Table t = paperTable2();
    RcaConfig config = paperConfig();
    Fim fim(t, config);
    auto causes = fim.mine();

    // Paper: {snow} has occurrence 0.4, support 0.67 (2 of 3 drift
    // entries), confidence 1, risk ratio 3.
    const RankedCause *snow = findCause(causes, weatherIs("snow"));
    ASSERT_NE(snow, nullptr);
    EXPECT_NEAR(snow->metrics.occurrence, 0.4, 1e-9);
    EXPECT_NEAR(snow->metrics.support, 2.0 / 3.0, 1e-9);
    EXPECT_NEAR(snow->metrics.confidence, 1.0, 1e-9);
    EXPECT_NEAR(snow->metrics.riskRatio, 3.0, 1e-9);
    EXPECT_EQ(snow->metrics.setCount, 2u);
    EXPECT_EQ(snow->metrics.setDriftCount, 2u);
}

TEST(Fim, SnowHelsinkiRiskRatioMatchesPaperText)
{
    // Paper: "for {snow, Helsinki}, the risk ratio is 2".
    driftlog::Table t = paperTable2();
    RcaConfig config = paperConfig();
    auto causes = Fim(t, config).mine();
    const RankedCause *sh =
        findCause(causes, weatherAndLocation("snow", "helsinki"));
    ASSERT_NE(sh, nullptr);
    EXPECT_NEAR(sh->metrics.riskRatio, 2.0, 1e-9);
    EXPECT_NEAR(sh->metrics.confidence, 1.0, 1e-9);
    EXPECT_NEAR(sh->metrics.occurrence, 0.2, 1e-9);
    EXPECT_NEAR(sh->metrics.support, 1.0 / 3.0, 1e-9);
}

TEST(Fim, NewYorkMetricsMatchTable3)
{
    // Table 3: {New York} has occ 0.4? — the worked table lists conf
    // 0.67 and RR 1.3 for the New-York row; verify those here:
    // P(drift | NY) = 2/3, P(drift | !NY) = 1/2 -> RR = 4/3.
    driftlog::Table t = paperTable2();
    auto causes = Fim(t, paperConfig()).mine();
    const RankedCause *ny = findCause(causes, locationIs("new_york"));
    ASSERT_NE(ny, nullptr);
    EXPECT_NEAR(ny->metrics.confidence, 2.0 / 3.0, 1e-9);
    EXPECT_NEAR(ny->metrics.riskRatio, 4.0 / 3.0, 1e-9);
}

TEST(Fim, ClearDayFailsConfidenceThreshold)
{
    // {clear-day} covers the two clean entries plus the false
    // positive: confidence 1/3 < 0.51, so it is not a cause.
    driftlog::Table t = paperTable2();
    RcaConfig config = paperConfig();
    auto causes = Fim(t, config).mine();
    const RankedCause *clear = findCause(causes, weatherIs("clear-day"));
    ASSERT_NE(clear, nullptr);
    EXPECT_NEAR(clear->metrics.confidence, 1.0 / 3.0, 1e-9);
    EXPECT_FALSE(passesThresholds(clear->metrics, config));
}

TEST(Fim, SnowIsTopRanked)
{
    driftlog::Table t = paperTable2();
    auto causes = Fim(t, paperConfig()).mine();
    ASSERT_FALSE(causes.empty());
    EXPECT_EQ(causes.front().attrs, weatherIs("snow"));
}

TEST(Fim, RespectsMaxAttributes)
{
    driftlog::Table t = paperTable2();
    RcaConfig config = paperConfig();
    config.maxAttributes = 1;
    auto causes = Fim(t, config).mine();
    for (const auto &c : causes)
        EXPECT_EQ(c.attrs.size(), 1u);

    config.maxAttributes = 2;
    causes = Fim(t, config).mine();
    size_t pairs = 0;
    for (const auto &c : causes) {
        EXPECT_LE(c.attrs.size(), 2u);
        pairs += c.attrs.size() == 2 ? 1 : 0;
    }
    EXPECT_GT(pairs, 0u);
}

TEST(Fim, TripleAttributeSetsAreMined)
{
    driftlog::Table t = paperTable2();
    auto causes = Fim(t, paperConfig()).mine();
    const RankedCause *triple = findCause(
        causes, AttributeSet({{"weather", driftlog::Value("snow")},
                              {"location", driftlog::Value("helsinki")},
                              {"device_id",
                               driftlog::Value("android_42")}}));
    ASSERT_NE(triple, nullptr);
    EXPECT_NEAR(triple->metrics.confidence, 1.0, 1e-9);
}

TEST(Fim, NonOccurringCombinationsAreAbsent)
{
    // {snow, android_21, helsinki} never occurs: must not be listed.
    driftlog::Table t = paperTable2();
    auto causes = Fim(t, paperConfig()).mine();
    const RankedCause *ghost = findCause(
        causes, AttributeSet({{"weather", driftlog::Value("snow")},
                              {"location", driftlog::Value("helsinki")},
                              {"device_id",
                               driftlog::Value("android_21")}}));
    EXPECT_EQ(ghost, nullptr);
}

TEST(Fim, RankingIsMonotoneInRiskRatio)
{
    driftlog::Table t = paperTable2();
    auto causes = Fim(t, paperConfig()).mine();
    for (size_t i = 1; i < causes.size(); ++i)
        EXPECT_GE(causes[i - 1].metrics.riskRatio,
                  causes[i].metrics.riskRatio);
}

TEST(Fim, OccurrencePruningDropsRareSingletons)
{
    driftlog::Table t = paperTable2();
    RcaConfig config = paperConfig();
    config.minOccurrence = 0.5; // only attributes on >= 3 of 5 rows
    auto causes = Fim(t, config).mine();
    // Level-1 results are always reported, but no pairs can form from
    // infrequent singletons (clear-day occ 0.6 and new_york 0.6 and
    // android_21 0.6 survive; snow 0.4 does not).
    for (const auto &c : causes) {
        if (c.attrs.size() >= 2) {
            for (const auto &a : c.attrs.attributes())
                EXPECT_NE(a.value.toString(), "snow");
        }
    }
}

TEST(Fim, DriftFlagsExtraction)
{
    driftlog::Table t = paperTable2();
    auto flags = Fim::driftFlags(t, "drift");
    EXPECT_EQ(flags, flagsOf({false, false, true, true, true}));
}

TEST(Fim, ExternallySuppliedFlagsOverrideColumn)
{
    driftlog::Table t = paperTable2();
    RcaConfig config = paperConfig();
    Fim fim(t, config);
    // All-false flags: every confidence is zero.
    auto causes = fim.mine(RowBitset(5));
    for (const auto &c : causes) {
        EXPECT_EQ(c.metrics.confidence, 0.0);
        EXPECT_EQ(c.metrics.support, 0.0);
    }
}

TEST(Fim, ComputeMetricsMatchesMinerForSameSet)
{
    driftlog::Table t = paperTable2();
    auto flags = Fim::driftFlags(t, "drift");
    CauseMetrics m = computeMetrics(t, flags, weatherIs("snow"));
    EXPECT_NEAR(m.riskRatio, 3.0, 1e-9);
    EXPECT_NEAR(m.occurrence, 0.4, 1e-9);
}

TEST(Fim, UniversalSetHasZeroRiskRatio)
{
    // A set covering every row is a constant of the table: it has no
    // contrast group, so it must not pass as a cause (its risk ratio
    // is defined as zero).
    driftlog::Table t = paperTable2();
    RowBitset flags = flagsOf(std::vector<bool>(5, true));
    CauseMetrics m = computeMetrics(t, flags, AttributeSet());
    EXPECT_EQ(m.riskRatio, 0.0);
    EXPECT_EQ(m.confidence, 1.0);
    EXPECT_FALSE(passesThresholds(m, paperConfig()));
}

TEST(Fim, AllDriftOutsideSetGivesInfiniteRiskRatio)
{
    // Full contrast the other way: drift happens only inside the set.
    driftlog::Table t = paperTable2();
    RowBitset flags = flagsOf({false, false, false, true, true});
    CauseMetrics m = computeMetrics(t, flags, weatherIs("snow"));
    EXPECT_TRUE(std::isinf(m.riskRatio));
}

TEST(Fim, ValidatesConfiguration)
{
    driftlog::Table t = paperTable2();
    RcaConfig bad;
    EXPECT_THROW(Fim(t, bad), NazarError); // no attribute columns
    bad.attributeColumns = {"nope"};
    EXPECT_THROW(Fim(t, bad), NazarError);
    bad.attributeColumns = {"weather"};
    bad.driftColumn = "nope";
    EXPECT_THROW(Fim(t, bad), NazarError);
}

TEST(Fim, PassesThresholdsChecksAllFour)
{
    RcaConfig config = paperConfig();
    CauseMetrics good{0.5, 0.5, 0.9, 2.0, 10, 9};
    EXPECT_TRUE(passesThresholds(good, config));
    CauseMetrics low_conf = good;
    low_conf.confidence = 0.5;
    EXPECT_FALSE(passesThresholds(low_conf, config));
    CauseMetrics low_rr = good;
    low_rr.riskRatio = 1.0;
    EXPECT_FALSE(passesThresholds(low_rr, config));
    CauseMetrics low_occ = good;
    low_occ.occurrence = 0.001;
    EXPECT_FALSE(passesThresholds(low_occ, config));
    CauseMetrics low_sup = good;
    low_sup.support = 0.001;
    EXPECT_FALSE(passesThresholds(low_sup, config));
}

// ---- Vertical bitmap layout -----------------------------------------

using driftlog::Table;
using driftlog::Value;

/**
 * Row counts around the bitmap's edges: the empty table, a single
 * row, both sides of the first word boundary, both sides of one
 * kRowGrain chunk, and past the kParallelRowCutoff switch with a
 * one-row tail word.
 */
const size_t kEdgeRowCounts[] = {0,    1,    63,   64,  65,
                                 4095, 4096, 4097, 8193};

static_assert(kRowGrain == 4096 && kParallelRowCutoff == 8192,
              "kEdgeRowCounts straddles these boundaries");

/** Row-at-a-time counts of a set: the oracle for the popcounts. */
std::pair<size_t, size_t>
directCounts(const Table &t, const RowBitset &flags, const AttributeSet &set)
{
    size_t rows = 0, drift = 0;
    for (size_t r = 0; r < t.rowCount(); ++r) {
        if (set.matchesRow(t, r)) {
            ++rows;
            drift += flags.test(r);
        }
    }
    return {rows, drift};
}

struct FimBitmap : ::testing::Test
{
    ~FimBitmap() override
    {
        runtime::setThreads(0); // restore the configured default
    }
};

TEST_F(FimBitmap, RowBitsetTailWordStaysMasked)
{
    for (size_t n : kEdgeRowCounts) {
        SCOPED_TRACE("rows=" + std::to_string(n));
        RowBitset bits(n);
        EXPECT_EQ(bits.wordCount(), (n + 63) / 64);
        for (size_t r = 0; r < n; ++r)
            bits.set(r);
        EXPECT_EQ(bits.count(), n);
        if (n % 64 != 0) { // bits past the last row never get set
            EXPECT_EQ(bits.words()[n / 64] >> (n % 64), 0u);
        }
        if (n > 0) {
            bits.set(n - 1, false);
            EXPECT_FALSE(bits.test(n - 1));
            EXPECT_EQ(bits.count(), n - 1);
        }
    }
}

TEST_F(FimBitmap, DriftFlagsMatchTheColumnAtEdgeRowCounts)
{
    for (size_t n : kEdgeRowCounts) {
        SCOPED_TRACE("rows=" + std::to_string(n));
        Table t = goldenLog(n);
        RowBitset flags = Fim::driftFlags(t, "drift");
        ASSERT_EQ(flags.size(), n);
        size_t drifted = 0;
        for (size_t r = 0; r < n; ++r) {
            EXPECT_EQ(flags.test(r), t.at(r, "drift").asBool()) << r;
            drifted += t.at(r, "drift").asBool();
        }
        EXPECT_EQ(flags.count(), drifted);
    }
}

TEST_F(FimBitmap, MinerMatchesReferenceAndDirectCountsAtEdgeRowCounts)
{
    for (size_t n : kEdgeRowCounts) {
        SCOPED_TRACE("rows=" + std::to_string(n));
        Table t = goldenLog(n);
        RcaConfig config = goldenConfig();
        config.minOccurrence = 0.0; // every occurring set is counted
        Fim fim(t, config);
        RowBitset flags = Fim::driftFlags(t, "drift");
        runtime::setThreads(1);
        const std::string sequential = causesText(fim.mine());
        EXPECT_EQ(sequential, causesText(fim.mineReference()));
        runtime::setThreads(4);
        EXPECT_EQ(sequential, causesText(fim.mine()));
        EXPECT_EQ(sequential, causesText(fim.mineReference()));
        // Every mined set's counts equal a row-at-a-time scan, and so
        // do computeMetrics' popcounts.
        for (const auto &c : fim.mine()) {
            auto [rows, drift] = directCounts(t, flags, c.attrs);
            EXPECT_EQ(c.metrics.setCount, rows) << c.attrs.toString();
            EXPECT_EQ(c.metrics.setDriftCount, drift)
                << c.attrs.toString();
            CauseMetrics m = computeMetrics(t, flags, c.attrs);
            EXPECT_EQ(m.setCount, rows);
            EXPECT_EQ(m.setDriftCount, drift);
        }
    }
}

TEST_F(FimBitmap, OddValuesCountAsDistinctAttributes)
{
    Table t = goldenLog(4097);
    RowBitset flags = Fim::driftFlags(t, "drift");
    const double nan = std::numeric_limits<double>::quiet_NaN();
    size_t total = 0;
    for (Value v : {Value(nan), Value(-0.0), Value(0.0), Value(1.5)}) {
        AttributeSet set({{"severity", v}});
        CauseMetrics m = computeMetrics(t, flags, set);
        auto [rows, drift] = directCounts(t, flags, set);
        EXPECT_GT(m.setCount, 0u) << v.toString();
        EXPECT_EQ(m.setCount, rows) << v.toString();
        EXPECT_EQ(m.setDriftCount, drift) << v.toString();
        total += m.setCount;
    }
    EXPECT_EQ(total, t.rowCount()); // -0.0 and 0.0 do not overlap
    AttributeSet null_weather({{"weather", Value()}});
    CauseMetrics m = computeMetrics(t, flags, null_weather);
    EXPECT_GT(m.setCount, 0u);
    EXPECT_EQ(m.setCount, directCounts(t, flags, null_weather).first);
    AttributeSet null_and_nan(
        {{"weather", Value()}, {"severity", Value(nan)}});
    auto [rows, drift] = directCounts(t, flags, null_and_nan);
    m = computeMetrics(t, flags, null_and_nan);
    EXPECT_EQ(m.setCount, rows);
    EXPECT_EQ(m.setDriftCount, drift);
}

TEST_F(FimBitmap, AbsentValueCountsZero)
{
    Table t = goldenLog(8193);
    RowBitset flags = Fim::driftFlags(t, "drift");
    for (size_t threads : {1u, 4u}) {
        runtime::setThreads(threads);
        CauseMetrics hail = computeMetrics(
            t, flags, AttributeSet({{"weather", Value("hail")}}));
        EXPECT_EQ(hail.setCount, 0u);
        EXPECT_EQ(hail.setDriftCount, 0u);
        EXPECT_EQ(hail.occurrence, 0.0);
        // Absent beside a present value: the conjunction is empty too.
        CauseMetrics pair = computeMetrics(
            t, flags,
            AttributeSet({{"weather", Value("w1")},
                          {"severity", Value(2.5)}}));
        EXPECT_EQ(pair.setCount, 0u);
        EXPECT_EQ(pair.setDriftCount, 0u);
    }
}

TEST_F(FimBitmap, ClearRowsClearsExactlyTheSetsRows)
{
    for (size_t n : {65u, 8193u}) {
        Table t = goldenLog(n);
        RowBitset flags = Fim::driftFlags(t, "drift");
        AttributeSet set({{"weather", Value("w1")},
                          {"severity", Value(-0.0)}});
        BitmapIndex index(t, set.attributes());
        RowBitset cleared = flags;
        index.clearRows(cleared, set);
        for (size_t r = 0; r < n; ++r)
            EXPECT_EQ(cleared.test(r),
                      flags.test(r) && !set.matchesRow(t, r))
                << r;
        EXPECT_EQ(computeMetrics(index, cleared, set).setDriftCount, 0u);
    }
}

// ---- Dispatched popcount kernels ------------------------------------

/** Everything the counting passes produce on one log, for comparing
 *  one kernel variant with another. */
struct KernelOutputs
{
    std::string mined;
    std::vector<std::pair<size_t, size_t>> counts; ///< Per mined set.
    std::vector<RowBitset> cleared; ///< Flags after clearRows, per set.
    size_t ones = 0;                ///< RowBitset::count of the flags.

    bool operator==(const KernelOutputs &other) const = default;
};

KernelOutputs
kernelOutputs(const Fim &fim, const RowBitset &flags)
{
    KernelOutputs out;
    Fim::Mined mined = fim.mineIndexed(flags);
    out.mined = causesText(mined.causes);
    for (const auto &c : mined.causes) {
        SetCounts sc = mined.index.count(c.attrs, flags);
        out.counts.emplace_back(sc.rows, sc.drift);
        RowBitset cleared = flags;
        mined.index.clearRows(cleared, c.attrs);
        out.cleared.push_back(std::move(cleared));
    }
    out.ones = flags.count();
    return out;
}

TEST_F(FimBitmap, EveryKernelVariantMatchesBaselineAndReference)
{
    const auto &variants =
        cpu_dispatch::hostVariants<count_kernel::Kernels>();
    ASSERT_FALSE(variants.empty());
    const auto &baseline = variants.back();
    ASSERT_STREQ(baseline.isa, "baseline");
    for (size_t n : {0u, 1u, 63u, 64u, 65u, 4095u, 4096u, 8193u}) {
        SCOPED_TRACE("rows=" + std::to_string(n));
        Table t = goldenLog(n);
        RcaConfig config = goldenConfig();
        config.minOccurrence = 0.0; // every occurring set is counted
        Fim fim(t, config);
        RowBitset flags = Fim::driftFlags(t, "drift");
        const std::vector<RankedCause> causes = fim.mineReference(flags);

        runtime::setThreads(1);
        KernelOutputs expect;
        {
            cpu_dispatch::ScopedVariant pin(baseline);
            expect = kernelOutputs(fim, flags);
        }
        // The baseline against the row-scan oracle: the ranked table,
        // each set's counts, the flag total and the cleared rows.
        EXPECT_EQ(expect.mined, causesText(causes));
        ASSERT_EQ(expect.counts.size(), causes.size());
        size_t drifted = 0;
        for (size_t r = 0; r < n; ++r)
            drifted += flags.test(r);
        EXPECT_EQ(expect.ones, drifted);
        for (size_t i = 0; i < causes.size(); ++i) {
            EXPECT_EQ(expect.counts[i].first, causes[i].metrics.setCount);
            EXPECT_EQ(expect.counts[i].second,
                      causes[i].metrics.setDriftCount);
        }
        for (size_t i = 0; i < std::min<size_t>(causes.size(), 5); ++i)
            for (size_t r = 0; r < n; ++r)
                ASSERT_EQ(expect.cleared[i].test(r),
                          flags.test(r) &&
                              !causes[i].attrs.matchesRow(t, r))
                    << causes[i].attrs.toString() << " row " << r;

        // Every variant, sequential and sharded, equals the baseline.
        for (const auto &variant : variants) {
            SCOPED_TRACE(variant.isa);
            cpu_dispatch::ScopedVariant pin(variant);
            for (size_t threads : {1u, 4u}) {
                runtime::setThreads(threads);
                EXPECT_TRUE(kernelOutputs(fim, flags) == expect)
                    << "threads=" << threads;
            }
        }
    }
}

/** A log shaped like `nazarbench rca`'s: weather (4), location (7),
 *  device (112) and model (4) columns, drift planted on weather. */
Table
benchShapedLog(size_t rows)
{
    using driftlog::ValueType;
    Rng rng(51);
    Table t(driftlog::Schema({{"weather", ValueType::kString},
                              {"location", ValueType::kString},
                              {"device_id", ValueType::kString},
                              {"device_model", ValueType::kString},
                              {"drift", ValueType::kBool}}));
    for (size_t i = 0; i < rows; ++i) {
        size_t device = rng.index(112);
        size_t w = rng.index(4);
        t.append({Value("w" + std::to_string(w)),
                  Value("l" + std::to_string(rng.index(7))),
                  Value("android_" + std::to_string(device)),
                  Value("model_" + std::to_string(device % 4)),
                  Value(rng.bernoulli(w != 0 ? 0.7 : 0.2))});
    }
    return t;
}

TEST_F(FimBitmap, CandidateCounterMatchesTheAttributeSetGenerator)
{
    // At 160k rows every device id (1/112 < 1%) is infrequent, so the
    // 15 frequent singles give 4*7 + 4*4 + 7*4 = 72 pairs and
    // 4*7*4 = 112 triples — a deterministic work count, the same at
    // any thread count.
    Table t = benchShapedLog(160000);
    RcaConfig config;
    config.attributeColumns = {"weather", "location", "device_id",
                               "device_model"};
    Fim fim(t, config);
    obs::Counter &candidates =
        obs::Registry::global().counter("rca.fim.candidates");
    for (size_t threads : {1u, 4u}) {
        runtime::setThreads(threads);
        const uint64_t before = candidates.value();
        std::vector<RankedCause> causes = fim.mine();
        EXPECT_EQ(candidates.value() - before, 72u + 112u);
        EXPECT_EQ(attributeSetCandidates(causes, config), 72u + 112u);
    }
}

} // namespace
} // namespace nazar::rca
