/**
 * @file
 * Property tests for root-cause analysis over randomized drift logs:
 * structural invariants that must hold for any input.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "common/rng.h"
#include "paper_example.h"
#include "rca/analyzer.h"
#include "runtime/thread_pool.h"

namespace nazar::rca {
namespace {

using driftlog::Schema;
using driftlog::Table;
using driftlog::Value;
using driftlog::ValueType;
using testing::causesText;
using testing::goldenConfig;
using testing::goldenLog;

/** Random drift log over 3 attribute columns. */
Table
randomLog(size_t rows, uint64_t seed, int weather_card = 4,
          int location_card = 5, int device_card = 8)
{
    Rng rng(seed);
    Table t(Schema({{"weather", ValueType::kString},
                    {"location", ValueType::kString},
                    {"device_id", ValueType::kString},
                    {"drift", ValueType::kBool}}));
    for (size_t i = 0; i < rows; ++i) {
        std::string weather =
            "w" + std::to_string(rng.index(
                      static_cast<size_t>(weather_card)));
        std::string location =
            "l" + std::to_string(rng.index(
                      static_cast<size_t>(location_card)));
        std::string device =
            "d" + std::to_string(rng.index(
                      static_cast<size_t>(device_card)));
        // Drift correlates with w1 and d3 plus noise. d3's signal is
        // strong enough to stay significant after the counterfactual
        // pass absorbs the overlapping w1 evidence (Algorithm 1 marks
        // accepted causes' entries non-drifted, which dilutes weaker
        // overlapping causes — a property of the paper's design).
        double p = 0.15;
        if (weather == "w1")
            p += 0.5;
        if (device == "d3")
            p += 0.65;
        t.append({Value(weather), Value(location), Value(device),
                  Value(rng.bernoulli(std::min(0.95, p)))});
    }
    return t;
}

RcaConfig
defaultConfig()
{
    RcaConfig config;
    config.attributeColumns = {"weather", "location", "device_id"};
    return config;
}

class RandomLogTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomLogTest, OccurrenceIsAntitoneInAttributeSets)
{
    Table t = randomLog(600, GetParam());
    auto causes = Fim(t, defaultConfig()).mine();
    // Indexed lookup of every mined set's occurrence.
    std::map<AttributeSet, double> occurrence;
    for (const auto &c : causes)
        occurrence[c.attrs] = c.metrics.occurrence;
    // For every mined pair where a is a proper attribute-subset of b,
    // occurrence(a) >= occurrence(b) (downward closure).
    for (const auto &a : causes) {
        for (const auto &b : causes) {
            if (a.attrs.isProperSubsetOf(b.attrs))
                EXPECT_GE(a.metrics.occurrence + 1e-12,
                          b.metrics.occurrence)
                    << a.attrs.toString() << " vs "
                    << b.attrs.toString();
        }
    }
}

TEST_P(RandomLogTest, CountsAreInternallyConsistent)
{
    Table t = randomLog(500, GetParam() + 100);
    size_t total_drift = 0;
    for (size_t r = 0; r < t.rowCount(); ++r)
        total_drift += t.at(r, "drift").asBool() ? 1 : 0;
    auto causes = Fim(t, defaultConfig()).mine();
    for (const auto &c : causes) {
        EXPECT_LE(c.metrics.setDriftCount, c.metrics.setCount);
        EXPECT_LE(c.metrics.setCount, t.rowCount());
        // occurrence == setCount / rows.
        EXPECT_NEAR(c.metrics.occurrence,
                    static_cast<double>(c.metrics.setCount) /
                        static_cast<double>(t.rowCount()),
                    1e-12);
        // support == setDrift / totalDrift.
        if (total_drift > 0)
            EXPECT_NEAR(c.metrics.support,
                        static_cast<double>(c.metrics.setDriftCount) /
                            static_cast<double>(total_drift),
                        1e-12);
        // confidence == setDrift / setCount.
        if (c.metrics.setCount > 0)
            EXPECT_NEAR(c.metrics.confidence,
                        static_cast<double>(c.metrics.setDriftCount) /
                            static_cast<double>(c.metrics.setCount),
                        1e-12);
    }
}

TEST_P(RandomLogTest, MinedMetricsMatchIndependentComputation)
{
    Table t = randomLog(400, GetParam() + 200);
    auto flags = Fim::driftFlags(t, "drift");
    auto causes = Fim(t, defaultConfig()).mine();
    // Spot-check a handful of mined sets against computeMetrics.
    size_t step = std::max<size_t>(1, causes.size() / 7);
    for (size_t i = 0; i < causes.size(); i += step) {
        CauseMetrics direct = computeMetrics(t, flags, causes[i].attrs);
        EXPECT_EQ(direct.setCount, causes[i].metrics.setCount);
        EXPECT_EQ(direct.setDriftCount,
                  causes[i].metrics.setDriftCount);
        EXPECT_NEAR(direct.riskRatio, causes[i].metrics.riskRatio,
                    1e-9);
    }
}

TEST_P(RandomLogTest, SetReductionPartitionsThePassingCauses)
{
    Table t = randomLog(600, GetParam() + 300);
    RcaConfig config = defaultConfig();
    auto all = Fim(t, config).mine();
    std::vector<RankedCause> passing;
    for (const auto &c : all)
        if (passesThresholds(c.metrics, config))
            passing.push_back(c);
    auto groups = reduceCauses(passing);

    std::set<AttributeSet> seen;
    size_t total = 0;
    for (const auto &g : groups) {
        EXPECT_TRUE(seen.insert(g.key.attrs).second);
        ++total;
        for (const auto &fine : g.merged) {
            EXPECT_TRUE(seen.insert(fine.attrs).second);
            ++total;
            // Every merged cause is an attribute-superset of *some*
            // passing cause that leads its group transitively; at
            // minimum it must be a proper superset of its group key
            // or of another member (the key is the coarsest).
            EXPECT_TRUE(g.key.attrs.isProperSubsetOf(fine.attrs) ||
                        std::any_of(
                            g.merged.begin(), g.merged.end(),
                            [&](const RankedCause &other) {
                                return other.attrs.isProperSubsetOf(
                                    fine.attrs);
                            }));
        }
    }
    EXPECT_EQ(total, passing.size());
}

TEST_P(RandomLogTest, FullPipelineCausesPassThresholdsAndAreUnique)
{
    Table t = randomLog(800, GetParam() + 400);
    RcaConfig config = defaultConfig();
    Analyzer analyzer(config);
    auto result = analyzer.analyze(t);
    std::set<AttributeSet> seen;
    for (const auto &cause : result.rootCauses) {
        EXPECT_TRUE(seen.insert(cause.attrs).second)
            << "duplicate cause " << cause.attrs.toString();
        // The metrics attached to an accepted cause were evaluated
        // against the flag state at acceptance time and passed.
        EXPECT_TRUE(passesThresholds(cause.metrics, config));
    }
}

TEST_P(RandomLogTest, PlantedCausesAreRecovered)
{
    Table t = randomLog(2000, GetParam() + 500);
    Analyzer analyzer(defaultConfig());
    auto result = analyzer.analyze(t);
    bool found_w1 = false, found_d3 = false;
    for (const auto &cause : result.rootCauses) {
        if (cause.attrs ==
            AttributeSet({{"weather", Value("w1")}}))
            found_w1 = true;
        if (cause.attrs ==
            AttributeSet({{"device_id", Value("d3")}}))
            found_d3 = true;
    }
    EXPECT_TRUE(found_w1);
    EXPECT_TRUE(found_d3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLogTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---- Sharded-scan determinism contract ------------------------------

/**
 * Drift log big enough to engage the pool (past the parallel row
 * cutoff), with a NaN-bearing double attribute column and drift
 * probabilities tuned so several causes sit right at the confidence /
 * risk-ratio thresholds — any cross-thread divergence in the merged
 * counts flips an acceptance decision and shows up as a structural
 * diff, not just a bit wiggle.
 */
Table
nanThresholdLog(size_t rows, uint64_t seed)
{
    Rng rng(seed);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    Table t(Schema({{"weather", ValueType::kString},
                    {"severity", ValueType::kDouble},
                    {"device_id", ValueType::kString},
                    {"drift", ValueType::kBool}}));
    for (size_t i = 0; i < rows; ++i) {
        size_t w = rng.index(4);
        size_t s = rng.index(3);
        size_t d = rng.index(8);
        // severity: two finite bands plus NaN (sensor dropout) — the
        // NaN cells must aggregate as one attribute value.
        Value severity =
            s == 2 ? Value(nan) : Value(0.5 + static_cast<double>(s));
        // Near-threshold causes: w1's confidence hovers at the 0.51
        // threshold; NaN severity carries a mild genuine signal.
        double p = 0.18;
        if (w == 1)
            p += 0.33;
        if (s == 2)
            p += 0.4;
        if (d == 3)
            p += 0.55;
        t.append({Value("w" + std::to_string(w)), severity,
                  Value("d" + std::to_string(d)),
                  Value(rng.bernoulli(std::min(0.95, p)))});
    }
    return t;
}

void
expectBitIdentical(const RankedCause &a, const RankedCause &b)
{
    EXPECT_TRUE(a.attrs == b.attrs)
        << a.attrs.toString() << " vs " << b.attrs.toString();
    EXPECT_EQ(a.metrics.setCount, b.metrics.setCount);
    EXPECT_EQ(a.metrics.setDriftCount, b.metrics.setDriftCount);
    // Exact double equality on purpose: the contract is bit-identity.
    EXPECT_EQ(a.metrics.occurrence, b.metrics.occurrence);
    EXPECT_EQ(a.metrics.support, b.metrics.support);
    EXPECT_EQ(a.metrics.confidence, b.metrics.confidence);
    EXPECT_EQ(a.metrics.riskRatio, b.metrics.riskRatio);
}

void
expectBitIdentical(const AnalysisResult &a, const AnalysisResult &b)
{
    ASSERT_EQ(a.rootCauses.size(), b.rootCauses.size());
    for (size_t i = 0; i < a.rootCauses.size(); ++i)
        expectBitIdentical(a.rootCauses[i], b.rootCauses[i]);
    ASSERT_EQ(a.fimTable.size(), b.fimTable.size());
    for (size_t i = 0; i < a.fimTable.size(); ++i)
        expectBitIdentical(a.fimTable[i], b.fimTable[i]);
    ASSERT_EQ(a.associations.size(), b.associations.size());
    for (size_t i = 0; i < a.associations.size(); ++i) {
        expectBitIdentical(a.associations[i].key, b.associations[i].key);
        ASSERT_EQ(a.associations[i].merged.size(),
                  b.associations[i].merged.size());
        for (size_t j = 0; j < a.associations[i].merged.size(); ++j)
            expectBitIdentical(a.associations[i].merged[j],
                               b.associations[i].merged[j]);
    }
}

struct RcaDeterminism : ::testing::Test
{
    ~RcaDeterminism() override
    {
        runtime::setThreads(0); // restore the configured default
    }
};

TEST_F(RcaDeterminism, AnalyzeBitIdenticalAcross1And4And8Threads)
{
    // 12k rows crosses the parallel row cutoff, so at >1 thread every
    // stage's scans really run sharded.
    Table t = nanThresholdLog(12000, 99);
    RcaConfig config;
    config.attributeColumns = {"weather", "severity", "device_id"};
    Analyzer analyzer(config);

    for (AnalysisMode mode :
         {AnalysisMode::kFimOnly, AnalysisMode::kFimSetReduction,
          AnalysisMode::kFull}) {
        runtime::setThreads(1);
        AnalysisResult sequential = analyzer.analyze(t, mode);
        EXPECT_FALSE(sequential.fimTable.empty());
        for (size_t threads : {4u, 8u}) {
            runtime::setThreads(threads);
            AnalysisResult parallel = analyzer.analyze(t, mode);
            expectBitIdentical(sequential, parallel);
        }
    }
}

TEST_F(RcaDeterminism, NanCellsFormASingleAttributeGroup)
{
    Table t = nanThresholdLog(12000, 7);
    RcaConfig config;
    config.attributeColumns = {"weather", "severity", "device_id"};
    for (size_t threads : {1u, 4u}) {
        runtime::setThreads(threads);
        auto causes = Fim(t, config).mine();
        // Exactly one level-1 severity cause has a NaN value, and its
        // count matches a direct scan of the column.
        size_t nan_causes = 0, nan_rows = 0;
        const auto &col = t.column("severity");
        for (size_t r = 0; r < t.rowCount(); ++r)
            nan_rows += std::isnan(col.at(r).asDouble()) ? 1 : 0;
        for (const auto &c : causes) {
            if (c.attrs.size() != 1)
                continue;
            const auto &attr = c.attrs.attributes()[0];
            if (attr.column == "severity" &&
                std::isnan(attr.value.asDouble())) {
                ++nan_causes;
                EXPECT_EQ(c.metrics.setCount, nan_rows);
            }
        }
        EXPECT_EQ(nan_causes, 1u) << "threads=" << threads;
    }
}

// ---- Bitmap counting: edge row counts and the old walk's causes -----

TEST_F(RcaDeterminism, AnalyzeBitIdenticalAcrossThreadsAtEdgeRowCounts)
{
    // Word, chunk and parallel-cutoff boundaries; test_fim.cc checks
    // the miner against mineReference at the same row counts.
    Analyzer analyzer(goldenConfig());
    for (size_t n : {0u, 1u, 63u, 64u, 65u, 4095u, 4096u, 4097u, 8193u}) {
        SCOPED_TRACE("rows=" + std::to_string(n));
        Table t = goldenLog(n);
        runtime::setThreads(1);
        AnalysisResult sequential =
            analyzer.analyze(t, AnalysisMode::kFull);
        runtime::setThreads(4);
        expectBitIdentical(sequential,
                           analyzer.analyze(t, AnalysisMode::kFull));
    }
}

/**
 * The full pipeline's causes and metrics on goldenLog(9000), as
 * printed by the row-scan walk this layout replaced (identical at 1
 * and 4 threads). Pins the bitset walk to the old walk's decisions
 * and exact doubles, not only to itself.
 */
const char *const kGoldenCauses =
    "{weather=NULL} 1820/1579 0.20222222222222222 0.2956928838951311 "
    "0.86758241758241761 1.656272735506982\n"
    "{severity=-0} 2203/1406 0.24477777777777779 0.37383674554639723 "
    "0.63822060826146165 1.8420320485576029\n"
    "{device_id=d2, weather=w1} 283/210 "
    "0.031444444444444442 0.089171974522292988 "
    "0.74204946996466437 3.0155921816699207\n"
    "{device_id=d2, severity=nan} 377/216 "
    "0.041888888888888892 0.10069930069930071 "
    "0.57294429708222816 2.5611709039606292\n"
    "{severity=nan, weather=w1} 452/346 "
    "0.050222222222222224 0.17936754795230689 "
    "0.76548672566371678 4.1335316051632667\n"
    "{severity=1.5, weather=w1} 428/223 "
    "0.047555555555555552 0.14087176247631081 "
    "0.5210280373831776 3.2840090709180867\n";

TEST_F(RcaDeterminism, FullAnalysisMatchesGoldenCauses)
{
    Table t = goldenLog(9000);
    Analyzer analyzer(goldenConfig());
    for (size_t threads : {1u, 4u}) {
        runtime::setThreads(threads);
        AnalysisResult result = analyzer.analyze(t, AnalysisMode::kFull);
        EXPECT_EQ(result.associations.size(), 5u);
        EXPECT_EQ(result.fimTable.size(), 209u);
        EXPECT_EQ(causesText(result.rootCauses), kGoldenCauses)
            << "threads=" << threads;
    }
}

} // namespace
} // namespace nazar::rca
