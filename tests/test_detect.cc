/**
 * @file
 * Tests for the drift detectors and their evaluation harness.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "detect/ks_test.h"
#include "detect/metrics.h"
#include "detect/scores.h"
#include "obs/metrics.h"

namespace nazar::detect {
namespace {

TEST(MspDetector, FlagsLowConfidence)
{
    MspDetector det(0.9);
    // Uniform over 3 classes: MSP = 1/3 -> drift.
    EXPECT_TRUE(det.isDrift({0.0, 0.0, 0.0}));
    // Strongly peaked: MSP ~ 1 -> no drift.
    EXPECT_FALSE(det.isDrift({20.0, 0.0, 0.0}));
    EXPECT_NEAR(det.score({0.0, 0.0, 0.0}), 1.0 / 3.0, 1e-9);
    EXPECT_EQ(det.threshold(), 0.9);
}

TEST(MspDetector, ThresholdBoundary)
{
    // MSP exactly at the threshold is NOT drift (strict less-than).
    MspDetector det(1.0 / 3.0);
    EXPECT_FALSE(det.isDrift({0.0, 0.0, 0.0}));
    EXPECT_THROW(MspDetector(1.5), NazarError);
    EXPECT_THROW(MspDetector(-0.1), NazarError);
}

TEST(MspDetector, DecideIsIsDriftPerRowAndCountsTheSame)
{
    obs::Counter &samples =
        obs::Registry::global().counter("detect.msp.samples");
    obs::Counter &flags =
        obs::Registry::global().counter("detect.msp.flags");
    MspDetector det(0.6);
    const std::vector<std::vector<double>> rows = {
        {0.0, 0.0, 0.0}, {20.0, 0.0, 0.0}, {1.0, 0.5, -0.5},
        {0.4, 0.4, 0.0}, {-3.0, 2.0, 2.0}, {5.0, -1.0, 4.9}};
    const uint64_t s0 = samples.value(), f0 = flags.value();
    std::vector<bool> by_row;
    for (const auto &row : rows)
        by_row.push_back(det.isDrift(row));
    const uint64_t s1 = samples.value(), f1 = flags.value();
    const MspDetector::Decisions batch =
        det.decide(nn::Matrix::fromRows(rows));
    const uint64_t s2 = samples.value(), f2 = flags.value();
    EXPECT_EQ(batch.drift, by_row);
    ASSERT_EQ(batch.msp.size(), rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
        EXPECT_EQ(batch.msp[r], det.score(rows[r])) << "row " << r;
        EXPECT_EQ(by_row[r], det.score(rows[r]) < 0.6) << "row " << r;
    }
    EXPECT_EQ(s1 - s0, rows.size());
    EXPECT_EQ(s2 - s1, rows.size());
    EXPECT_EQ(f1 - f0, static_cast<uint64_t>(std::count(
                           by_row.begin(), by_row.end(), true)));
    EXPECT_EQ(f2 - f1, f1 - f0);
}

TEST(MspDetector, DefaultThresholdIsPaper)
{
    EXPECT_EQ(kDefaultMspThreshold, 0.9);
}

TEST(EntropyDetector, FlagsHighEntropy)
{
    EntropyDetector det(0.5);
    EXPECT_TRUE(det.isDrift({0.0, 0.0, 0.0}));
    EXPECT_FALSE(det.isDrift({20.0, 0.0, 0.0}));
    EXPECT_THROW(EntropyDetector(-1.0), NazarError);
}

TEST(EnergyDetector, FlagsHighEnergy)
{
    // Energy = -logsumexp: high when all logits are very negative.
    EnergyDetector det(0.0);
    EXPECT_TRUE(det.isDrift({-10.0, -10.0}));
    EXPECT_FALSE(det.isDrift({5.0, 0.0}));
}

TEST(Detectors, ScoresOrderConsistently)
{
    // All three scores must rank a confident sample above an
    // uncertain one (the paper found them nearly interchangeable).
    std::vector<double> confident = {8.0, 0.0, 0.0};
    std::vector<double> uncertain = {0.3, 0.2, 0.1};
    MspDetector msp(0.9);
    EntropyDetector ent(0.5);
    EnergyDetector ene(0.0);
    EXPECT_GT(msp.score(confident), msp.score(uncertain));
    EXPECT_GT(ent.score(confident), ent.score(uncertain));
    EXPECT_GT(ene.score(confident), ene.score(uncertain));
}

TEST(KsStatistic, IdenticalSamplesGiveZero)
{
    std::vector<double> a = {1, 2, 3, 4, 5};
    EXPECT_NEAR(ksStatistic(a, a), 0.0, 1e-12);
}

TEST(KsStatistic, DisjointSamplesGiveOne)
{
    EXPECT_NEAR(ksStatistic({1, 2, 3}, {10, 11, 12}), 1.0, 1e-12);
}

TEST(KsStatistic, KnownValue)
{
    // F1 jumps at {1,3}, F2 at {2,4}: max gap is 0.5.
    EXPECT_NEAR(ksStatistic({1, 3}, {2, 4}), 0.5, 1e-12);
    EXPECT_THROW(ksStatistic({}, {1.0}), NazarError);
}

TEST(KsPValue, LargeStatisticSmallP)
{
    EXPECT_LT(ksPValue(0.9, 50, 50), 1e-6);
    EXPECT_GT(ksPValue(0.05, 50, 50), 0.5);
    EXPECT_NEAR(ksPValue(0.0, 50, 50), 1.0, 1e-9);
}

TEST(KsTestDetector, DetectsShiftedBatch)
{
    Rng rng(1);
    std::vector<double> reference(500);
    for (auto &v : reference)
        v = rng.normal(0.9, 0.05);
    KsTestDetector det(reference, 0.05);

    std::vector<double> same(64), shifted(64);
    for (auto &v : same)
        v = rng.normal(0.9, 0.05);
    for (auto &v : shifted)
        v = rng.normal(0.6, 0.05);
    EXPECT_FALSE(det.isDriftBatch(same));
    EXPECT_TRUE(det.isDriftBatch(shifted));
    EXPECT_GT(det.statistic(shifted), det.statistic(same));
    EXPECT_LT(det.pValue(shifted), det.pValue(same));
}

TEST(KsTestDetector, RejectsBadConstruction)
{
    EXPECT_THROW(KsTestDetector({}, 0.05), NazarError);
    EXPECT_THROW(KsTestDetector({1.0}, 0.0), NazarError);
    EXPECT_THROW(KsTestDetector({1.0}, 1.0), NazarError);
}

TEST(Metrics, EvaluateDetectorCountsCorrectly)
{
    MspDetector det(0.9);
    nn::Matrix logits = nn::Matrix::fromRows({
        {0.0, 0.0},  // drift-flagged
        {10.0, 0.0}, // clean-flagged
        {0.0, 0.1},  // drift-flagged
        {9.0, 0.0},  // clean-flagged
    });
    std::vector<bool> truth = {true, false, false, true};
    ConfusionCounts c = evaluateDetector(det, logits, truth);
    EXPECT_EQ(c.tp(), 1u);
    EXPECT_EQ(c.tn(), 1u);
    EXPECT_EQ(c.fp(), 1u);
    EXPECT_EQ(c.fn(), 1u);
    EXPECT_THROW(evaluateDetector(det, logits, {true}), NazarError);
}

TEST(Metrics, KsEvaluationAssignsVerdictToWholeBatch)
{
    Rng rng(2);
    std::vector<double> reference(400);
    for (auto &v : reference)
        v = rng.normal(0.9, 0.05);
    KsTestDetector det(reference, 0.05);

    // First batch clean, second shifted; batch size 32.
    std::vector<double> scores;
    std::vector<bool> truth;
    for (int i = 0; i < 32; ++i) {
        scores.push_back(rng.normal(0.9, 0.05));
        truth.push_back(false);
    }
    for (int i = 0; i < 32; ++i) {
        scores.push_back(rng.normal(0.5, 0.05));
        truth.push_back(true);
    }
    ConfusionCounts c = evaluateKsDetector(det, scores, truth, 32);
    EXPECT_EQ(c.tp(), 32u);
    EXPECT_EQ(c.tn(), 32u);
    EXPECT_EQ(c.fp(), 0u);
    EXPECT_EQ(c.fn(), 0u);
    EXPECT_THROW(evaluateKsDetector(det, scores, truth, 0), NazarError);
}

TEST(Metrics, DetectionRate)
{
    MspDetector det(0.9);
    nn::Matrix logits =
        nn::Matrix::fromRows({{0.0, 0.0}, {10.0, 0.0}, {0.0, 0.0}});
    EXPECT_NEAR(detectionRate(det, logits), 2.0 / 3.0, 1e-12);
    EXPECT_EQ(detectionRate(det, nn::Matrix(0, 2)), 0.0);
}

} // namespace
} // namespace nazar::detect
