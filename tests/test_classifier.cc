/**
 * @file
 * Tests for the Classifier facade: training, cloning, serialization,
 * BN patching and the architecture tiers.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "common/error.h"
#include "data/domain.h"
#include "nn/classifier.h"

namespace nazar::nn {
namespace {

/** A small, well-separated domain that trains in milliseconds. */
data::Domain
easyDomain()
{
    data::DomainConfig config;
    config.numClasses = 4;
    config.featureDim = 8;
    config.prototypeScale = 3.0;
    config.noiseMin = 0.4;
    config.noiseMax = 0.6;
    config.seed = 99;
    return data::Domain(config);
}

TrainConfig
fastTrain()
{
    TrainConfig tc;
    tc.epochs = 15;
    tc.batchSize = 32;
    return tc;
}

TEST(Classifier, TrainsToHighAccuracyOnSeparableData)
{
    data::Domain domain = easyDomain();
    Rng rng(1);
    auto train = domain.makeBalancedDataset(60, rng);
    auto test = domain.makeBalancedDataset(30, rng);
    Classifier model(Architecture::kResNet18, 8, 4, 7);
    double pre = model.accuracy(test.x, test.labels);
    model.trainSupervised(train.x, train.labels, fastTrain());
    double post = model.accuracy(test.x, test.labels);
    EXPECT_GT(post, 0.95);
    EXPECT_GT(post, pre);
}

TEST(Classifier, PredictMatchesArgmaxOfLogits)
{
    data::Domain domain = easyDomain();
    Rng rng(2);
    auto d = domain.makeBalancedDataset(5, rng);
    Classifier model(Architecture::kResNet18, 8, 4, 7);
    Matrix z = model.logits(d.x);
    auto pred = model.predict(d.x);
    for (size_t r = 0; r < z.rows(); ++r)
        EXPECT_EQ(pred[r], static_cast<int>(z.argmaxRow(r)));
    EXPECT_EQ(model.predictOne(d.x.rowVec(0)), pred[0]);
}

TEST(Classifier, MspScoresAreProbabilities)
{
    data::Domain domain = easyDomain();
    Rng rng(3);
    auto d = domain.makeBalancedDataset(5, rng);
    Classifier model(Architecture::kResNet34, 8, 4, 7);
    for (double s : model.mspScores(d.x)) {
        EXPECT_GT(s, 1.0 / 4.0 - 1e-9); // at least uniform
        EXPECT_LE(s, 1.0);
    }
}

TEST(Classifier, CloneIsDeepAndExact)
{
    data::Domain domain = easyDomain();
    Rng rng(4);
    auto train = domain.makeBalancedDataset(40, rng);
    Classifier model(Architecture::kResNet18, 8, 4, 7);
    model.trainSupervised(train.x, train.labels, fastTrain());

    Classifier copy = model.clone();
    auto d = domain.makeBalancedDataset(10, rng);
    EXPECT_TRUE(model.logits(d.x).approxEquals(copy.logits(d.x), 1e-12));

    // Mutating the copy must not affect the original.
    copy.scaleLogits(3.0);
    EXPECT_FALSE(
        model.logits(d.x).approxEquals(copy.logits(d.x), 1e-6));
}

/** True when @p a and @p b have the same shape and the same bits. */
bool
sameBits(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Classifier, CloneCopiesValuesBitwiseButNoGradsOrCaches)
{
    data::Domain domain = easyDomain();
    Rng rng(9);
    auto train = domain.makeBalancedDataset(40, rng);
    Classifier model(Architecture::kResNet50, 8, 4, 7);
    model.trainSupervised(train.x, train.labels, fastTrain());
    // Leave large caches and nonzero gradients behind in the source.
    Matrix big = Matrix::randomNormal(500, 8, 1.0, rng);
    Matrix z = model.net().forward(big, Mode::kTrain);
    model.net().backward(z, Mode::kTrain);

    Classifier copy = model.clone();
    auto src = model.net().params(Mode::kTrain);
    auto dst = copy.net().params(Mode::kTrain);
    ASSERT_EQ(src.size(), dst.size());
    double src_grad = 0.0;
    for (size_t i = 0; i < src.size(); ++i) {
        EXPECT_TRUE(sameBits(src[i]->value, dst[i]->value)) << i;
        ASSERT_EQ(dst[i]->grad.rows(), src[i]->grad.rows());
        ASSERT_EQ(dst[i]->grad.cols(), src[i]->grad.cols());
        EXPECT_EQ(dst[i]->grad.maxAbs(), 0.0) << i;
        src_grad += src[i]->grad.maxAbs();
    }
    EXPECT_GT(src_grad, 0.0);
    const BnPatch a = model.bnPatch(), b = copy.bnPatch();
    ASSERT_EQ(a.layerCount(), b.layerCount());
    for (size_t i = 0; i < a.layerCount(); ++i) {
        EXPECT_TRUE(sameBits(a.state(i).gamma, b.state(i).gamma));
        EXPECT_TRUE(sameBits(a.state(i).beta, b.state(i).beta));
        EXPECT_TRUE(sameBits(a.state(i).runningMean, b.state(i).runningMean));
        EXPECT_TRUE(sameBits(a.state(i).runningVar, b.state(i).runningVar));
    }
    EXPECT_TRUE(sameBits(model.infer(big), copy.infer(big)));

    // The source can run backward from its cache; the clone has none.
    Matrix grad(big.rows(), 4, 1.0);
    EXPECT_NO_THROW(model.net().backward(grad, Mode::kEval));
    try {
        copy.net().backward(grad, Mode::kEval);
        FAIL() << "backward on a fresh clone must throw";
    } catch (const NazarError &e) {
        EXPECT_NE(std::string(e.what()).find("backward() without forward()"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Classifier, SaveLoadRoundTrip)
{
    data::Domain domain = easyDomain();
    Rng rng(5);
    auto train = domain.makeBalancedDataset(40, rng);
    Classifier model(Architecture::kResNet34, 8, 4, 7);
    model.trainSupervised(train.x, train.labels, fastTrain());

    std::stringstream ss;
    model.save(ss);
    Classifier loaded = Classifier::load(ss);
    EXPECT_EQ(loaded.architecture(), Architecture::kResNet34);
    EXPECT_EQ(loaded.inputDim(), 8u);
    EXPECT_EQ(loaded.numClasses(), 4u);

    auto d = domain.makeBalancedDataset(10, rng);
    EXPECT_TRUE(
        model.logits(d.x).approxEquals(loaded.logits(d.x), 1e-9));
}

TEST(Classifier, LoadRejectsGarbage)
{
    std::stringstream ss("not-a-model 1\n");
    EXPECT_THROW(Classifier::load(ss), NazarError);
}

TEST(Classifier, ScaleLogitsPreservesPredictions)
{
    data::Domain domain = easyDomain();
    Rng rng(6);
    auto d = domain.makeBalancedDataset(20, rng);
    Classifier model(Architecture::kResNet18, 8, 4, 7);
    auto before = model.predict(d.x);
    auto msp_before = model.mspScores(d.x);
    model.scaleLogits(4.0);
    auto after = model.predict(d.x);
    auto msp_after = model.mspScores(d.x);
    EXPECT_EQ(before, after);
    // Sharper softmax: confidence must not decrease.
    for (size_t i = 0; i < msp_before.size(); ++i)
        EXPECT_GE(msp_after[i] + 1e-9, msp_before[i]);
    EXPECT_THROW(model.scaleLogits(0.0), NazarError);
}

TEST(Classifier, BnPatchRoundTripRestoresBehaviour)
{
    data::Domain domain = easyDomain();
    Rng rng(7);
    auto train = domain.makeBalancedDataset(40, rng);
    Classifier model(Architecture::kResNet18, 8, 4, 7);
    model.trainSupervised(train.x, train.labels, fastTrain());

    auto d = domain.makeBalancedDataset(10, rng);
    BnPatch original = model.bnPatch();
    Matrix logits_before = model.logits(d.x);

    // Disturb the BN state via an adapt-mode forward pass.
    model.logits(d.x, Mode::kAdapt);
    EXPECT_FALSE(model.bnPatch().approxEquals(original, 1e-9));

    model.applyBnPatch(original);
    EXPECT_TRUE(model.logits(d.x).approxEquals(logits_before, 1e-9));
}

class ArchitectureTest : public ::testing::TestWithParam<Architecture>
{
};

TEST_P(ArchitectureTest, BnPatchMuchSmallerThanModel)
{
    Classifier model(GetParam(), 32, 40, 7);
    // The BN-only deployment unit is far smaller than the full model
    // (the paper's 217x argument; exact ratio depends on depth/width).
    EXPECT_GT(model.parameterCount(),
              6 * model.bnParameterCount() / 4);
    EXPECT_LT(model.bnParameterCount() * 4,
              model.parameterCount());
}

TEST_P(ArchitectureTest, OutputShapeMatches)
{
    Classifier model(GetParam(), 16, 5, 7);
    Rng rng(8);
    Matrix x = Matrix::randomNormal(3, 16, 1.0, rng);
    Matrix z = model.logits(x);
    EXPECT_EQ(z.rows(), 3u);
    EXPECT_EQ(z.cols(), 5u);
}

INSTANTIATE_TEST_SUITE_P(AllTiers, ArchitectureTest,
                         ::testing::Values(Architecture::kResNet18,
                                           Architecture::kResNet34,
                                           Architecture::kResNet50));

TEST(Classifier, CapacityOrderingOfParameterCounts)
{
    Classifier small(Architecture::kResNet18, 32, 10, 1);
    Classifier medium(Architecture::kResNet34, 32, 10, 1);
    Classifier large(Architecture::kResNet50, 32, 10, 1);
    EXPECT_LT(small.parameterCount(), medium.parameterCount());
    EXPECT_LT(medium.parameterCount(), large.parameterCount());
}

TEST(Classifier, RejectsBadConstruction)
{
    EXPECT_THROW(Classifier(Architecture::kResNet18, 0, 4, 1),
                 NazarError);
    EXPECT_THROW(Classifier(Architecture::kResNet18, 8, 1, 1),
                 NazarError);
}

TEST(Classifier, AccuracyValidatesLabelCount)
{
    Classifier model(Architecture::kResNet18, 8, 4, 1);
    Matrix x(3, 8);
    EXPECT_THROW(model.accuracy(x, {0, 1}), NazarError);
}

} // namespace
} // namespace nazar::nn
