/**
 * @file
 * Property tests for the NN substrate: whole-network gradient checks
 * in both train and eval modes, and algebraic invariances.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "adapt/tent.h"
#include "data/domain.h"
#include "nn/bn_patch.h"
#include "nn/classifier.h"
#include "nn/gemm.h"
#include "nn/loss.h"
#include "runtime/thread_pool.h"

namespace nazar::nn {
namespace {

/** Printed by the pre-gemm build of this test (see NnGolden below). */
const char *const kGoldenLogits =
    "0.53704041961969995 0.17177789652445508 -0.021521316822403332 "
    "0.012094263055233345 0.2403529262921664 0.14809797907896491\n"
    "0.70863009089348306 -0.047258270113576285 0.17261204460332821 "
    "0.20249662932325599 0.011339625382223485 -0.41987170412980129\n"
    "-0.19738120639502474 -0.021020803254358962 -0.2612181896733905 "
    "0.52227812380111949 -0.091903927467760591 -0.3017762439984828\n"
    "0.016599121961409176 0.74079780895690306 -0.58217907466718211 "
    "-0.015024912792182878 0.28583414913732569 -0.44606512835066403\n"
    "0.92713724681363641 0.17299831495261292 -0.69488292050299905 "
    "0.24304337277778723 -0.079402599176831873 -0.46508943444659639\n"
    "0.54604817018782947 -0.083930200480122855 -0.5333464894445531 "
    "0.22294285527696478 0.55847615679517426 0.11129182433401409\n";

/** Probe loss over the whole network: L = sum(logits .* R). */
double
probeLoss(Classifier &model, const Matrix &x, const Matrix &probe,
          Mode mode)
{
    return model.net().forward(x, mode).cwiseProduct(probe).sum();
}

class WholeNetGradTest : public ::testing::TestWithParam<Architecture>
{
};

TEST_P(WholeNetGradTest, InputGradientMatchesFiniteDifferences)
{
    Classifier model(GetParam(), 8, 4, 21);
    Rng rng(5);
    Matrix x = Matrix::randomNormal(4, 8, 1.0, rng);
    Matrix probe = Matrix::randomNormal(4, 4, 1.0, rng);

    for (Mode mode : {Mode::kTrain, Mode::kEval}) {
        model.net().forward(x, mode);
        model.net().zeroGrads();
        Matrix analytic = model.net().backward(probe, mode);

        Matrix numeric(x.rows(), x.cols());
        for (size_t r = 0; r < x.rows(); ++r) {
            for (size_t c = 0; c < x.cols(); ++c) {
                Matrix xp = x, xm = x;
                xp(r, c) += 1e-6;
                xm(r, c) -= 1e-6;
                numeric(r, c) = (probeLoss(model, xp, probe, mode) -
                                 probeLoss(model, xm, probe, mode)) /
                                2e-6;
            }
        }
        // Train mode re-estimates batch statistics each forward, so
        // the finite-difference probes see slightly different
        // normalizations; eval mode is exact.
        double tol = mode == Mode::kEval ? 1e-5 : 1e-4;
        EXPECT_TRUE(analytic.approxEquals(numeric, tol))
            << "mode " << static_cast<int>(mode) << " arch "
            << toString(GetParam());
    }
}

TEST_P(WholeNetGradTest, AdaptModeGradientReachesOnlyBnParams)
{
    Classifier model(GetParam(), 8, 4, 23);
    Rng rng(7);
    Matrix x = Matrix::randomNormal(6, 8, 1.0, rng);
    Matrix probe = Matrix::randomNormal(6, 4, 1.0, rng);

    model.net().zeroGrads();
    model.net().forward(x, Mode::kAdapt);
    model.net().backward(probe, Mode::kAdapt);

    // All kAdapt-exposed params (BN affines) have gradients...
    double bn_grad = 0.0;
    for (Param *p : model.net().params(Mode::kAdapt))
        bn_grad += p->grad.maxAbs();
    EXPECT_GT(bn_grad, 0.0);

    // ...and nothing else accumulated any.
    auto all = model.net().params(Mode::kTrain);
    auto bn = model.net().params(Mode::kAdapt);
    for (Param *p : all) {
        bool is_bn = std::find(bn.begin(), bn.end(), p) != bn.end();
        if (!is_bn) {
            EXPECT_EQ(p->grad.maxAbs(), 0.0) << p->name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Tiers, WholeNetGradTest,
                         ::testing::Values(Architecture::kResNet18,
                                           Architecture::kResNet34,
                                           Architecture::kResNet50));

TEST(NnInvariants, SoftmaxShiftInvariance)
{
    Rng rng(11);
    Matrix z = Matrix::randomNormal(5, 6, 2.0, rng);
    Matrix shifted = z;
    shifted.addRowBroadcast(Matrix(1, 6, 7.5));
    EXPECT_TRUE(softmax(z).approxEquals(softmax(shifted), 1e-9));
}

TEST(NnInvariants, EntropyBoundedByLogK)
{
    Rng rng(13);
    for (int trial = 0; trial < 30; ++trial) {
        Matrix z = Matrix::randomNormal(3, 7, rng.uniform(0.1, 4.0),
                                        rng);
        for (double h : softmaxEntropy(z)) {
            EXPECT_GE(h, 0.0);
            EXPECT_LE(h, std::log(7.0) + 1e-9);
        }
    }
}

TEST(NnInvariants, MspBoundedByUniformAndOne)
{
    Rng rng(17);
    for (int trial = 0; trial < 30; ++trial) {
        Matrix z = Matrix::randomNormal(3, 5, rng.uniform(0.1, 4.0),
                                        rng);
        for (double s : maxSoftmax(z)) {
            EXPECT_GE(s, 1.0 / 5.0 - 1e-9);
            EXPECT_LE(s, 1.0);
        }
    }
}

TEST(NnInvariants, TrainingIsDeterministicGivenSeeds)
{
    data::DomainConfig dc;
    dc.numClasses = 5;
    dc.featureDim = 8;
    dc.seed = 31;
    data::Domain domain(dc);
    Rng rng_a(1), rng_b(1);
    auto train_a = domain.makeBalancedDataset(30, rng_a);
    auto train_b = domain.makeBalancedDataset(30, rng_b);

    Classifier a(Architecture::kResNet18, 8, 5, 9);
    Classifier b(Architecture::kResNet18, 8, 5, 9);
    TrainConfig tc;
    tc.epochs = 5;
    a.trainSupervised(train_a.x, train_a.labels, tc);
    b.trainSupervised(train_b.x, train_b.labels, tc);

    Rng rng_test(2);
    Matrix x = Matrix::randomNormal(10, 8, 1.0, rng_test);
    EXPECT_TRUE(a.logits(x).approxEquals(b.logits(x), 1e-12));
}

TEST(NnInvariants, EvalForwardIsStateless)
{
    Classifier model(Architecture::kResNet34, 8, 4, 3);
    Rng rng(19);
    Matrix x = Matrix::randomNormal(6, 8, 1.5, rng);
    Matrix first = model.logits(x);
    for (int i = 0; i < 5; ++i)
        model.logits(Matrix::randomNormal(4, 8, 2.0, rng));
    EXPECT_TRUE(model.logits(x).approxEquals(first, 1e-12));
}

TEST(NnInvariants, AdaptForwardMovesTowardBatchDistribution)
{
    // After enough adapt-mode forwards on shifted data, running stats
    // reflect that data, and eval confidence on it increases.
    Classifier model(Architecture::kResNet18, 8, 4, 29);
    Rng rng(23);
    data::DomainConfig dc;
    dc.numClasses = 4;
    dc.featureDim = 8;
    dc.prototypeScale = 2.0;
    dc.seed = 5;
    data::Domain domain(dc);
    auto train = domain.makeBalancedDataset(50, rng);
    TrainConfig tc;
    tc.epochs = 10;
    model.trainSupervised(train.x, train.labels, tc);

    // Shift all inputs strongly.
    auto data = domain.makeBalancedDataset(30, rng);
    Matrix shifted = data.x;
    shifted.addRowBroadcast(Matrix(1, 8, 2.0));

    double before = model.accuracy(shifted, data.labels);
    for (int i = 0; i < 30; ++i)
        model.logits(shifted, Mode::kAdapt); // stat refresh only
    double after = model.accuracy(shifted, data.labels);
    EXPECT_GE(after + 1e-9, before);
}

/** True when @p a and @p b have the same shape and the same bits. */
bool
sameBits(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/** A model with random weights and BN state moved off its defaults. */
Classifier
statefulModel(Architecture arch, size_t dim, uint64_t seed)
{
    Classifier model(arch, dim, 5, seed);
    Rng rng(seed + 1);
    for (int i = 0; i < 3; ++i)
        model.net().forward(Matrix::randomNormal(16, dim, 1.5, rng),
                            Mode::kAdapt);
    for (Param *p : model.net().params(Mode::kAdapt))
        p->value = Matrix::randomNormal(1, p->value.cols(), 1.0, rng);
    return model;
}

/** Gaussian rows with NaN, +-inf and -0.0 planted in some of them. */
Matrix
specialInputs(size_t rows, size_t dim, Rng &rng)
{
    Matrix x = Matrix::randomNormal(rows, dim, 1.0, rng);
    const double inf = std::numeric_limits<double>::infinity();
    for (size_t r = 0; r < rows; ++r) {
        const size_t c = r % dim;
        switch (r % 5) {
          case 1: x(r, c) = std::numeric_limits<double>::quiet_NaN(); break;
          case 2: x(r, c) = inf; break;
          case 3: x(r, c) = -inf; break;
          case 4: x(r, c) = -0.0; break;
          default: break;
        }
    }
    return x;
}

class InferDifferential : public ::testing::TestWithParam<Architecture>
{
};

TEST_P(InferDifferential, InferIsEvalForwardBitForBit)
{
    constexpr size_t kDim = 12;
    Classifier model = statefulModel(GetParam(), kDim, 31);
    Rng rng(37);
    for (const auto &variant : cpu_dispatch::hostVariants<gemm::Kernels>()) {
        cpu_dispatch::ScopedVariant pin(variant);
        for (size_t rows = 1; rows <= 70; ++rows) {
            Matrix x = specialInputs(rows, kDim, rng);
            EXPECT_TRUE(sameBits(model.infer(x),
                                 model.net().forward(x, Mode::kEval)))
                << variant.isa << " rows " << rows;
        }
    }
}

TEST_P(InferDifferential, InferAboveTheParallelCutoffMatches)
{
    // 1500 rows: every product is past kParallelFlopCutoff (1 << 20
    // multiply-adds), so it runs row-partitioned on the pool.
    Classifier model = statefulModel(GetParam(), 12, 41);
    Rng rng(43);
    Matrix x = specialInputs(1500, 12, rng);
    runtime::setThreads(4);
    Matrix fused = model.infer(x);
    Matrix layered = model.net().forward(x, Mode::kEval);
    runtime::setThreads(0);
    EXPECT_TRUE(sameBits(fused, layered));
}

TEST_P(InferDifferential, PatchedInferIsAppliedPatchBitForBit)
{
    constexpr size_t kDim = 12;
    Classifier base = statefulModel(GetParam(), kDim, 47);
    Rng rng(53);
    Matrix drift = Matrix::randomNormal(24, kDim, 1.0, rng);
    drift.addRowBroadcast(Matrix(1, kDim, 0.75));
    Classifier adapted = base.clone();
    adapt::TentAdapter(adapt::AdaptConfig{}).adapt(adapted, drift);
    const BnPatch clean = base.bnPatch();
    const BnPatch tent = adapted.bnPatch();
    ASSERT_FALSE(tent.approxEquals(clean, 0.0));

    Matrix x = specialInputs(40, kDim, rng);
    for (const BnPatch *patch : {&clean, &tent}) {
        Matrix fused = base.infer(x, *patch);
        Classifier installed = base.clone();
        installed.applyBnPatch(*patch);
        EXPECT_TRUE(sameBits(fused, installed.logits(x)));
        EXPECT_TRUE(
            sameBits(fused, installed.net().forward(x, Mode::kEval)));
    }
    // The base model itself was only read.
    EXPECT_TRUE(base.bnPatch().approxEquals(clean, 0.0));
}

INSTANTIATE_TEST_SUITE_P(Tiers, InferDifferential,
                         ::testing::Values(Architecture::kResNet18,
                                           Architecture::kResNet34,
                                           Architecture::kResNet50));

/** Every logit of @p model on @p x as %.17g, one row per line. */
std::string
logitText(Classifier &model, const Matrix &x)
{
    const Matrix z = model.logits(x);
    std::string text;
    char buf[32];
    for (size_t r = 0; r < z.rows(); ++r) {
        for (size_t c = 0; c < z.cols(); ++c) {
            std::snprintf(buf, sizeof buf, "%s%.17g", c ? " " : "",
                          z(r, c));
            text += buf;
        }
        text += "\n";
    }
    return text;
}

TEST(NnGolden, TrainedResNet50AndTentPatchLogitsAreUnchanged)
{
    // Pins the whole nn stack to the bit: supervised training (all
    // three products, BN train/backward, SGD), TENT adaptation
    // (adapt-mode forward/backward, Adam) and the eval path with the
    // adapted BN patch.
    // The expected text was printed by the plain-loop products that the
    // gemm kernel replaced; any change in rounding shows up here.
    data::DomainConfig dc;
    dc.numClasses = 6;
    dc.featureDim = 32;
    dc.seed = 41;
    data::Domain domain(dc);
    Rng rng(3);
    auto train = domain.makeBalancedDataset(40, rng);
    Classifier base(Architecture::kResNet50, 32, 6, 5);
    TrainConfig tc;
    tc.epochs = 3;
    base.trainSupervised(train.x, train.labels, tc);

    auto drift = domain.makeBalancedDataset(12, rng);
    drift.x.addRowBroadcast(Matrix(1, 32, 0.75));
    Classifier adapted = base.clone();
    adapt::TentAdapter(adapt::AdaptConfig{}).adapt(adapted, drift.x);
    Classifier patched = base.clone();
    BnPatch::extract(adapted.net()).apply(patched.net());

    const Matrix probe = Matrix::randomNormal(3, 32, 1.0, rng);
    EXPECT_EQ(logitText(base, probe) + logitText(patched, probe),
              kGoldenLogits);
}

} // namespace
} // namespace nazar::nn
