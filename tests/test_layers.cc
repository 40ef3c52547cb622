/**
 * @file
 * Tests for the NN layers, including finite-difference gradient checks
 * of every backward pass.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.h"
#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/bn_patch.h"
#include "nn/linear.h"
#include "nn/sequential.h"

namespace nazar::nn {
namespace {

/** Scalar probe loss: L = sum(output .* weights). */
double
probeLoss(Layer &layer, const Matrix &x, const Matrix &probe, Mode mode)
{
    Matrix y = layer.forward(x, mode);
    return y.cwiseProduct(probe).sum();
}

/** Finite-difference gradient of the probe loss w.r.t. one matrix. */
Matrix
numericalGrad(Layer &layer, Matrix &target, const Matrix &x,
              const Matrix &probe, Mode mode, double eps = 1e-6)
{
    Matrix grad(target.rows(), target.cols());
    for (size_t r = 0; r < target.rows(); ++r) {
        for (size_t c = 0; c < target.cols(); ++c) {
            double saved = target(r, c);
            target(r, c) = saved + eps;
            double up = probeLoss(layer, x, probe, mode);
            target(r, c) = saved - eps;
            double down = probeLoss(layer, x, probe, mode);
            target(r, c) = saved;
            grad(r, c) = (up - down) / (2.0 * eps);
        }
    }
    return grad;
}

TEST(Linear, ForwardMatchesManualComputation)
{
    Rng rng(1);
    Linear lin(2, 2, rng);
    lin.weight().value = Matrix::fromRows({{1, 2}, {3, 4}});
    lin.bias().value = Matrix::rowVector({10, 20});
    Matrix y = lin.forward(Matrix::fromRows({{1, 1}}), Mode::kEval);
    EXPECT_TRUE(y.approxEquals(Matrix::fromRows({{14, 26}})));
}

TEST(Linear, GradientCheckWeights)
{
    Rng rng(2);
    Linear lin(4, 3, rng);
    Matrix x = Matrix::randomNormal(5, 4, 1.0, rng);
    Matrix probe = Matrix::randomNormal(5, 3, 1.0, rng);

    lin.forward(x, Mode::kTrain);
    lin.weight().zeroGrad();
    lin.bias().zeroGrad();
    Matrix grad_in = lin.backward(probe, Mode::kTrain);

    Matrix num_w =
        numericalGrad(lin, lin.weight().value, x, probe, Mode::kTrain);
    Matrix num_b =
        numericalGrad(lin, lin.bias().value, x, probe, Mode::kTrain);
    EXPECT_TRUE(lin.weight().grad.approxEquals(num_w, 1e-5));
    EXPECT_TRUE(lin.bias().grad.approxEquals(num_b, 1e-5));

    // Input gradient via finite differences.
    Matrix num_x(5, 4);
    for (size_t r = 0; r < 5; ++r) {
        for (size_t c = 0; c < 4; ++c) {
            Matrix xp = x, xm = x;
            xp(r, c) += 1e-6;
            xm(r, c) -= 1e-6;
            num_x(r, c) = (probeLoss(lin, xp, probe, Mode::kTrain) -
                           probeLoss(lin, xm, probe, Mode::kTrain)) /
                          2e-6;
        }
    }
    EXPECT_TRUE(grad_in.approxEquals(num_x, 1e-5));
}

TEST(Linear, AdaptModeFreezesParameters)
{
    Rng rng(3);
    Linear lin(3, 2, rng);
    EXPECT_TRUE(lin.params(Mode::kAdapt).empty());
    EXPECT_EQ(lin.params(Mode::kTrain).size(), 2u);

    Matrix x = Matrix::randomNormal(4, 3, 1.0, rng);
    Matrix g = Matrix::randomNormal(4, 2, 1.0, rng);
    lin.forward(x, Mode::kAdapt);
    lin.weight().zeroGrad();
    lin.backward(g, Mode::kAdapt);
    EXPECT_EQ(lin.weight().grad.maxAbs(), 0.0); // no grads accumulated
}

TEST(Linear, RejectsBadShapes)
{
    Rng rng(4);
    Linear lin(3, 2, rng);
    EXPECT_THROW(lin.forward(Matrix(1, 4), Mode::kEval), NazarError);
    EXPECT_THROW(Linear(0, 2, rng), NazarError);
}

TEST(BatchNorm, TrainForwardNormalizes)
{
    BatchNorm1d bn(2);
    Matrix x = Matrix::fromRows({{1, 10}, {3, 20}, {5, 30}});
    Matrix y = bn.forward(x, Mode::kTrain);
    // Each column of the output has mean ~0 and (biased) variance ~1.
    Matrix m = y.colMean();
    EXPECT_NEAR(m(0, 0), 0.0, 1e-9);
    EXPECT_NEAR(m(0, 1), 0.0, 1e-9);
    double var0 = 0.0;
    for (size_t r = 0; r < 3; ++r)
        var0 += y(r, 0) * y(r, 0);
    EXPECT_NEAR(var0 / 3.0, 1.0, 1e-4);
}

TEST(BatchNorm, RunningStatsConvergeToDataStats)
{
    BatchNorm1d bn(1, /*momentum=*/0.3);
    Rng rng(5);
    for (int i = 0; i < 400; ++i) {
        Matrix x(16, 1);
        for (size_t r = 0; r < 16; ++r)
            x(r, 0) = rng.normal(7.0, 2.0);
        bn.forward(x, Mode::kTrain);
    }
    EXPECT_NEAR(bn.runningMean()(0, 0), 7.0, 0.5);
    EXPECT_NEAR(bn.runningVar()(0, 0), 4.0, 1.0);
}

TEST(BatchNorm, EvalUsesRunningStats)
{
    BatchNorm1d bn(1);
    BnState s = bn.state();
    s.runningMean(0, 0) = 4.0;
    s.runningVar(0, 0) = 9.0;
    s.gamma(0, 0) = 2.0;
    s.beta(0, 0) = 1.0;
    bn.setState(s);
    Matrix y = bn.forward(Matrix::fromRows({{7.0}}), Mode::kEval);
    // (7-4)/3 * 2 + 1 = 3.
    EXPECT_NEAR(y(0, 0), 3.0, 1e-4);
}

TEST(BatchNorm, EvalModeDoesNotMutateState)
{
    BatchNorm1d bn(3);
    BnState before = bn.state();
    Rng rng(6);
    bn.forward(Matrix::randomNormal(8, 3, 2.0, rng), Mode::kEval);
    BnState after = bn.state();
    EXPECT_TRUE(before.runningMean.approxEquals(after.runningMean));
    EXPECT_TRUE(before.runningVar.approxEquals(after.runningVar));
}

TEST(BatchNorm, AdaptModeUpdatesRunningStats)
{
    BatchNorm1d bn(2);
    Matrix before = bn.runningMean();
    Rng rng(7);
    Matrix x = Matrix::randomNormal(8, 2, 1.0, rng);
    x.addRowBroadcast(Matrix::rowVector({5.0, -5.0}));
    bn.forward(x, Mode::kAdapt);
    EXPECT_FALSE(bn.runningMean().approxEquals(before, 1e-6));
}

TEST(BatchNorm, GradientCheckGammaBetaInput)
{
    BatchNorm1d bn(3);
    Rng rng(8);
    // Non-trivial gamma/beta so the test exercises the general case.
    BnState s = bn.state();
    s.gamma = Matrix::rowVector({1.5, 0.5, 2.0});
    s.beta = Matrix::rowVector({0.3, -0.2, 0.1});
    bn.setState(s);

    Matrix x = Matrix::randomNormal(6, 3, 1.5, rng);
    Matrix probe = Matrix::randomNormal(6, 3, 1.0, rng);

    bn.forward(x, Mode::kTrain);
    bn.gamma().zeroGrad();
    bn.beta().zeroGrad();
    Matrix grad_in = bn.backward(probe, Mode::kTrain);

    Matrix num_g =
        numericalGrad(bn, bn.gamma().value, x, probe, Mode::kTrain);
    Matrix num_b =
        numericalGrad(bn, bn.beta().value, x, probe, Mode::kTrain);
    EXPECT_TRUE(bn.gamma().grad.approxEquals(num_g, 1e-4));
    EXPECT_TRUE(bn.beta().grad.approxEquals(num_b, 1e-4));

    Matrix num_x(6, 3);
    for (size_t r = 0; r < 6; ++r) {
        for (size_t c = 0; c < 3; ++c) {
            Matrix xp = x, xm = x;
            xp(r, c) += 1e-5;
            xm(r, c) -= 1e-5;
            num_x(r, c) = (probeLoss(bn, xp, probe, Mode::kTrain) -
                           probeLoss(bn, xm, probe, Mode::kTrain)) /
                          2e-5;
        }
    }
    EXPECT_TRUE(grad_in.approxEquals(num_x, 1e-3));
}

TEST(BatchNorm, ParamsExposedInAdaptMode)
{
    BatchNorm1d bn(4);
    EXPECT_EQ(bn.params(Mode::kAdapt).size(), 2u); // gamma + beta
    EXPECT_EQ(bn.params(Mode::kTrain).size(), 2u);
}

TEST(BatchNorm, RequiresBatchOfTwoForBatchStats)
{
    BatchNorm1d bn(2);
    EXPECT_THROW(bn.forward(Matrix(1, 2), Mode::kTrain), NazarError);
    EXPECT_NO_THROW(bn.forward(Matrix(1, 2), Mode::kEval));
}

TEST(BatchNorm, StateRoundTrip)
{
    BatchNorm1d a(3), b(3);
    Rng rng(9);
    a.forward(Matrix::randomNormal(8, 3, 2.0, rng), Mode::kTrain);
    b.setState(a.state());
    Matrix x = Matrix::randomNormal(4, 3, 1.0, rng);
    EXPECT_TRUE(a.forward(x, Mode::kEval)
                    .approxEquals(b.forward(x, Mode::kEval), 1e-12));
}

TEST(Relu, ForwardAndBackward)
{
    Relu relu(3);
    Matrix x = Matrix::fromRows({{-1, 0, 2}});
    Matrix y = relu.forward(x, Mode::kTrain);
    EXPECT_TRUE(y.approxEquals(Matrix::fromRows({{0, 0, 2}})));
    Matrix g = relu.backward(Matrix::fromRows({{5, 5, 5}}), Mode::kTrain);
    EXPECT_TRUE(g.approxEquals(Matrix::fromRows({{0, 0, 5}})));
}

TEST(Tanh, GradientCheck)
{
    Tanh tanh_layer(2);
    Rng rng(10);
    Matrix x = Matrix::randomNormal(4, 2, 1.0, rng);
    Matrix probe = Matrix::randomNormal(4, 2, 1.0, rng);
    tanh_layer.forward(x, Mode::kTrain);
    Matrix grad_in = tanh_layer.backward(probe, Mode::kTrain);
    Matrix num_x(4, 2);
    for (size_t r = 0; r < 4; ++r) {
        for (size_t c = 0; c < 2; ++c) {
            Matrix xp = x, xm = x;
            xp(r, c) += 1e-6;
            xm(r, c) -= 1e-6;
            num_x(r, c) =
                (probeLoss(tanh_layer, xp, probe, Mode::kTrain) -
                 probeLoss(tanh_layer, xm, probe, Mode::kTrain)) /
                2e-6;
        }
    }
    EXPECT_TRUE(grad_in.approxEquals(num_x, 1e-5));
}

TEST(Sequential, ChainsLayersAndCollectsParams)
{
    Rng rng(11);
    Sequential net;
    net.add(std::make_unique<Linear>(4, 8, rng));
    net.add(std::make_unique<BatchNorm1d>(8));
    net.add(std::make_unique<Relu>(8));
    net.add(std::make_unique<Linear>(8, 3, rng));

    EXPECT_EQ(net.layerCount(), 4u);
    EXPECT_EQ(net.batchNormLayers().size(), 1u);
    // Train: 2 linears x 2 params + 1 bn x 2 params.
    EXPECT_EQ(net.params(Mode::kTrain).size(), 6u);
    // Adapt: only the BN affines.
    EXPECT_EQ(net.params(Mode::kAdapt).size(), 2u);

    Matrix x = Matrix::randomNormal(5, 4, 1.0, rng);
    Matrix y = net.forward(x, Mode::kTrain);
    EXPECT_EQ(y.rows(), 5u);
    EXPECT_EQ(y.cols(), 3u);

    net.zeroGrads();
    Matrix g = net.backward(Matrix::randomNormal(5, 3, 1.0, rng),
                            Mode::kTrain);
    EXPECT_EQ(g.rows(), 5u);
    EXPECT_EQ(g.cols(), 4u);
    EXPECT_GT(net.parameterCount(), 0u);
}

TEST(Sequential, InferMatchesEvalForwardOnSpecialValues)
{
    // One Linear->BatchNorm1d->Relu block whose pre-activations are
    // -0.0 (x = 2: gamma * +0.0 * inv_std + beta with gamma = -1 and
    // beta = -0.0), NaN (x = NaN) and positive (x = -1). The ReLU select
    // must map the first two to +0.0 on both paths.
    Sequential net;
    net.add(std::make_unique<Linear>(Matrix::fromRows({{1.0}}),
                                     Matrix(1, 1)));
    auto bn = std::make_unique<BatchNorm1d>(1);
    bn->setState(BnState{Matrix(1, 1, -1.0), Matrix(1, 1, -0.0),
                         Matrix(1, 1, 2.0), Matrix(1, 1, 1.0)});
    net.add(std::move(bn));
    net.add(std::make_unique<Relu>(1));

    const double nan = std::numeric_limits<double>::quiet_NaN();
    Matrix x = Matrix::fromRows({{2.0}, {nan}, {-1.0}});
    Matrix fused = net.infer(x);
    Matrix layered = net.forward(x, Mode::kEval);
    ASSERT_EQ(fused.rows(), 3u);
    EXPECT_EQ(std::memcmp(fused.data(), layered.data(),
                          fused.size() * sizeof(double)),
              0);
    EXPECT_FALSE(std::signbit(fused(0, 0)));
    EXPECT_EQ(fused(0, 0), 0.0);
    EXPECT_EQ(fused(1, 0), 0.0);
    EXPECT_GT(fused(2, 0), 0.0);
}

TEST(Sequential, InferReadsPatchAndLeavesNoCache)
{
    Rng rng(12);
    Sequential net;
    net.add(std::make_unique<Linear>(4, 6, rng));
    net.add(std::make_unique<BatchNorm1d>(6));
    net.add(std::make_unique<Relu>(6));
    net.add(std::make_unique<Linear>(6, 3, rng));
    Matrix x = Matrix::randomNormal(5, 4, 1.0, rng);

    // A patch with other statistics changes the logits without being
    // installed.
    BnState moved = net.batchNormLayers()[0]->state();
    moved.runningMean = Matrix(1, 6, 0.5);
    BnPatch patch = BnPatch::fromStates({moved});
    const BnPatch own = BnPatch::extract(net);
    Matrix before = net.infer(x);
    Matrix patched = net.infer(x, &patch);
    EXPECT_FALSE(patched.approxEquals(before, 1e-9));
    EXPECT_TRUE(BnPatch::extract(net).approxEquals(own, 0.0));
    patch.apply(net);
    EXPECT_TRUE(net.forward(x, Mode::kEval).approxEquals(patched, 0.0));

    // infer() wrote no cache: a fresh chain cannot run backward.
    Rng rng2(12);
    Sequential fresh;
    fresh.add(std::make_unique<Linear>(4, 3, rng2));
    fresh.infer(x);
    EXPECT_THROW(fresh.backward(Matrix(5, 3), Mode::kEval), NazarError);
}

TEST(Sequential, InferRejectsOtherShapesAndLayouts)
{
    Rng rng(13);
    Sequential tanh_net;
    tanh_net.add(std::make_unique<Linear>(2, 2, rng));
    tanh_net.add(std::make_unique<Tanh>(2));
    EXPECT_THROW(tanh_net.infer(Matrix(1, 2)), NazarError);

    Sequential no_relu;
    no_relu.add(std::make_unique<Linear>(2, 2, rng));
    no_relu.add(std::make_unique<BatchNorm1d>(2));
    EXPECT_THROW(no_relu.infer(Matrix(1, 2)), NazarError);

    Sequential net;
    net.add(std::make_unique<Linear>(2, 2, rng));
    net.add(std::make_unique<BatchNorm1d>(2));
    net.add(std::make_unique<Relu>(2));
    BnPatch empty;
    EXPECT_THROW(net.infer(Matrix(1, 2), &empty), NazarError);
    EXPECT_THROW(net.infer(Matrix(1, 3)), NazarError);
    EXPECT_NO_THROW(net.infer(Matrix(1, 2)));
}

TEST(Sequential, RejectsNullLayer)
{
    Sequential net;
    EXPECT_THROW(net.add(nullptr), NazarError);
}

} // namespace
} // namespace nazar::nn
