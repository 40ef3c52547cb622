/**
 * @file
 * Implementation of 1-D batch normalization.
 */
#include "batchnorm.h"

#include <cmath>
#include <sstream>
#include <vector>

#include "common/error.h"

namespace nazar::nn {

BatchNorm1d::BatchNorm1d(size_t features, double momentum, double eps)
    : features_(features), momentum_(momentum), eps_(eps),
      gamma_(Matrix(1, features, 1.0), "bn.gamma"),
      beta_(Matrix(1, features), "bn.beta"),
      runningMean_(1, features), runningVar_(1, features, 1.0)
{
    NAZAR_CHECK(features > 0, "BatchNorm1d needs at least one feature");
    NAZAR_CHECK(momentum > 0.0 && momentum <= 1.0,
                "momentum must be in (0, 1]");
}

Matrix
BatchNorm1d::forward(const Matrix &x, Mode mode)
{
    NAZAR_CHECK(x.cols() == features_, "BatchNorm input width mismatch");

    if (mode == Mode::kEval) {
        // 1/sqrt(var + eps) depends only on the column: computed once
        // per call instead of once per row (same expression, same bits).
        std::vector<double> inv_std(features_);
        for (size_t c = 0; c < features_; ++c)
            inv_std[c] = 1.0 / std::sqrt(runningVar_(0, c) + eps_);
        const double *gamma = gamma_.value.row(0);
        const double *beta = beta_.value.row(0);
        const double *mean = runningMean_.row(0);
        Matrix y = x;
        for (size_t r = 0; r < y.rows(); ++r) {
            double *a = y.row(r);
            for (size_t c = 0; c < features_; ++c)
                a[c] = gamma[c] * (a[c] - mean[c]) * inv_std[c] + beta[c];
        }
        return y;
    }

    // Train / adapt: batch statistics.
    NAZAR_CHECK(x.rows() >= 2,
                "batch-stat normalization needs a batch of >= 2");
    size_t n = x.rows();
    Matrix mean = x.colMean();
    Matrix var(1, features_);
    for (size_t r = 0; r < n; ++r) {
        const double *a = x.row(r);
        for (size_t c = 0; c < features_; ++c) {
            double d = a[c] - mean(0, c);
            var(0, c) += d * d;
        }
    }
    var *= 1.0 / static_cast<double>(n); // biased, as in training-time BN

    lastInvStd_ = Matrix(1, features_);
    for (size_t c = 0; c < features_; ++c)
        lastInvStd_(0, c) = 1.0 / std::sqrt(var(0, c) + eps_);

    lastXhat_ = Matrix(n, features_);
    Matrix y(n, features_);
    for (size_t r = 0; r < n; ++r) {
        const double *a = x.row(r);
        for (size_t c = 0; c < features_; ++c) {
            double xh = (a[c] - mean(0, c)) * lastInvStd_(0, c);
            lastXhat_(r, c) = xh;
            y(r, c) = gamma_.value(0, c) * xh + beta_.value(0, c);
        }
    }
    lastBatch_ = n;

    // Fold batch statistics into the running estimates. Running var
    // uses the unbiased batch variance (PyTorch convention).
    double unbias = n > 1 ? static_cast<double>(n) /
                                static_cast<double>(n - 1)
                          : 1.0;
    for (size_t c = 0; c < features_; ++c) {
        runningMean_(0, c) = (1.0 - momentum_) * runningMean_(0, c) +
                             momentum_ * mean(0, c);
        runningVar_(0, c) = (1.0 - momentum_) * runningVar_(0, c) +
                            momentum_ * var(0, c) * unbias;
    }
    return y;
}

Matrix
BatchNorm1d::backward(const Matrix &grad_out, Mode mode)
{
    if (mode == Mode::kEval) {
        // Eval-mode normalization is a fixed affine transform, so the
        // input gradient is elementwise: g * gamma / sqrt(var + eps).
        // (No parameter gradients: eval backward exists only for
        // input-gradient consumers such as the GOdin detector.)
        NAZAR_CHECK(grad_out.cols() == features_,
                    "BatchNorm backward shape mismatch");
        Matrix grad_in = grad_out;
        for (size_t r = 0; r < grad_in.rows(); ++r) {
            double *g = grad_in.row(r);
            for (size_t c = 0; c < features_; ++c) {
                g[c] *= gamma_.value(0, c) /
                        std::sqrt(runningVar_(0, c) + eps_);
            }
        }
        return grad_in;
    }
    NAZAR_CHECK(lastBatch_ > 0 && grad_out.rows() == lastBatch_ &&
                    grad_out.cols() == features_,
                "BatchNorm backward shape mismatch");

    size_t n = lastBatch_;
    double inv_n = 1.0 / static_cast<double>(n);

    // Parameter gradients.
    Matrix sum_g(1, features_);       // sum over batch of g
    Matrix sum_g_xhat(1, features_);  // sum over batch of g * xhat
    for (size_t r = 0; r < n; ++r) {
        const double *g = grad_out.row(r);
        const double *xh = lastXhat_.row(r);
        for (size_t c = 0; c < features_; ++c) {
            sum_g(0, c) += g[c];
            sum_g_xhat(0, c) += g[c] * xh[c];
        }
    }
    gamma_.grad += sum_g_xhat;
    beta_.grad += sum_g;

    // Input gradient (standard BN backward):
    // dx = gamma * inv_std / N * (N*g - sum_g - xhat * sum_g_xhat)
    Matrix grad_in(n, features_);
    for (size_t r = 0; r < n; ++r) {
        const double *g = grad_out.row(r);
        const double *xh = lastXhat_.row(r);
        double *o = grad_in.row(r);
        for (size_t c = 0; c < features_; ++c) {
            o[c] = gamma_.value(0, c) * lastInvStd_(0, c) * inv_n *
                   (static_cast<double>(n) * g[c] - sum_g(0, c) -
                    xh[c] * sum_g_xhat(0, c));
        }
    }
    return grad_in;
}

std::vector<Param *>
BatchNorm1d::params(Mode mode)
{
    (void)mode;
    // BN affines are trainable in both kTrain and kAdapt — this is the
    // "adapt only the BN layers" rule of TENT.
    return {&gamma_, &beta_};
}

std::string
BatchNorm1d::name() const
{
    std::ostringstream os;
    os << "BatchNorm1d(" << features_ << ")";
    return os.str();
}

BnState
BatchNorm1d::state() const
{
    return BnState{gamma_.value, beta_.value, runningMean_, runningVar_};
}

void
BatchNorm1d::setState(const BnState &state)
{
    NAZAR_CHECK(state.gamma.cols() == features_ &&
                    state.beta.cols() == features_ &&
                    state.runningMean.cols() == features_ &&
                    state.runningVar.cols() == features_,
                "BnState width mismatch");
    gamma_.value = state.gamma;
    beta_.value = state.beta;
    runningMean_ = state.runningMean;
    runningVar_ = state.runningVar;
}

} // namespace nazar::nn
