/**
 * @file
 * Implementation of activation layers.
 */
#include "activation.h"

#include <cmath>
#include <sstream>

#include "common/error.h"

namespace nazar::nn {

Matrix
Relu::forward(const Matrix &x, Mode mode)
{
    (void)mode;
    NAZAR_CHECK(x.cols() == features_, "Relu input width mismatch");
    Matrix y = x;
    // Cache in every mode so eval-mode backward passes work.
    lastMask_ = Matrix(x.rows(), x.cols());
    // Selects, not a branch: whether an activation is positive is
    // data, and a mispredicted branch per element costs more than both
    // writes. NaN and -0.0 map to 0.0, as before.
    for (size_t r = 0; r < y.rows(); ++r) {
        double *a = y.row(r);
        double *mask = lastMask_.row(r);
        for (size_t c = 0; c < y.cols(); ++c) {
            const bool on = a[c] > 0.0;
            mask[c] = on ? 1.0 : 0.0;
            a[c] = on ? a[c] : 0.0;
        }
    }
    return y;
}

Matrix
Relu::backward(const Matrix &grad_out, Mode mode)
{
    (void)mode;
    NAZAR_CHECK(!lastMask_.empty(), "backward() without forward()");
    return grad_out.cwiseProduct(lastMask_);
}

std::string
Relu::name() const
{
    std::ostringstream os;
    os << "Relu(" << features_ << ")";
    return os.str();
}

Matrix
Tanh::forward(const Matrix &x, Mode mode)
{
    (void)mode;
    NAZAR_CHECK(x.cols() == features_, "Tanh input width mismatch");
    Matrix y = x.unaryOp([](double v) { return std::tanh(v); });
    lastOutput_ = y;
    return y;
}

Matrix
Tanh::backward(const Matrix &grad_out, Mode mode)
{
    (void)mode;
    NAZAR_CHECK(!lastOutput_.empty(), "backward() without forward()");
    Matrix g = grad_out;
    for (size_t r = 0; r < g.rows(); ++r)
        for (size_t c = 0; c < g.cols(); ++c)
            g(r, c) *= 1.0 - lastOutput_(r, c) * lastOutput_(r, c);
    return g;
}

std::string
Tanh::name() const
{
    std::ostringstream os;
    os << "Tanh(" << features_ << ")";
    return os.str();
}

} // namespace nazar::nn
