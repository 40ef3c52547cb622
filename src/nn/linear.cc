/**
 * @file
 * Implementation of the dense layer.
 */
#include "linear.h"

#include <cmath>
#include <sstream>

#include "common/error.h"

namespace nazar::nn {

Linear::Linear(size_t in_dim, size_t out_dim, Rng &rng)
    : inDim_(in_dim), outDim_(out_dim),
      weight_(Matrix::randomNormal(in_dim, out_dim,
                                   std::sqrt(2.0 / static_cast<double>(
                                                 in_dim)),
                                   rng),
              "linear.weight"),
      bias_(Matrix(1, out_dim), "linear.bias")
{
    NAZAR_CHECK(in_dim > 0 && out_dim > 0, "Linear dims must be positive");
}

Matrix
Linear::forward(const Matrix &x, Mode /*mode*/)
{
    NAZAR_CHECK(x.cols() == inDim_, "Linear input width mismatch");
    // Cache in every mode: eval-mode backward passes (input-gradient
    // detectors like GOdin) need it too.
    lastInput_ = x;
    Matrix y = x.matmul(weight_.value);
    y.addRowBroadcast(bias_.value);
    return y;
}

Matrix
Linear::backward(const Matrix &grad_out, Mode mode)
{
    NAZAR_CHECK(grad_out.cols() == outDim_, "Linear grad width mismatch");
    NAZAR_CHECK(!lastInput_.empty(), "backward() without forward()");
    if (mode == Mode::kTrain) {
        // dL/dW = x^T g ; dL/db = column sums of g.
        weight_.grad += lastInput_.transposeMatmul(grad_out);
        bias_.grad += grad_out.colSum();
    }
    // dL/dx = g W^T (needed in every mode to reach earlier BN layers).
    return grad_out.matmulTranspose(weight_.value);
}

std::vector<Param *>
Linear::params(Mode mode)
{
    if (mode == Mode::kAdapt)
        return {}; // frozen during test-time adaptation
    return {&weight_, &bias_};
}

std::string
Linear::name() const
{
    std::ostringstream os;
    os << "Linear(" << inDim_ << "->" << outDim_ << ")";
    return os.str();
}

} // namespace nazar::nn
