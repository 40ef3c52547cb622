/**
 * @file
 * Fully-connected (dense) layer: y = x W + b.
 */
#ifndef NAZAR_NN_LINEAR_H
#define NAZAR_NN_LINEAR_H

#include "nn/layer.h"

#include "common/rng.h"

namespace nazar::nn {

/** Dense layer with He-style initialization. */
class Linear : public Layer
{
  public:
    /**
     * @param in_dim  Input feature width.
     * @param out_dim Output feature width.
     * @param rng     Source of initialization randomness.
     */
    Linear(size_t in_dim, size_t out_dim, Rng &rng);

    /**
     * A layer holding the given tensors, with zero gradients and no
     * forward cache (cloning and loading build layers this way).
     *
     * @param weight in_dim x out_dim.
     * @param bias   1 x out_dim.
     */
    Linear(Matrix weight, Matrix bias);

    Matrix forward(const Matrix &x, Mode mode) override;
    Matrix backward(const Matrix &grad_out, Mode mode) override;
    std::vector<Param *> params(Mode mode) override;
    std::string name() const override;
    size_t outputDim() const override { return outDim_; }

    size_t inputDim() const { return inDim_; }

    Param &weight() { return weight_; }
    Param &bias() { return bias_; }
    const Param &weight() const { return weight_; }
    const Param &bias() const { return bias_; }

  private:
    size_t inDim_;
    size_t outDim_;
    Param weight_; ///< in_dim x out_dim.
    Param bias_;   ///< 1 x out_dim.
    Matrix lastInput_; ///< Cached activation for backward().
};

} // namespace nazar::nn

#endif // NAZAR_NN_LINEAR_H
