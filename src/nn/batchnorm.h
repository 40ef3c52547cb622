/**
 * @file
 * 1-D batch normalization (Ioffe & Szegedy) — the centerpiece of
 * Nazar's adaptation substrate.
 *
 * Nazar adapts models by updating *only* BatchNorm state (paper §3.4):
 * the affine parameters gamma/beta receive TENT/MEMO gradients and the
 * running statistics are re-estimated on drifted batches. A model
 * version deployed to devices is exactly a BnPatch: the set of
 * {gamma, beta, running mean, running var} of every BN layer.
 */
#ifndef NAZAR_NN_BATCHNORM_H
#define NAZAR_NN_BATCHNORM_H

#include "nn/layer.h"

namespace nazar::nn {

/** Snapshot of one BN layer's full state. */
struct BnState
{
    Matrix gamma;       ///< 1 x features scale.
    Matrix beta;        ///< 1 x features shift.
    Matrix runningMean; ///< 1 x features running mean estimate.
    Matrix runningVar;  ///< 1 x features running variance estimate.
};

/**
 * Batch normalization over feature columns.
 *
 * Mode behaviour:
 *  - kTrain / kAdapt: normalize with batch statistics and fold them
 *    into the running estimates with the configured momentum.
 *  - kEval: normalize with the running estimates; no state change.
 */
class BatchNorm1d : public Layer
{
  public:
    /**
     * @param features Feature width.
     * @param momentum Fraction of the *new batch* folded into running
     *                 statistics each train/adapt step (PyTorch
     *                 convention; default 0.1).
     * @param eps      Variance floor for numerical stability.
     */
    explicit BatchNorm1d(size_t features, double momentum = 0.1,
                         double eps = 1e-5);

    Matrix forward(const Matrix &x, Mode mode) override;
    Matrix backward(const Matrix &grad_out, Mode mode) override;
    std::vector<Param *> params(Mode mode) override;
    std::string name() const override;
    size_t outputDim() const override { return features_; }

    size_t features() const { return features_; }
    double momentum() const { return momentum_; }
    double eps() const { return eps_; }

    /** Copy out the full BN state (for BnPatch extraction). */
    BnState state() const;

    /** Restore a previously extracted state. */
    void setState(const BnState &state);

    Param &gamma() { return gamma_; }
    Param &beta() { return beta_; }
    const Param &gamma() const { return gamma_; }
    const Param &beta() const { return beta_; }
    const Matrix &runningMean() const { return runningMean_; }
    const Matrix &runningVar() const { return runningVar_; }

  private:
    size_t features_;
    double momentum_;
    double eps_;

    Param gamma_; ///< 1 x features.
    Param beta_;  ///< 1 x features.
    Matrix runningMean_;
    Matrix runningVar_;

    // Cached values from the last batch-stat forward (train/adapt).
    Matrix lastXhat_;   ///< Normalized input, batch x features.
    Matrix lastInvStd_; ///< 1 x features, 1/sqrt(var + eps).
    size_t lastBatch_ = 0;
};

} // namespace nazar::nn

#endif // NAZAR_NN_BATCHNORM_H
