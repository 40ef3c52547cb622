/**
 * @file
 * SSL-style drift detector (Hendrycks et al. 2019 / CSI) — the
 * "secondary model" family the paper rules out for resource-
 * constrained devices (Table 1), implemented so the comparison can be
 * measured.
 *
 * An auxiliary classifier is co-trained on a self-supervised task:
 * identify which of four fixed, label-free transforms was applied to a
 * clean sample (the feature-space analog of rotation prediction). On
 * drifted inputs the auxiliary task gets harder, so the mean
 * probability the auxiliary model assigns to the *correct* transform
 * drops — that probability is the detection score.
 */
#ifndef NAZAR_DETECT_SSL_H
#define NAZAR_DETECT_SSL_H

#include <memory>

#include "detect/detector.h"
#include "nn/classifier.h"
#include "nn/matrix.h"

namespace nazar::detect {

/** Number of self-supervised transforms (aux classes). */
inline constexpr int kSslTransforms = 4;

/** Apply the k-th fixed transform (k in [0, kSslTransforms)). */
std::vector<double> sslTransform(const std::vector<double> &x, int k);

/** Auxiliary-model drift detector. */
class SslDetector
{
  public:
    /**
     * Co-train the auxiliary transform classifier on clean data.
     *
     * @param clean_x   Clean training features (unlabeled — the task
     *                  is self-supervised).
     * @param threshold Drift when the mean correct-transform
     *                  probability falls below this.
     * @param seed      Auxiliary-model training seed.
     * @param epochs    Auxiliary training epochs.
     */
    SslDetector(const nn::Matrix &clean_x, double threshold,
                uint64_t seed = 5, int epochs = 20);

    /** Drift verdict for one input (runs the secondary model
     *  kSslTransforms times — the cost the paper objects to). */
    bool isDrift(const std::vector<double> &features) const;

    /** Mean probability assigned to the correct transform. */
    double score(const std::vector<double> &features) const;

    /** Auxiliary task accuracy on a clean hold-out (diagnostic). */
    double auxiliaryAccuracy(const nn::Matrix &clean_x) const;

    std::string name() const;

  private:
    std::unique_ptr<nn::Classifier> aux_;
    double threshold_;
};

} // namespace nazar::detect

#endif // NAZAR_DETECT_SSL_H
