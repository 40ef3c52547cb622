/**
 * @file
 * Mahalanobis-distance drift detector (Lee et al. 2018) — one of the
 * families the paper rules out for on-device use because it requires
 * training-time access to the data distribution ("No secondary
 * dataset: ✗" in Table 1). Implemented here so the Table 1 comparison
 * can be *measured*, not just tabulated.
 *
 * Fit: class-conditional Gaussians with a shared (ridge-regularized)
 * covariance estimated from the training set. Score: negative minimum
 * squared Mahalanobis distance to any class mean; drift when the
 * nearest class is farther than a threshold.
 */
#ifndef NAZAR_DETECT_MAHALANOBIS_H
#define NAZAR_DETECT_MAHALANOBIS_H

#include <vector>

#include "detect/detector.h"
#include "nn/matrix.h"

namespace nazar::detect {

/** Class-conditional Gaussian detector over input features. */
class MahalanobisDetector
{
  public:
    /**
     * Fit from labeled training data.
     *
     * @param x             Training features (the "secondary dataset"
     *                      requirement).
     * @param labels        Class index per row.
     * @param max_distance2 Squared-distance threshold: drift when the
     *                      nearest class mean is farther than this.
     * @param ridge         Covariance regularizer added to the
     *                      diagonal.
     */
    MahalanobisDetector(const nn::Matrix &x,
                        const std::vector<int> &labels,
                        double max_distance2, double ridge = 1e-3);

    /** Drift verdict for one feature vector. */
    bool isDrift(const std::vector<double> &features) const;

    /** Negative min squared distance (higher = more in-distribution). */
    double score(const std::vector<double> &features) const;

    /** Squared Mahalanobis distance to the nearest class mean. */
    double minDistance2(const std::vector<double> &features) const;

    size_t classCount() const { return means_.size(); }

    std::string name() const;

  private:
    std::vector<std::vector<double>> means_; ///< Per-class means.
    nn::Matrix choleskyL_; ///< Factor of the shared covariance.
    double maxDistance2_;
};

} // namespace nazar::detect

#endif // NAZAR_DETECT_MAHALANOBIS_H
