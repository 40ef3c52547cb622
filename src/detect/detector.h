/**
 * @file
 * On-device drift-detection interface (paper §3.2).
 *
 * Detectors are pure functions of the model's logit output: they never
 * see labels, raw inputs, or any auxiliary dataset/model — the design
 * constraint that ruled out OE/Odin/MD/SSL/CSI/GOdin (paper Table 1).
 */
#ifndef NAZAR_DETECT_DETECTOR_H
#define NAZAR_DETECT_DETECTOR_H

#include <string>
#include <vector>

namespace nazar::detect {

/**
 * Single-sample drift detector operating on one logit vector.
 */
class Detector
{
  public:
    virtual ~Detector() = default;

    /** True when the sample is flagged as drifted. */
    virtual bool isDrift(const std::vector<double> &logit_row) const = 0;

    /**
     * The underlying confidence/uncertainty score (higher = more
     * in-distribution for score-threshold detectors).
     */
    virtual double score(const std::vector<double> &logit_row) const = 0;

    /** Diagnostic name. */
    virtual std::string name() const = 0;
};

} // namespace nazar::detect

#endif // NAZAR_DETECT_DETECTOR_H
