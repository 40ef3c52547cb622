/**
 * @file
 * Score-threshold detectors: MSP (Nazar's default), entropy and energy
 * variants (which the paper found "almost identical" to MSP, §3.2.1).
 */
#ifndef NAZAR_DETECT_SCORES_H
#define NAZAR_DETECT_SCORES_H

#include "detect/detector.h"
#include "nn/matrix.h"

namespace nazar::detect {

/** Nazar's default MSP threshold used on devices (paper §3.2.2). */
inline constexpr double kDefaultMspThreshold = 0.9;

/**
 * Maximum-softmax-probability threshold detector (Hendrycks & Gimpel):
 * flag drift when max softmax < threshold. MSP is normalized to [0,1],
 * which is why the paper picks it as the default knob.
 */
class MspDetector : public Detector
{
  public:
    explicit MspDetector(double threshold = kDefaultMspThreshold);

    /** Drift when score(logit_row) < threshold. */
    bool isDrift(const std::vector<double> &logit_row) const override;
    double score(const std::vector<double> &logit_row) const override;
    std::string name() const override;

    /** Every row's MSP and isDrift verdict of one logit batch. */
    struct Decisions
    {
        std::vector<double> msp;
        std::vector<bool> drift;
    };

    /**
     * isDrift on every row of @p logits from one batch softmax, with
     * the same per-row sample and flag counts. Like isDrift, the
     * softmax and the flags are timed as `detect.msp.is_drift`.
     */
    Decisions decide(const nn::Matrix &logits) const;

    double threshold() const { return threshold_; }

  private:
    /** Count one sample and decide it: drift when @p msp < threshold. */
    bool flag(double msp) const;

    double threshold_;
};

/**
 * Softmax-entropy threshold detector: flag drift when the prediction
 * entropy exceeds a threshold (entropy in nats). score() returns the
 * negated entropy so that, like MSP, higher means more in-distribution.
 */
class EntropyDetector : public Detector
{
  public:
    /** @param max_entropy Flag drift when entropy > this (nats). */
    explicit EntropyDetector(double max_entropy);

    bool isDrift(const std::vector<double> &logit_row) const override;
    double score(const std::vector<double> &logit_row) const override;
    std::string name() const override;

    double maxEntropy() const { return maxEntropy_; }

  private:
    double maxEntropy_;
};

/**
 * Energy-score detector (Liu et al. 2020): flag drift when
 * -logsumexp(z) exceeds a threshold. score() returns logsumexp(z)
 * (higher = more in-distribution).
 */
class EnergyDetector : public Detector
{
  public:
    /** @param max_energy Flag drift when -logsumexp(z) > this. */
    explicit EnergyDetector(double max_energy);

    bool isDrift(const std::vector<double> &logit_row) const override;
    double score(const std::vector<double> &logit_row) const override;
    std::string name() const override;

    double maxEnergy() const { return maxEnergy_; }

  private:
    double maxEnergy_;
};

} // namespace nazar::detect

#endif // NAZAR_DETECT_SCORES_H
