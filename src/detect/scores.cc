/**
 * @file
 * Implementation of the score-threshold detectors.
 */
#include "scores.h"

#include "common/error.h"
#include "nn/loss.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace nazar::detect {

namespace {

nn::Matrix
asRow(const std::vector<double> &logit_row)
{
    return nn::Matrix::rowVector(logit_row);
}

/** Per-detector sample/flag counters (samples seen, drift flags raised). */
struct DriftCounters
{
    obs::Counter &samples;
    obs::Counter &flags;

    DriftCounters(const char *samples_name, const char *flags_name)
        : samples(obs::Registry::global().counter(samples_name)),
          flags(obs::Registry::global().counter(flags_name))
    {
    }

    bool
    record(bool drift)
    {
        samples.add(1);
        if (drift)
            flags.add(1);
        return drift;
    }
};

} // namespace

MspDetector::MspDetector(double threshold) : threshold_(threshold)
{
    NAZAR_CHECK(threshold >= 0.0 && threshold <= 1.0,
                "MSP threshold must be in [0, 1]");
}

bool
MspDetector::isDrift(const std::vector<double> &logit_row) const
{
    NAZAR_SPAN("detect.msp.is_drift");
    return flag(score(logit_row));
}

MspDetector::Decisions
MspDetector::decide(const nn::Matrix &logits) const
{
    NAZAR_SPAN("detect.msp.is_drift");
    Decisions out{nn::maxSoftmax(logits),
                  std::vector<bool>(logits.rows())};
    for (size_t r = 0; r < logits.rows(); ++r)
        out.drift[r] = flag(out.msp[r]);
    return out;
}

bool
MspDetector::flag(double msp) const
{
    static DriftCounters counters("detect.msp.samples",
                                  "detect.msp.flags");
    return counters.record(msp < threshold_);
}

double
MspDetector::score(const std::vector<double> &logit_row) const
{
    return nn::maxSoftmax(asRow(logit_row))[0];
}

std::string
MspDetector::name() const
{
    return "msp@" + std::to_string(threshold_);
}

EntropyDetector::EntropyDetector(double max_entropy)
    : maxEntropy_(max_entropy)
{
    NAZAR_CHECK(max_entropy >= 0.0, "entropy threshold must be >= 0");
}

bool
EntropyDetector::isDrift(const std::vector<double> &logit_row) const
{
    NAZAR_SPAN("detect.entropy.is_drift");
    static DriftCounters counters("detect.entropy.samples",
                                  "detect.entropy.flags");
    return counters.record(
        nn::softmaxEntropy(asRow(logit_row))[0] > maxEntropy_);
}

double
EntropyDetector::score(const std::vector<double> &logit_row) const
{
    return -nn::softmaxEntropy(asRow(logit_row))[0];
}

std::string
EntropyDetector::name() const
{
    return "entropy@" + std::to_string(maxEntropy_);
}

EnergyDetector::EnergyDetector(double max_energy) : maxEnergy_(max_energy)
{
}

bool
EnergyDetector::isDrift(const std::vector<double> &logit_row) const
{
    NAZAR_SPAN("detect.energy.is_drift");
    static DriftCounters counters("detect.energy.samples",
                                  "detect.energy.flags");
    return counters.record(
        nn::energyScore(asRow(logit_row))[0] > maxEnergy_);
}

double
EnergyDetector::score(const std::vector<double> &logit_row) const
{
    return -nn::energyScore(asRow(logit_row))[0];
}

std::string
EnergyDetector::name() const
{
    return "energy@" + std::to_string(maxEnergy_);
}

} // namespace nazar::detect
