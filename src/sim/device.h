/**
 * @file
 * Simulated mobile device (paper §3.1-§3.2, §3.4 device side).
 *
 * A device holds a pool of deployed BN-patch model versions, runs
 * inference with on-device version selection, applies the lightweight
 * MSP drift detector to every inference, and emits drift-log entries
 * (plus sampled raw inputs) to the cloud.
 */
#ifndef NAZAR_SIM_DEVICE_H
#define NAZAR_SIM_DEVICE_H

#include <string>

#include "data/stream.h"
#include "deploy/matcher.h"
#include "deploy/model_pool.h"
#include "detect/scores.h"
#include "driftlog/drift_log.h"
#include "nn/classifier.h"

namespace nazar::sim {

/** Outcome of one on-device inference. */
struct InferenceOutcome
{
    int predicted = -1;      ///< Predicted class.
    double msp = 0.0;        ///< Confidence score of the prediction.
    bool driftFlag = false;  ///< On-device detector verdict.
    int64_t versionId = 0;   ///< Model version used (0 == clean).
};

/** One simulated device. */
class Device
{
  public:
    /**
     * @param id            Global device id.
     * @param location_name Name of the device's location.
     * @param pool_capacity Model-pool capacity (0 = unbounded).
     */
    Device(int id, std::string location_name, size_t pool_capacity);

    int id() const { return id_; }
    const std::string &locationName() const { return locationName_; }

    /** The device's model pool (receives pushed versions). */
    deploy::ModelPool &pool() { return pool_; }
    const deploy::ModelPool &pool() const { return pool_; }

    /**
     * Record that a pushed version reached this device. A device that
     * misses a push (offline epoch, downlink drop) keeps serving its
     * newest held patch — the matcher falls back to the clean model
     * when nothing held matches — and reports as stale until a later
     * push lands.
     */
    void noteVersionReceived(int64_t id);

    /** Newest version id ever pushed successfully to this device. */
    int64_t lastSeenVersion() const { return lastSeenVersion_; }

    /** True when this device missed at least one newer push. */
    bool
    staleAgainst(int64_t latest_published) const
    {
        return lastSeenVersion_ < latest_published;
    }

    /**
     * Current context attributes for an input (metadata the device
     * knows at inference time), matching drift-log column names.
     */
    rca::AttributeSet contextFor(const data::StreamEvent &event) const;

    /**
     * Run one inference: select a version, run the base model under its
     * patch, and run drift detection. Nothing is written to @p base, so
     * every device (and thread) shares one base model.
     *
     * @param event       The arriving input.
     * @param base        The frozen base model (weights shared by every
     *                    version).
     * @param clean_patch BN patch of the current clean model, used when
     *                    no held version matches.
     * @param detector    The on-device MSP detector.
     */
    InferenceOutcome infer(const data::StreamEvent &event,
                           const nn::Classifier &base,
                           const nn::BnPatch &clean_patch,
                           const detect::MspDetector &detector) const;

    /** Build the drift-log entry for an inference. */
    driftlog::DriftLogEntry makeLogEntry(const data::StreamEvent &event,
                                         const InferenceOutcome &out) const;

  private:
    int id_;
    std::string locationName_;
    deploy::ModelPool pool_;
    int64_t lastSeenVersion_ = 0;
};

} // namespace nazar::sim

#endif // NAZAR_SIM_DEVICE_H
