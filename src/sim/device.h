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

#include <span>
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
     * knows at inference time), matching drift-log column names. Of
     * the event it reads only the weather.
     */
    rca::AttributeSet contextFor(const data::StreamEvent &event) const;

    /**
     * Run one inference: the one-event case of inferBatch.
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

    /**
     * Run a batch of this device's inferences. Each event gets its
     * context and selected version once; events are grouped by
     * selected version (in order of first appearance), and each group
     * runs one `base.infer` under that version's patch and one
     * softmax pass. Row r of a batch is bit-identical to a one-row
     * call, so every outcome equals the one-event infer's. Nothing is
     * written to @p base, so every device (and thread) shares one base
     * model.
     *
     * @param events      The events, each owned by this device.
     * @param outcomes    Receives events.size() outcomes, in order.
     * @param contexts    When non-null, event i's context (contextFor)
     *                    is copied to *contexts[i] wherever that
     *                    pointer is non-null: an upload reuses the
     *                    context its version was selected with.
     */
    void inferBatch(std::span<const data::StreamEvent *const> events,
                    const nn::Classifier &base,
                    const nn::BnPatch &clean_patch,
                    const detect::MspDetector &detector,
                    InferenceOutcome *outcomes,
                    rca::AttributeSet *const *contexts = nullptr) const;

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
