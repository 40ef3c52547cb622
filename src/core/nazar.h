/**
 * @file
 * Nazar — the public facade of the system (paper §3.1).
 *
 * Bundles the full loop behind one object: on-device inference with
 * version selection and MSP drift detection, telemetry ingestion into
 * the cloud drift log, periodic (autopilot) or manual root-cause
 * analysis, by-cause adaptation, and deployment of the resulting model
 * versions back to every registered device.
 *
 * Typical use (see examples/quickstart.cc):
 *
 *   nn::Classifier base = ...train on clean data...;
 *   core::Nazar nazar(core::NazarConfig{}, std::move(base));
 *   nazar.registerDevice(0, "new_york");
 *   auto out = nazar.infer(0, event);       // detect + log, autopilot
 *   auto cycle = nazar.analyzeNow();        // or manual trigger
 */
#ifndef NAZAR_CORE_NAZAR_H
#define NAZAR_CORE_NAZAR_H

#include <functional>
#include <map>
#include <memory>

#include "sim/cloud.h"
#include "sim/device.h"

namespace nazar::core {

/** Operator-facing alert (paper §3.1: "optionally alerts the ML ops
 *  team"). */
struct Alert
{
    enum class Kind { kRootCauseFound, kModelAdapted, kCleanRecalibrated };

    Kind kind;
    std::string message;
    rca::AttributeSet cause; ///< Empty for clean-model alerts.
};

/** Alert callback type. */
using AlertHandler = std::function<void(const Alert &)>;

/** Top-level system configuration. */
struct NazarConfig
{
    sim::CloudConfig cloud;
    double mspThreshold = 0.9;      ///< On-device detector threshold.
    double uploadSampleRate = 0.25; ///< Fraction of inputs uploaded.
    size_t poolCapacity = 0;        ///< Device pool cap (0 = unbounded).

    /**
     * Autopilot: run an analysis cycle automatically after this many
     * ingested entries (0 disables; analysis is then manual via
     * analyzeNow()).
     */
    size_t autopilotEveryEntries = 0;

    uint64_t seed = 23;
};

/** The end-to-end monitoring-and-adaptation system. */
class Nazar
{
  public:
    /**
     * @param config Configuration.
     * @param base   The trained base (clean) model; Nazar takes
     *               ownership.
     */
    Nazar(NazarConfig config, nn::Classifier base);

    /** Register a device; returns it (idempotent per id). */
    sim::Device &registerDevice(int id, const std::string &location);

    /** Number of registered devices. */
    size_t deviceCount() const { return devices_.size(); }

    /** Access a registered device. */
    sim::Device &device(int id);

    /**
     * Run one on-device inference for a stream event: selects a model
     * version, predicts, detects drift, reports telemetry to the
     * cloud, and (when autopilot is enabled) may run an analysis
     * cycle.
     */
    sim::InferenceOutcome infer(int device_id,
                                const data::StreamEvent &event);

    /**
     * Manually trigger a full analysis + adaptation + deployment
     * cycle over everything ingested since the last cycle.
     */
    sim::CycleResult analyzeNow();

    /** Install an alert handler (invoked synchronously). */
    void onAlert(AlertHandler handler) { alertHandler_ = std::move(handler); }

    /** Current clean-model BN patch. */
    const nn::BnPatch &cleanPatch() const { return cleanPatch_; }

    /** The cloud component (drift log etc.). */
    const sim::Cloud &cloud() const { return *cloud_; }

    /** The base model. */
    const nn::Classifier &baseModel() const { return base_; }

    /** Total analysis cycles run so far. */
    size_t cycleCount() const { return cycleCount_; }

  private:
    void emitAlert(const Alert &alert);

    NazarConfig config_;
    nn::Classifier base_;
    nn::BnPatch cleanPatch_;
    std::unique_ptr<sim::Cloud> cloud_;
    std::map<int, sim::Device> devices_;
    detect::MspDetector detector_;
    Rng rng_;
    AlertHandler alertHandler_;
    size_t entriesSinceCycle_ = 0;
    size_t cycleCount_ = 0;
};

} // namespace nazar::core

#endif // NAZAR_CORE_NAZAR_H
