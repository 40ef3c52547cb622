/**
 * @file
 * Implementation of the simulated device.
 */
#include "device.h"

#include "data/apps.h"
#include "nn/loss.h"
#include "obs/metrics.h"

namespace nazar::sim {

Device::Device(int id, std::string location_name, size_t pool_capacity)
    : id_(id), locationName_(std::move(location_name)),
      pool_(pool_capacity)
{
}

void
Device::noteVersionReceived(int64_t id)
{
    if (id > lastSeenVersion_)
        lastSeenVersion_ = id;
}

rca::AttributeSet
Device::contextFor(const data::StreamEvent &event) const
{
    using driftlog::columns::kDeviceId;
    using driftlog::columns::kDeviceModel;
    using driftlog::columns::kLocation;
    using driftlog::columns::kWeather;
    return rca::AttributeSet({
        {kWeather, driftlog::Value(data::toString(event.weather))},
        {kLocation, driftlog::Value(locationName_)},
        {kDeviceId, driftlog::Value(data::deviceName(id_))},
        {kDeviceModel, driftlog::Value(data::deviceModel(id_))},
    });
}

InferenceOutcome
Device::infer(const data::StreamEvent &event, const nn::Classifier &base,
              const nn::BnPatch &clean_patch,
              const detect::MspDetector &detector) const
{
    static obs::Counter &inferences =
        obs::Registry::global().counter("sim.inferences");
    inferences.add(1);
    const deploy::ModelVersion *version =
        deploy::selectVersion(pool_, contextFor(event));
    nn::Matrix logits =
        base.infer(nn::Matrix::rowVector(event.features),
                   version != nullptr ? version->patch : clean_patch);
    InferenceOutcome out;
    out.predicted = static_cast<int>(logits.argmaxRow(0));
    out.msp = nn::maxSoftmax(logits)[0];
    out.driftFlag = detector.isDrift(logits.rowVec(0));
    out.versionId = version ? version->id : 0;
    return out;
}

driftlog::DriftLogEntry
Device::makeLogEntry(const data::StreamEvent &event,
                     const InferenceOutcome &out) const
{
    driftlog::DriftLogEntry entry;
    entry.time = event.when;
    entry.deviceId = data::deviceName(id_);
    entry.deviceModel = data::deviceModel(id_);
    entry.location = locationName_;
    entry.weather = data::toString(event.weather);
    entry.modelVersion = out.versionId;
    entry.drift = out.driftFlag;
    return entry;
}

} // namespace nazar::sim
