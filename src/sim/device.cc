/**
 * @file
 * Implementation of the simulated device.
 */
#include "device.h"

#include <algorithm>

#include "data/apps.h"
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
    const data::StreamEvent *one[] = {&event};
    InferenceOutcome out;
    inferBatch(one, base, clean_patch, detector, &out);
    return out;
}

void
Device::inferBatch(std::span<const data::StreamEvent *const> events,
                   const nn::Classifier &base,
                   const nn::BnPatch &clean_patch,
                   const detect::MspDetector &detector,
                   InferenceOutcome *outcomes,
                   rca::AttributeSet *const *contexts) const
{
    static obs::Counter &inferences =
        obs::Registry::global().counter("sim.inferences");
    inferences.add(events.size());

    // One run per selected version, in order of first appearance; the
    // pool does not change while a window infers. An event's context
    // (and so its version) depends only on its weather, so each
    // weather's context is built and matched once. A device holds few
    // versions and sees few weathers, so linear scans find both.
    struct Run
    {
        const deploy::ModelVersion *version;
        std::vector<size_t> rows;
    };
    struct Choice
    {
        data::Weather weather;
        rca::AttributeSet context;
        size_t run;
    };
    std::vector<Run> runs;
    std::vector<Choice> choices;
    for (size_t i = 0; i < events.size(); ++i) {
        const data::Weather weather = events[i]->weather;
        auto choice = std::find_if(
            choices.begin(), choices.end(),
            [&](const Choice &c) { return c.weather == weather; });
        if (choice == choices.end()) {
            rca::AttributeSet context = contextFor(*events[i]);
            const deploy::ModelVersion *version =
                deploy::selectVersion(pool_, context);
            auto run = std::find_if(runs.begin(), runs.end(),
                                    [&](const Run &r) {
                                        return r.version == version;
                                    });
            if (run == runs.end())
                run = runs.insert(runs.end(), Run{version, {}});
            choice = choices.insert(
                choices.end(),
                Choice{weather, std::move(context),
                       static_cast<size_t>(run - runs.begin())});
        }
        runs[choice->run].rows.push_back(i);
        if (contexts != nullptr && contexts[i] != nullptr)
            *contexts[i] = choice->context;
    }

    for (const Run &run : runs) {
        nn::Matrix batch(run.rows.size(),
                         events[run.rows[0]]->features.size());
        for (size_t r = 0; r < run.rows.size(); ++r)
            batch.setRow(r, events[run.rows[r]]->features);
        nn::Matrix logits = base.infer(
            batch, run.version != nullptr ? run.version->patch
                                          : clean_patch);
        const detect::MspDetector::Decisions decided =
            detector.decide(logits);
        for (size_t r = 0; r < run.rows.size(); ++r) {
            InferenceOutcome &out = outcomes[run.rows[r]];
            out.predicted = static_cast<int>(logits.argmaxRow(r));
            out.msp = decided.msp[r];
            out.driftFlag = decided.drift[r];
            out.versionId = run.version != nullptr ? run.version->id : 0;
        }
    }
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
