/**
 * @file
 * Implementation of the Nazar facade.
 */
#include "nazar.h"

#include "common/error.h"

namespace nazar::core {

Nazar::Nazar(NazarConfig config, nn::Classifier base)
    : config_(std::move(config)), base_(std::move(base)),
      scratch_(base_.clone()), cleanPatch_(base_.bnPatch()),
      detector_(config_.mspThreshold), rng_(config_.seed)
{
    cloud_ = std::make_unique<sim::Cloud>(config_.cloud, base_);
}

sim::Device &
Nazar::registerDevice(int id, const std::string &location)
{
    auto it = devices_.find(id);
    if (it != devices_.end())
        return it->second;
    auto [inserted, ok] = devices_.emplace(
        id, sim::Device(id, location, config_.poolCapacity));
    NAZAR_ASSERT(ok, "device insertion must succeed");
    return inserted->second;
}

sim::Device &
Nazar::device(int id)
{
    auto it = devices_.find(id);
    NAZAR_CHECK(it != devices_.end(),
                "device not registered: " + std::to_string(id));
    return it->second;
}

sim::InferenceOutcome
Nazar::infer(int device_id, const data::StreamEvent &event)
{
    sim::Device &dev = device(device_id);
    sim::InferenceOutcome out =
        dev.infer(event, scratch_, cleanPatch_, detector_);

    std::vector<persist::IngestRecord> batch(1);
    if (rng_.bernoulli(config_.uploadSampleRate))
        batch[0].upload = persist::UploadRecord{
            event.features, dev.contextFor(event), out.driftFlag};
    batch[0].device = -1; // in-process: no retransmissions to dedup
    batch[0].entry = dev.makeLogEntry(event, out);
    cloud_->ingestBatchFrom(std::move(batch));
    ++entriesSinceCycle_;

    if (config_.autopilotEveryEntries > 0 &&
        entriesSinceCycle_ >= config_.autopilotEveryEntries) {
        analyzeNow();
    }
    return out;
}

sim::CycleResult
Nazar::analyzeNow()
{
    sim::CycleResult cycle = cloud_->runCycle(cleanPatch_);
    entriesSinceCycle_ = 0;
    ++cycleCount_;

    for (const auto &cause : cycle.analysis.rootCauses) {
        emitAlert(Alert{Alert::Kind::kRootCauseFound,
                        "root cause found: " + cause.attrs.toString(),
                        cause.attrs});
    }
    if (cycle.newCleanPatch.has_value()) {
        cleanPatch_ = *cycle.newCleanPatch;
        emitAlert(Alert{Alert::Kind::kCleanRecalibrated,
                        "clean model recalibrated", {}});
    }
    for (const auto &version : cycle.newVersions) {
        for (auto &[id, dev] : devices_)
            dev.pool().install(version);
        emitAlert(Alert{Alert::Kind::kModelAdapted,
                        "deployed " + version.toString(), version.cause});
    }
    return cycle;
}

void
Nazar::emitAlert(const Alert &alert)
{
    if (alertHandler_)
        alertHandler_(alert);
}

} // namespace nazar::core
