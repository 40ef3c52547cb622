/**
 * @file
 * Seeded synthetic device telemetry shared by the ingest and restart
 * workloads: drift-log rows over a small fleet with a sampled-input
 * upload on every 4th event.
 */
#ifndef NAZARBENCH_EVENTS_H
#define NAZARBENCH_EVENTS_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "net/wire.h"
#include "sim/cloud.h"

namespace nbench {

/** Deterministic event source for one client or one writer. */
class EventSource
{
  public:
    /**
     * @param seed        Draws location, weather, drift and features.
     * @param first_device Devices are first_device .. +devices-1.
     */
    EventSource(uint64_t seed, int first_device, int devices);

    /** Next event; per-device seqs start at 1 and are monotone. */
    nazar::net::WireIngest next();

    /** Events produced so far. */
    uint64_t produced() const { return produced_; }

  private:
    nazar::Rng rng_;
    int firstDevice_;
    std::vector<uint64_t> seqs_;
    uint64_t produced_ = 0;
};

/** Every Nth event carries a sampled-input upload. */
inline constexpr int kUploadEvery = 4;
/** Feature width of an upload (the Cityscapes domain's). */
inline constexpr int kFeatureDim = 32;

/** The same attempt as the cloud's in-process batch message. */
nazar::sim::IngestMessage toMessage(const nazar::net::WireIngest &m);

} // namespace nbench

#endif // NAZARBENCH_EVENTS_H
