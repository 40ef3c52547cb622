#include "events.h"

#include <string>

namespace nbench {

namespace {

const char *const kModels[] = {"pixel-4", "galaxy-s10", "xperia-5",
                               "mi-9"};
const char *const kLocations[] = {"park",   "street", "indoor",
                                  "harbor", "forest", "rooftop"};
const char *const kWeather[] = {"sunny", "rain", "fog", "snow"};

} // namespace

EventSource::EventSource(uint64_t seed, int first_device, int devices)
    : rng_(seed), firstDevice_(first_device),
      seqs_(static_cast<size_t>(devices), 0)
{
}

nazar::net::WireIngest
EventSource::next()
{
    using nazar::driftlog::Value;
    const uint64_t e = produced_++;
    const size_t d = static_cast<size_t>(e % seqs_.size());
    nazar::net::WireIngest m;
    m.device = firstDevice_ + static_cast<int>(d);
    m.seq = ++seqs_[d];
    m.entry.time = nazar::SimDate(static_cast<int>((e / 512) % 112),
                                  static_cast<int>(rng_.index(86400)));
    m.entry.deviceId = "bench-device-" + std::to_string(m.device);
    m.entry.deviceModel = kModels[m.device % 4];
    m.entry.location = kLocations[rng_.index(6)];
    const size_t w = rng_.index(4);
    m.entry.weather = kWeather[w];
    m.entry.modelVersion = 1;
    // Bad weather is the planted drift cause; the rest is noise.
    m.entry.drift = rng_.bernoulli(w == 0 ? 0.1 : 0.6);
    if (e % kUploadEvery == 0) {
        nazar::persist::UploadRecord up;
        up.features.reserve(kFeatureDim);
        for (int f = 0; f < kFeatureDim; ++f)
            up.features.push_back(rng_.normal(0.0, 1.0));
        up.context = nazar::rca::AttributeSet(
            {{"location", Value(m.entry.location)},
             {"weather", Value(m.entry.weather)}});
        up.driftFlag = m.entry.drift;
        m.upload = std::move(up);
    }
    return m;
}

nazar::sim::IngestMessage
toMessage(const nazar::net::WireIngest &m)
{
    nazar::sim::IngestMessage out;
    out.device = static_cast<int>(m.device);
    out.seq = m.seq;
    out.entry = m.entry;
    if (m.upload.has_value())
        out.upload = nazar::sim::Upload{m.upload->features,
                                        m.upload->context,
                                        m.upload->driftFlag};
    return out;
}

} // namespace nbench
