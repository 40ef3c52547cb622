#include "server/load_gen.h"

#include <algorithm>
#include <chrono>
#include <latch>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "common/sim_date.h"
#include "net/ingest_client.h"
#include "obs/span.h"

namespace nazar::server {

namespace {

using Clock = std::chrono::steady_clock;

const char *const kModels[] = {"pixel-4", "galaxy-s10", "xperia-5",
                               "mi-9"};
const char *const kLocations[] = {"park",   "street", "indoor",
                                  "harbor", "forest", "rooftop"};
const char *const kWeather[] = {"sunny", "rain", "fog", "snow"};

/** Deterministic synthetic event e for client c — no RNG, so the
 *  stream is identical run to run regardless of chaos draws. */
net::WireIngest
syntheticEvent(const LoadConfig &config, int client, int e)
{
    net::WireIngest m;
    m.device = 1000 + client;
    m.seq = static_cast<uint64_t>(e) + 1;
    m.entry.time = SimDate(e / 288, (e % 288) * 300);
    m.entry.deviceId = "load-device-" + std::to_string(client);
    m.entry.deviceModel = kModels[(client + e / 97) % 4];
    m.entry.location = kLocations[(e / 13) % 6];
    m.entry.weather = kWeather[(e / 29) % 4];
    m.entry.modelVersion = 1;
    m.entry.drift = (e % 7) == 0;
    if (config.uploadEvery > 0 && e % config.uploadEvery == 0) {
        persist::UploadRecord up;
        up.features.reserve(config.featureDim);
        for (int f = 0; f < config.featureDim; ++f)
            up.features.push_back(0.01 * ((client * 31 + e * 7 + f) %
                                          211));
        up.context = rca::AttributeSet(
            {{"location", driftlog::Value(m.entry.location)},
             {"weather", driftlog::Value(m.entry.weather)}});
        up.driftFlag = m.entry.drift;
        m.upload = std::move(up);
    }
    return m;
}

struct ClientOutcome
{
    net::ClientStats stats;
    std::vector<double> latenciesMs;
    uint64_t dictStrings = 0;
    uint64_t dictHits = 0;
    bool reconciled = false;
    std::string error;
};

void
driveClient(const LoadConfig &config, int index, std::latch &connected,
            ClientOutcome &out)
{
    obs::setThreadName("load.client." + std::to_string(index));
    bool arrived = false;
    try {
        net::FaultConfig chaos = config.chaos;
        chaos.seed = config.chaos.seed + static_cast<uint64_t>(index);
        net::IngestClient client(config.port, chaos,
                                 "load-" + std::to_string(index),
                                 config.reconnect);
        // No client sends before every client has finished its
        // handshake, so anything that happens to the server under
        // load (a crash, a restart) meets a full set of sessions.
        arrived = true;
        connected.arrive_and_wait();
        std::unordered_map<uint64_t, Clock::time_point> inFlight;
        client.setAckObserver([&](const net::WireAck &ack) {
            auto it = inFlight.find(ack.seq);
            if (it == inFlight.end())
                return; // the chaos duplicate's second ack
            out.latenciesMs.push_back(
                std::chrono::duration<double, std::milli>(
                    Clock::now() - it->second)
                    .count());
            inFlight.erase(it);
        });
        for (int e = 0; e < config.eventsPerClient; ++e) {
            net::WireIngest m = syntheticEvent(config, index, e);
            uint64_t seq = m.seq;
            auto t0 = Clock::now();
            if (client.sendIngest(m))
                inFlight.emplace(seq, t0);
        }
        net::WireByeAck bye = client.bye();
        (void)bye;
        out.stats = client.stats();
        out.dictStrings = client.dictStrings();
        out.dictHits = client.dictHits();
        out.reconciled =
            out.stats.acksAccepted == out.stats.sent &&
            out.stats.acksRejected == out.stats.duplicates;
    } catch (const NazarError &e) {
        if (!arrived) // a client that never connects must not hold
            connected.count_down(); // the others at the start line
        out.error = e.what();
        out.reconciled = false;
    }
}

} // namespace

LoadStats
runLoad(const LoadConfig &config)
{
    NAZAR_CHECK(config.clients >= 1, "load gen: need >= 1 client");
    std::vector<ClientOutcome> outcomes(config.clients);
    std::latch connected(config.clients);
    auto t0 = Clock::now();
    std::vector<std::thread> threads;
    threads.reserve(config.clients);
    for (int c = 0; c < config.clients; ++c)
        threads.emplace_back([&config, &connected, &outcomes, c] {
            driveClient(config, c, connected, outcomes[c]);
        });
    for (auto &t : threads)
        t.join();
    auto t1 = Clock::now();

    LoadStats total;
    std::vector<double> latencies;
    total.reconciled = true;
    for (const auto &out : outcomes) {
        if (!out.error.empty())
            throw NazarError("load gen client failed: " + out.error);
        total.sent += out.stats.sent;
        total.gaveUp += out.stats.gaveUp;
        total.retries += out.stats.retries;
        total.duplicates += out.stats.duplicates;
        total.acksAccepted += out.stats.acksAccepted;
        total.acksRejected += out.stats.acksRejected;
        total.dictStrings += out.dictStrings;
        total.dictHits += out.dictHits;
        total.reconnects += out.stats.reconnects;
        total.resent += out.stats.resent;
        total.resumedLanded += out.stats.resumedLanded;
        total.busySeen += out.stats.busySeen;
        total.reconciled = total.reconciled && out.reconciled;
        latencies.insert(latencies.end(), out.latenciesMs.begin(),
                         out.latenciesMs.end());
    }
    total.seconds = std::chrono::duration<double>(t1 - t0).count();
    if (total.seconds > 0.0)
        total.eventsPerSec =
            static_cast<double>(total.acksAccepted) / total.seconds;
    if (!latencies.empty()) {
        std::sort(latencies.begin(), latencies.end());
        auto pct = [&](double p) {
            size_t i = static_cast<size_t>(p * (latencies.size() - 1));
            return latencies[i];
        };
        total.p50Ms = pct(0.50);
        total.p99Ms = pct(0.99);
    }
    // Per-stage breakdown from the obs histograms the server's reader
    // and committer recorded into. Empty when the server is in another
    // process (its histograms are not in our registry).
    obs::Snapshot snap = obs::Registry::global().snapshot();
    for (const std::string &name : ingestStageNames()) {
        auto it = snap.histograms.find(name);
        if (it == snap.histograms.end() || it->second.count == 0)
            continue;
        StageStat stage;
        stage.name = name;
        stage.count = it->second.count;
        stage.p50Ms = it->second.quantile(0.50) * 1e3;
        stage.p99Ms = it->second.quantile(0.99) * 1e3;
        stage.meanMs = it->second.mean() * 1e3;
        total.stages.push_back(std::move(stage));
    }
    return total;
}

const std::vector<std::string> &
ingestStageNames()
{
    static const std::vector<std::string> names = {
        "server.read.decode", "server.queue_wait", "server.encode",
        "persist.wal.sync",   "server.ack",
    };
    return names;
}

} // namespace nazar::server
