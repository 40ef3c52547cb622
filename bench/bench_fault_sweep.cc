/**
 * @file
 * Fault-sweep benchmark: end-to-end Nazar accuracy under an
 * increasingly unreliable device↔cloud channel, reported as JSON.
 * Seeds BENCH_fault_sweep.json.
 *
 * Drop rate sweeps {0, 0.05, 0.1, 0.25, 0.5}; the remaining fault
 * knobs are derived from it so one number describes how hostile the
 * network is. The headline claim: accuracy under drift degrades
 * *smoothly* as loss rises — retries, dedup and
 * adapt-on-what-arrived avoid a cliff — and every faulted point keeps
 * completing all windows over the identical event stream.
 *
 * Usage: bench_fault_sweep [--quick] [--metrics-out=<path>]
 *   --quick shrinks the workload (CI smoke run).
 */
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.h"
#include "net/fault.h"
#include "obs/metrics.h"

namespace {

using namespace nazar;

/** All fault knobs derived from a single headline drop rate. */
net::FaultConfig
faultsAt(double drop)
{
    net::FaultConfig f;
    f.dropProb = drop;
    f.dupProb = std::min(0.2, drop / 2.0);
    f.delayProb = drop / 2.0;
    f.pushDropProb = drop / 2.0;
    f.offlineProb = drop / 4.0;
    f.crashProb = drop / 8.0;
    f.queueCapacity = 64;
    f.seed = 0xfa0175ULL;
    return f;
}

struct Row
{
    double drop;
    double accAll;
    double accDrifted;
    size_t staleDeviceWindows;
    size_t skippedCauses;
    uint64_t retries;
    uint64_t dedupHits;
    uint64_t shed;
    uint64_t crashLost;
    uint64_t gaveUp;
    uint64_t pushDropped;
};

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
    bench::MetricsExport metrics(argc, argv);
    bench::QuietLogs quiet;
    setLogLevel(LogLevel::kSilent);

    data::AppSpec app = data::makeAnimalsApp(13, 8);
    data::WeatherModel weather(app.locations, 21, 2020);

    sim::RunnerConfig config;
    config.arch = nn::Architecture::kResNet18;
    config.strategy = sim::Strategy::kNazar;
    config.windows = quick ? 3 : 5;
    config.workload.days = 21;
    config.workload.devicesPerLocation = quick ? 3 : 6;
    config.workload.imagesPerDevicePerDay = quick ? 3.0 : 6.0;
    config.train.epochs = 20;
    config.cloud.minAdaptSamples = 16;
    config.uploadSampleRate = 0.5;
    config.seed = 17;

    // One shared pretrained base: every sweep point sees the same
    // model and the same event stream; only the channel differs.
    nn::Classifier base =
        bench::trainBase(app, config.arch, config.seed,
                         config.train.epochs);

    const std::vector<double> drops = {0.0, 0.05, 0.1, 0.25, 0.5};
    std::vector<Row> rows;
    auto &registry = obs::Registry::global();
    for (double drop : drops) {
        registry.reset(); // per-point counters
        config.faults = faultsAt(drop);
        sim::RunResult result =
            sim::Runner(app, weather, config, &base).run();
        Row row;
        row.drop = drop;
        row.accAll = result.avgAccuracyAll(0);
        row.accDrifted = result.avgAccuracyDrifted(0);
        row.staleDeviceWindows = 0;
        row.skippedCauses = 0;
        for (const auto &w : result.windows) {
            row.staleDeviceWindows += w.staleDevices;
            row.skippedCauses += w.skippedCauses;
        }
        row.retries = registry.counter("net.retries").value();
        row.dedupHits = registry.counter("net.dedup_hits").value();
        row.shed = registry.counter("net.shed").value();
        row.crashLost = registry.counter("net.crash_lost").value();
        row.gaveUp = registry.counter("net.gave_up").value();
        row.pushDropped = registry.counter("net.push_dropped").value();
        rows.push_back(row);
    }

    std::printf("{\n");
    std::printf("  \"bench\": \"fault_sweep\",\n");
    std::printf("  \"quick\": %s,\n", quick ? "true" : "false");
    std::printf("  %s,\n", bench::hostMetaJson().c_str());
    std::printf("  \"windows\": %d,\n", config.windows);
    std::printf("  \"results\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::printf(
            "    {\"drop\": %.2f, \"avgAccuracyAll\": %.4f, "
            "\"avgAccuracyDrifted\": %.4f, \"staleDeviceWindows\": %zu, "
            "\"skippedCauses\": %zu, "
            "\"retries\": %llu, \"dedupHits\": %llu, \"shed\": %llu, "
            "\"crashLost\": %llu, "
            "\"gaveUp\": %llu, \"pushDropped\": %llu}%s\n",
            r.drop, r.accAll, r.accDrifted, r.staleDeviceWindows,
            r.skippedCauses,
            static_cast<unsigned long long>(r.retries),
            static_cast<unsigned long long>(r.dedupHits),
            static_cast<unsigned long long>(r.shed),
            static_cast<unsigned long long>(r.crashLost),
            static_cast<unsigned long long>(r.gaveUp),
            static_cast<unsigned long long>(r.pushDropped),
            i + 1 < rows.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
    return 0;
}
