/**
 * @file
 * fleet: the whole Nazar loop through sim::Runner::run — device
 * inference, MSP detection, drift-log ingest, RCA, TENT adaptation and
 * version deployment — on the Cityscapes app with the paper-default
 * ResNet50, an in-process cloud, persistence and faults off, and the
 * runtime pool pinned to two threads.
 *
 * The application and its pretrained base model are fixed, as they
 * are for a deployed system; set-up trains the base and hands it to
 * every run as `pretrained`. The seed picks kVariants deployment
 * streams (device arrivals, weather and corruption draws, upload
 * sampling). How much RCA and adaptation a deployment does depends on
 * its stream, so the timed phase cycles through all the variants in
 * whole passes and every metric covers each of them equally; each
 * variant's per-window digest must repeat exactly on every pass.
 */
#include <algorithm>
#include <memory>

#include "bench_common.h"
#include "data/apps.h"
#include "data/weather.h"
#include "nn/classifier.h"
#include "runtime/thread_pool.h"
#include "sim/runner.h"

namespace nbench {

namespace {

using namespace nazar;

constexpr int kThreads = 2;
/** Set-ups (base-model training, ~0.8 s each) spread across the timed
 *  phase. */
constexpr int kSetupReps = 5;
constexpr int kVariants = 8;       ///< Deployment streams per seed.
constexpr int kDays = 28;          ///< Deployment period (8 windows).
constexpr int kTrainEpochs = 6;    ///< Base-model training in set-up.
constexpr uint64_t kBaseSeed = 5;  ///< The deployed base model's seed.
/** Nominal length of a pass with its share of the set-ups. The pass
 *  count follows from --seconds and this alone, not from how fast
 *  passes run, so every run does the same work on any host. */
constexpr double kPassSeconds = 3.5;

int
passCount(double seconds)
{
    return std::max(2, static_cast<int>(seconds / kPassSeconds + 0.5));
}

/** Everything a deployment needs; built by set-up. */
struct Fleet
{
    explicit Fleet(data::AppSpec a) : app(std::move(a)) {}

    data::AppSpec app;
    std::unique_ptr<data::WeatherModel> weather;
    std::unique_ptr<nn::Classifier> base;
    std::vector<sim::RunnerConfig> variants;
};

std::unique_ptr<Fleet>
setUp(const Options &opts, double &train_s)
{
    auto fleet = std::make_unique<Fleet>(data::makeCityscapesApp());
    const int days = opts.tiny ? 8 : kDays;
    fleet->weather = std::make_unique<data::WeatherModel>(
        fleet->app.locations, days, 2020);

    sim::RunnerConfig config;
    config.arch = nn::Architecture::kResNet50;
    config.strategy = sim::Strategy::kNazar;
    config.windows = 8;
    config.workload.days = days;
    config.train.epochs = opts.tiny ? 1 : kTrainEpochs;
    for (int v = 0; v < (opts.tiny ? 2 : kVariants); ++v) {
        config.workload.seed = deriveSeed(opts.seed, 100 + v);
        config.seed = deriveSeed(opts.seed, 200 + v);
        fleet->variants.push_back(config);
    }

    Rng rng(kBaseSeed);
    data::Dataset train = fleet->app.domain.makeBalancedDataset(
        opts.tiny ? 20 : fleet->app.trainPerClass, rng);
    fleet->base = std::make_unique<nn::Classifier>(
        config.arch, fleet->app.domain.featureDim(),
        fleet->app.domain.numClasses(), kBaseSeed);
    auto t0 = Clock::now();
    fleet->base->trainSupervised(train.x, train.labels, config.train);
    train_s = msSince(t0) / 1e3;
    return fleet;
}

/** One deployment's observations. */
struct Deployment
{
    double wallMs = 0.0;
    size_t events = 0;
    double cycleMeanMs = 0.0; ///< sim.cloud.cycle sum/count.
    uint64_t digest = 0;      ///< Per-window RunResult digest.
    sim::RunResult result;
};

Deployment
deploy(const Fleet &fleet, size_t variant)
{
    Deployment d;
    ObsView before;
    auto t0 = Clock::now();
    sim::Runner runner(fleet.app, *fleet.weather, fleet.variants[variant],
                       fleet.base.get());
    d.result = runner.run();
    d.wallMs = msSince(t0);
    ObsView after;
    uint64_t cycles = after.spanCount("sim.cloud.cycle") -
                      before.spanCount("sim.cloud.cycle");
    double cycle_ms = after.spanMs("sim.cloud.cycle") -
                      before.spanMs("sim.cloud.cycle");
    d.cycleMeanMs = cycles ? cycle_ms / static_cast<double>(cycles) : 0.0;
    Digest digest;
    for (const auto &w : d.result.windows) {
        d.events += w.events;
        for (uint64_t v : {uint64_t(w.events), uint64_t(w.correctAll),
                           uint64_t(w.flagged), uint64_t(w.rootCauses),
                           uint64_t(w.newVersions)})
            digest.u64(v);
    }
    d.digest = digest.value();
    return d;
}

/**
 * @p count whole passes over the variants, calling @p between before
 * each deployment (it may replace @p fleet). The first run of a
 * variant fixes its digest in @p digests; every later run, on any
 * set-up, must reproduce it.
 */
template <typename Between>
std::vector<Deployment>
passes(const std::unique_ptr<Fleet> &fleet, int count,
       std::vector<uint64_t> &digests, Report &report, Between between)
{
    std::vector<Deployment> out;
    const size_t nv = fleet->variants.size();
    digests.resize(nv, 0);
    for (int pass = 0; pass < count; ++pass) {
        for (size_t v = 0; v < nv; ++v) {
            between();
            out.push_back(deploy(*fleet, v));
            const Deployment &d = out.back();
            report.attempted(1);
            if (digests[v] == 0)
                digests[v] = d.digest;
            report.check(d.digest == digests[v],
                         "fleet: deployment digest differs between runs");
            report.check(d.cycleMeanMs > 0.0 && d.events > 0,
                         "fleet: deployment ran no cycle or no event");
        }
    }
    return out;
}

/** Inference events per second of Runner::run wall, over whole passes
 *  (so every stream weighs the same). */
double
throughput(const std::vector<Deployment> &ds)
{
    double events = 0.0, ms = 0.0;
    for (const auto &d : ds) {
        events += static_cast<double>(d.events);
        ms += d.wallMs;
    }
    return events / (ms / 1e3);
}

std::vector<double>
cycleMeans(const std::vector<Deployment> &ds)
{
    std::vector<double> out;
    for (const auto &d : ds)
        out.push_back(d.cycleMeanMs);
    return out;
}

} // namespace

void
runFleet(const Options &opts, Report &report)
{
    runtime::setThreads(kThreads);
    report.info("host", hostJson(opts, kThreads, 0, ""));

    // The traced run sets up once.
    SetupSchedule setups(opts.trace ? 0 : kSetupReps);
    std::unique_ptr<Fleet> fleet;
    double train_s = 0.0;
    auto build = [&] { fleet = setUp(opts, train_s); };
    setups.time(build);

    // Warm-up: one deployment fills caches and the allocator.
    std::vector<uint64_t> digests;
    deploy(*fleet, 0);

    // Between two deployments, the fleet is set up anew on the schedule.
    auto between = [&] {
        if (setups.due())
            setups.time(build);
    };
    setups.start(opts.seconds);
    if (!opts.trace) {
        std::vector<Deployment> ds =
            passes(fleet, passCount(opts.seconds), digests, report, between);
        std::vector<double> cycle = cycleMeans(ds);
        std::vector<double> wall;
        for (const auto &d : ds)
            wall.push_back(d.wallMs);
        report.info("deployment_ms", sampleSummary(wall));
        report.info("cycle_mean_ms", sampleSummary(cycle));
        report.metric("throughput_per_s", throughput(ds), "1/s");
        report.metric("latency_p50_ms", median(cycle), "ms");
        report.info("setup_s", sampleSummary(setups.times()));
        report.metric("setup_s", median(setups.times()), "s");
        report.metric("peak_rss_mb", peakRssMb(), "MiB");
        return;
    }

    // Traced invocation: untraced passes for the overhead baseline,
    // then one traced pass whose registry totals and trace give the
    // layers (one pass keeps the trace rings from dropping events).
    // Both must reproduce the same per-variant digests: tracing on is
    // bit-identical to tracing off.
    std::vector<Deployment> plain =
        passes(fleet, passCount(opts.seconds / 2), digests, report, between);
    resetObs();
    obs::setTraceCapacity(1 << 19);
    obs::setThreadName("main");
    obs::setTracing(true);
    std::vector<Deployment> traced =
        passes(fleet, 1, digests, report, between);
    obs::setTracing(false);

    const double n = static_cast<double>(traced.size());
    ObsView v;
    double unattributed =
        uncoveredMs(obs::traceEvents(), "sim.window",
                    {"nn.forward", "detect.msp.is_drift", "sim.cloud.cycle"});
    double window = v.spanMs("sim.window");
    uint64_t chunks = v.counter("runtime.chunks.inline") +
                      v.counter("runtime.chunks.caller") +
                      v.counter("runtime.chunks.worker");
    uint64_t samples = v.counter("detect.msp.samples");
    double versions = 0.0, pool = 0.0;
    for (const auto &d : traced) {
        for (const auto &w : d.result.windows)
            versions += static_cast<double>(w.newVersions);
        pool += static_cast<double>(d.result.windows.back().poolSize);
    }
    std::map<std::string, double> m = {
        {"nn.train_s", train_s},
        {"nn.forward_ms", v.spanMs("nn.forward") / n},
        {"nn.matmul_ms", v.spanMs("nn.matmul") / n},
        {"nn.forward_rows", v.counter("nn.forward.rows") / n},
        {"nn.backward_ms", v.spanMs("nn.backward") / n},
        {"detect.msp_ms", v.spanMs("detect.msp.is_drift") / n},
        {"detect.flag_rate",
         samples ? double(v.counter("detect.msp.flags")) / samples : 0.0},
        {"sim.window_ms", window / n},
        {"sim.unattributed_ms", unattributed / n},
        {"sim.ingest_rows", v.counter("sim.ingest.rows") / n},
        {"rca.cycle_ms", v.spanMs("sim.cloud.rca") / n},
        {"rca.fim.level1_ms", v.spanMs("rca.fim.level1") / n},
        {"rca.fim.levelk_ms", v.spanMs("rca.fim.levelk") / n},
        {"rca.walk_ms", v.spanMs("rca.walk") / n},
        {"rca.metrics_ms", v.spanMs("rca.metrics") / n},
        {"rca.unattributed_ms",
         (v.spanMs("rca.analyze") - v.spanMs("rca.fim.level1") -
          v.spanMs("rca.fim.levelk") - v.spanMs("rca.walk")) /
             n},
        {"rca.causes_accepted", v.counter("rca.causes_accepted") / n},
        {"adapt.cycle_ms", v.spanMs("sim.cloud.adapt") / n},
        {"adapt.skipped_causes",
         v.counter("sim.cloud.adapt.skipped_causes") / n},
        {"deploy.versions_published", versions / n},
        {"deploy.pool_size", pool / n},
        {"runtime.batches", v.counter("runtime.batches") / n},
        {"runtime.batch_ms", v.spanMs("runtime.batch.seconds") / n},
        {"runtime.inline_chunk_share",
         chunks ? double(v.counter("runtime.chunks.inline")) / chunks
                : 0.0},
        {"obs.trace_overhead_share",
         throughput(plain) / throughput(traced) - 1.0},
        {"obs.trace_dropped", double(obs::traceDropped())},
    };
    report.info("traced_deployments", std::to_string(traced.size()));
    reportLayers(report, m);
    writeTrace(report, opts);
}

} // namespace nbench
