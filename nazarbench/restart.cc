/**
 * @file
 * restart: a server restart, timed. Set-up writes a state dir the way
 * a running cloud does — a seeded ingestBatchFrom stream with periodic
 * runCycle, a full+delta snapshot chain (fullEvery = 8) and a live WAL
 * tail — and the timed phase rebuilds sim::Cloud from that dir again
 * and again: snapshot-chain and WAL decode, then the drift-log, upload
 * and dedup state rebuilt in memory. No network, no nn forward pass and
 * no runtime pool run in the timed phase.
 */
#include <filesystem>
#include <sstream>

#include "bench_common.h"
#include "data/apps.h"
#include "driftlog/csv.h"
#include "events.h"
#include "nn/classifier.h"
#include "persist/cloud_persist.h"
#include "runtime/thread_pool.h"
#include "sim/cloud.h"

namespace nbench {

namespace {

using namespace nazar;
namespace fs = std::filesystem;

/** Set-ups (state-dir writes, ~0.5 s each) spread across the timed
 *  phase. */
constexpr int kSetupReps = 8;
constexpr size_t kBatch = 256;

/** Sizes of the state the dir holds. */
struct Shape
{
    size_t events;       ///< Ingest attempts written.
    size_t cycleEvery;   ///< runCycle after this many events.
    uint64_t snapEvery;  ///< WAL appends between snapshots.
    int devices;
};

/** What the writing cloud held when it closed; a rebuild must match. */
struct Expect
{
    size_t totalIngested = 0;
    size_t uploads = 0;
    size_t pendingRows = 0;
    int64_t logicalTime = 0;
    int64_t nextVersionId = 0;
    uint64_t csvDigest = 0;

    bool operator==(const Expect &) const = default;
};

/** Digest of the drift log's CSV rows, sorted (order-free equality). */
uint64_t
csvDigest(const sim::Cloud &cloud)
{
    std::ostringstream os;
    driftlog::writeCsv(cloud.driftLog().table(), os);
    std::vector<std::string> lines;
    std::istringstream is(os.str());
    for (std::string line; std::getline(is, line);)
        lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    Digest d;
    for (const auto &line : lines)
        d.str(line + "\n");
    return d.value();
}

Expect
expectOf(const sim::Cloud &cloud, bool with_csv)
{
    Expect e;
    e.totalIngested = cloud.totalIngested();
    e.uploads = cloud.uploadCount();
    e.pendingRows = cloud.driftLogSize();
    e.logicalTime = cloud.logicalTime();
    e.nextVersionId = cloud.nextVersionId();
    e.csvDigest = with_csv ? csvDigest(cloud) : 0;
    return e;
}

sim::CloudConfig
cloudConfig(const std::string &dir, const Shape &shape)
{
    sim::CloudConfig config;
    config.persist.dir = dir;
    config.persist.snapshotEvery = shape.snapEvery;
    config.persist.fullEvery = 8;
    config.persist.sync = persist::SyncMode::kFlush;
    return config;
}

/** Write the state dir from scratch; returns what it holds. */
Expect
writeStateDir(const std::string &dir, const Shape &shape,
              const nn::Classifier &base, uint64_t seed)
{
    fs::remove_all(dir);
    sim::Cloud cloud(cloudConfig(dir, shape), base);
    EventSource source(seed, 0, shape.devices);
    nn::BnPatch clean = base.bnPatch();
    size_t since_cycle = 0;
    while (source.produced() < shape.events) {
        std::vector<sim::IngestMessage> batch;
        while (batch.size() < kBatch && source.produced() < shape.events)
            batch.push_back(toMessage(source.next()));
        since_cycle += batch.size();
        cloud.ingestBatchFrom(std::move(batch));
        if (since_cycle >= shape.cycleEvery) {
            sim::CycleResult cycle = cloud.runCycle(clean);
            if (cycle.newCleanPatch.has_value())
                clean = *cycle.newCleanPatch;
            since_cycle = 0;
        }
    }
    return expectOf(cloud, true);
}

size_t
chainFiles(const std::string &dir)
{
    size_t n = 0;
    for (const auto &entry : fs::directory_iterator(dir))
        n += entry.path().filename().string().rfind("snap-", 0) == 0;
    return n;
}

/**
 * Rebuild until @p seconds have passed (at least 3 rebuilds), calling
 * @p between before each rebuild.
 */
template <typename Between>
std::vector<double>
repeat(const sim::CloudConfig &config, const nn::Classifier &base,
       const Expect &expect, double seconds, Report &report,
       Between between, std::vector<double> *recover_ms = nullptr)
{
    std::vector<double> ms;
    auto start = Clock::now();
    while (ms.size() < 3 || msSince(start) < seconds * 1e3) {
        between();
        ObsView before;
        auto t0 = Clock::now();
        auto cloud = std::make_unique<sim::Cloud>(config, base);
        ms.push_back(msSince(t0));
        if (recover_ms != nullptr) {
            ObsView after;
            recover_ms->push_back(after.spanMs("persist.recover") -
                                  before.spanMs("persist.recover"));
        }
        report.attempted(1);
        // The CSV digest is the costly check: every 16th rebuild.
        bool full = ms.size() % 16 == 1;
        Expect got = expectOf(*cloud, full);
        if (!full)
            got.csvDigest = expect.csvDigest;
        report.check(got.totalIngested == expect.totalIngested &&
                         got.uploads == expect.uploads &&
                         got.pendingRows == expect.pendingRows &&
                         got.logicalTime == expect.logicalTime &&
                         got.nextVersionId == expect.nextVersionId &&
                         got.csvDigest == expect.csvDigest,
                     "restart: rebuilt cloud differs from the writer");
    }
    return ms;
}

} // namespace

void
runRestart(const Options &opts, Report &report)
{
    runtime::setThreads(1);
    const std::string dir = opts.workDir + "/restart-state";
    const Shape shape = opts.tiny ? Shape{3000, 1024, 256, 8}
                                  : Shape{22000, 4096, 1024, 32};

    data::AppSpec app = data::makeCityscapesApp(deriveSeed(opts.seed, 1));
    nn::Classifier base(nn::Architecture::kResNet18,
                        app.domain.featureDim(), app.domain.numClasses(),
                        deriveSeed(opts.seed, 2));

    // The traced run sets up once.
    SetupSchedule setups(opts.trace ? 0 : kSetupReps);
    Expect expect;
    setups.time([&] {
        expect = writeStateDir(dir, shape, base, deriveSeed(opts.seed, 3));
    });
    const ObsView setup_obs;
    report.info("host", hostJson(opts, 1, 0, dir));
    report.check(expect.pendingRows > 0 && expect.logicalTime > 0,
                 "restart: state dir has no pending rows or no cycle");
    // Between two rebuilds, the state dir is rewritten on the set-up
    // schedule; every set-up must write the same state.
    auto between = [&] {
        if (!setups.due())
            return;
        Expect again;
        setups.time([&] {
            again = writeStateDir(dir, shape, base, deriveSeed(opts.seed, 3));
        });
        report.attempted(1);
        report.check(again == expect,
                     "restart: set-up wrote a different state dir");
    };

    const sim::CloudConfig config = cloudConfig(dir, shape);
    // Warm-up: page cache and allocator reach steady state.
    repeat(config, base, expect, 0.0, report, [] {});

    std::map<std::string, double> layers;
    std::vector<double> ms;
    setups.start(opts.seconds);
    if (!opts.trace) {
        ms = repeat(config, base, expect, opts.seconds, report, between);
    } else {
        std::vector<double> plain = repeat(config, base, expect,
                                           opts.seconds / 2, report,
                                           between);
        resetObs();
        obs::setThreadName("main");
        obs::setTracing(true);
        std::vector<double> recover_ms;
        ms = repeat(config, base, expect, opts.seconds / 2, report,
                    between, &recover_ms);
        obs::setTracing(false);
        ObsView v;
        const double n = static_cast<double>(ms.size());
        std::vector<double> adopt;
        for (size_t i = 0; i < ms.size(); ++i)
            adopt.push_back(ms[i] - recover_ms[i]);
        std::vector<double> dir_ms;
        for (int i = 0; i < 5; ++i) {
            auto t0 = Clock::now();
            persist::RecoveredState st = persist::recoverDir(
                dir, config.ingestDedupWindow);
            dir_ms.push_back(msSince(t0));
            report.attempted(1);
            report.check(st.totalIngested == expect.totalIngested &&
                             st.log.size() == expect.pendingRows,
                         "restart: recoverDir differs from the writer");
        }
        uint64_t chunks = v.counter("runtime.chunks.inline") +
                          v.counter("runtime.chunks.caller") +
                          v.counter("runtime.chunks.worker");
        layers = {
            {"persist.recover_dir_ms", median(dir_ms)},
            {"sim.cloud.adopt_ms", median(adopt)},
            {"persist.replayed_records",
             v.counter("persist.recover.replayed_records") / n},
            {"persist.chain_files", double(chainFiles(dir))},
            {"persist.state_dir_bytes", double(dirBytes(dir))},
            {"persist.snapshot_write_ms",
             setup_obs.spanMs("persist.snapshot") +
                 setup_obs.spanMs("persist.snapshot_delta")},
            {"persist.snapshot_writes",
             double(setup_obs.counter("persist.snapshot.writes"))},
            {"driftlog.recovered_rows", double(expect.pendingRows)},
            {"runtime.batches", v.counter("runtime.batches") / n},
            {"runtime.batch_ms", v.spanMs("runtime.batch.seconds") / n},
            {"runtime.inline_chunk_share",
             chunks ? double(v.counter("runtime.chunks.inline")) / chunks
                    : 0.0},
            {"obs.trace_overhead_share", median(ms) / median(plain) - 1.0},
            {"obs.trace_dropped", double(obs::traceDropped())},
        };
    }

    report.info("rebuild_ms", sampleSummary(ms));
    report.info("state", "{\"events\": " + std::to_string(shape.events) +
                             ", \"pending_rows\": " +
                             std::to_string(expect.pendingRows) +
                             ", \"chain_files\": " +
                             std::to_string(chainFiles(dir)) +
                             ", \"dir_bytes\": " +
                             std::to_string(dirBytes(dir)) + "}");
    fs::remove_all(dir);
    report.check(!fs::exists(dir), "restart: state dir left behind");
    if (opts.trace) {
        reportLayers(report, layers);
        writeTrace(report, opts);
        return;
    }
    double p50 = median(ms);
    report.metric("throughput_per_s",
                  static_cast<double>(expect.totalIngested) / (p50 / 1e3),
                  "1/s");
    report.metric("latency_p50_ms", p50, "ms");
    report.info("setup_s", sampleSummary(setups.times()));
    report.metric("setup_s", median(setups.times()), "s");
    report.metric("peak_rss_mb", peakRssMb(), "MiB");
}

} // namespace nbench
