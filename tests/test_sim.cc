/**
 * @file
 * Tests for the fleet simulation: device, cloud, and the end-to-end
 * runner on a miniature workload.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>

#include "common/logging.h"
#include "data/apps.h"
#include "obs/metrics.h"
#include "sim/runner.h"

namespace nazar::sim {
namespace {

/** Silence library logging for the tests. */
struct QuietLogs : ::testing::Test
{
    QuietLogs() { setLogLevel(LogLevel::kSilent); }
    ~QuietLogs() override { setLogLevel(LogLevel::kInfo); }
};

data::AppSpec
tinyApp()
{
    return data::makeAnimalsApp(13, 8);
}

nn::Classifier
trainTinyModel(const data::AppSpec &app)
{
    Rng rng(1);
    auto train = app.domain.makeBalancedDataset(60, rng);
    nn::Classifier model(nn::Architecture::kResNet18,
                         app.domain.featureDim(),
                         app.domain.numClasses(), 5);
    nn::TrainConfig tc;
    tc.epochs = 20;
    model.trainSupervised(train.x, train.labels, tc);
    return model;
}

data::StreamEvent
makeEvent(const data::AppSpec &app, int device, int location,
          data::Weather weather, uint64_t seed)
{
    Rng rng(seed);
    data::StreamEvent ev;
    ev.when = SimDate(3, 1000);
    ev.deviceId = device;
    ev.locationId = location;
    ev.weather = weather;
    ev.label = static_cast<int>(rng.index(app.domain.numClasses()));
    ev.features = app.domain.sample(ev.label, rng);
    if (weather != data::Weather::kClear) {
        data::Corruptor corr(app.domain.featureDim());
        ev.features = corr.apply(ev.features,
                                 data::weatherCorruption(weather), 3,
                                 rng);
        ev.corruption = data::weatherCorruption(weather);
        ev.severity = 3;
        ev.trueDrift = true;
    }
    return ev;
}

TEST(Device, ContextMatchesDriftLogColumns)
{
    data::AppSpec app = tinyApp();
    Device dev(5, "tibet", 0);
    auto ev = makeEvent(app, 5, 1, data::Weather::kSnow, 2);
    rca::AttributeSet context = dev.contextFor(ev);
    EXPECT_EQ(context.size(), 4u);
    EXPECT_TRUE(context.hasColumn(driftlog::columns::kWeather));
    EXPECT_TRUE(context.hasColumn(driftlog::columns::kLocation));
    EXPECT_TRUE(context.hasColumn(driftlog::columns::kDeviceId));
    EXPECT_TRUE(context.hasColumn(driftlog::columns::kDeviceModel));
}

TEST(Device, InferProducesConsistentOutcomeAndEntry)
{
    data::AppSpec app = tinyApp();
    nn::Classifier base = trainTinyModel(app);
    nn::Classifier scratch = base.clone();
    nn::BnPatch clean = base.bnPatch();
    detect::MspDetector detector(0.9);

    Device dev(3, "beijing", 0);
    auto ev = makeEvent(app, 3, 2, data::Weather::kClear, 3);
    InferenceOutcome out = dev.infer(ev, scratch, clean, detector);
    EXPECT_GE(out.predicted, 0);
    EXPECT_LT(out.predicted,
              static_cast<int>(app.domain.numClasses()));
    EXPECT_GT(out.msp, 0.0);
    EXPECT_EQ(out.versionId, 0); // empty pool: clean model

    driftlog::DriftLogEntry entry = dev.makeLogEntry(ev, out);
    EXPECT_EQ(entry.deviceId, "android_3");
    EXPECT_EQ(entry.location, "beijing");
    EXPECT_EQ(entry.weather, "clear-day");
    EXPECT_EQ(entry.drift, out.driftFlag);
    EXPECT_EQ(entry.modelVersion, 0);
}

TEST(Device, UsesInstalledVersionWhenContextMatches)
{
    data::AppSpec app = tinyApp();
    nn::Classifier base = trainTinyModel(app);
    nn::Classifier scratch = base.clone();
    nn::BnPatch clean = base.bnPatch();
    detect::MspDetector detector(0.9);

    Device dev(3, "beijing", 0);
    deploy::ModelVersion v;
    v.id = 42;
    v.cause = rca::AttributeSet(
        {{driftlog::columns::kWeather, driftlog::Value("snow")}});
    v.patch = clean;
    v.updatedAt = 1;
    dev.pool().install(v);

    auto snowy = makeEvent(app, 3, 2, data::Weather::kSnow, 4);
    EXPECT_EQ(dev.infer(snowy, scratch, clean, detector).versionId, 42);
    auto clear = makeEvent(app, 3, 2, data::Weather::kClear, 5);
    EXPECT_EQ(dev.infer(clear, scratch, clean, detector).versionId, 0);
}

class CloudTest : public QuietLogs
{
};

/** One message through the batch path; true when it was accepted. */
bool
ingestOne(Cloud &cloud, int device, uint64_t seq,
          const driftlog::DriftLogEntry &entry,
          std::optional<persist::UploadRecord> upload)
{
    std::vector<persist::IngestRecord> one;
    one.push_back(
        persist::IngestRecord{device, seq, entry, std::move(upload)});
    return cloud.ingestBatchFrom(std::move(one))[0];
}

TEST_F(CloudTest, CycleFindsPlantedCauseAndAdapts)
{
    data::AppSpec app = tinyApp();
    nn::Classifier base = trainTinyModel(app);
    CloudConfig config;
    config.minAdaptSamples = 16;
    Cloud cloud(config, base);

    Rng rng(9);
    data::Corruptor corr(app.domain.featureDim());
    // 300 entries: half snowy (truly drifted, detector-flagged with
    // high probability emulated as flag=true 80%), half clear
    // (flag=true 15%).
    for (int i = 0; i < 300; ++i) {
        bool snowy = i % 2 == 0;
        driftlog::DriftLogEntry e;
        e.time = SimDate(i % 14);
        int device = static_cast<int>(rng.index(8));
        e.deviceId = data::deviceName(device);
        e.deviceModel = data::deviceModel(device);
        e.location = app.locations[rng.index(7)].name;
        e.weather = snowy ? "snow" : "clear-day";
        e.drift = rng.bernoulli(snowy ? 0.8 : 0.15);

        int label = static_cast<int>(rng.index(app.domain.numClasses()));
        std::vector<double> x = app.domain.sample(label, rng);
        if (snowy)
            x = corr.apply(x, data::CorruptionType::kSnow, 3, rng);
        rca::AttributeSet context({
            {driftlog::columns::kWeather, driftlog::Value(e.weather)},
            {driftlog::columns::kLocation, driftlog::Value(e.location)},
            {driftlog::columns::kDeviceId, driftlog::Value(e.deviceId)},
            {driftlog::columns::kDeviceModel,
             driftlog::Value(e.deviceModel)},
        });
        ingestOne(cloud, -1, 0, e,
                  persist::UploadRecord{x, context, e.drift});
    }
    EXPECT_EQ(cloud.driftLog().size(), 300u);
    EXPECT_EQ(cloud.uploadCount(), 300u);

    CycleResult cycle = cloud.runCycle(base.bnPatch());
    // The planted cause {weather=snow} must be found and adapted.
    bool found = false;
    for (const auto &c : cycle.analysis.rootCauses)
        if (c.attrs ==
            rca::AttributeSet({{driftlog::columns::kWeather,
                                driftlog::Value("snow")}}))
            found = true;
    EXPECT_TRUE(found);
    ASSERT_FALSE(cycle.newVersions.empty());
    EXPECT_EQ(cycle.newVersions[0].cause.toString(),
              "{weather=snow}");
    EXPECT_GT(cycle.adaptedSampleCount, 0u);
    // Every new version was published to the registry (blob store)
    // before deployment, and can be reconstructed from it.
    for (const auto &version : cycle.newVersions) {
        ASSERT_TRUE(cloud.registry().contains(version.id));
        deploy::ModelVersion fetched =
            cloud.registry().fetch(version.id);
        EXPECT_EQ(fetched.cause, version.cause);
        EXPECT_TRUE(fetched.patch.approxEquals(version.patch, 1e-12));
    }
    EXPECT_GT(cloud.blobStore().totalBytes(), 0u);
    // Clean recalibration happened too (plenty of clean uploads).
    EXPECT_TRUE(cycle.newCleanPatch.has_value());
    // Buffers archived after the cycle.
    EXPECT_EQ(cloud.driftLog().size(), 0u);
    EXPECT_EQ(cloud.uploadCount(), 0u);
    EXPECT_EQ(cloud.totalIngested(), 300u);
}

TEST_F(CloudTest, NoDriftNoVersions)
{
    data::AppSpec app = tinyApp();
    nn::Classifier base = trainTinyModel(app);
    Cloud cloud(CloudConfig{}, base);
    Rng rng(10);
    for (int i = 0; i < 100; ++i) {
        driftlog::DriftLogEntry e;
        e.time = SimDate(0);
        e.deviceId = "android_0";
        e.deviceModel = "pixel_6";
        e.location = "tibet";
        e.weather = "clear-day";
        e.drift = false;
        ingestOne(cloud, -1, 0, e, std::nullopt);
    }
    CycleResult cycle = cloud.runCycle(base.bnPatch());
    EXPECT_TRUE(cycle.analysis.rootCauses.empty());
    EXPECT_TRUE(cycle.newVersions.empty());
}

TEST_F(CloudTest, FlushArchivesWithoutAnalysis)
{
    data::AppSpec app = tinyApp();
    nn::Classifier base = trainTinyModel(app);
    Cloud cloud(CloudConfig{}, base);
    driftlog::DriftLogEntry e;
    e.time = SimDate(0);
    e.deviceId = "android_0";
    e.deviceModel = "pixel_6";
    e.location = "tibet";
    e.weather = "clear-day";
    ingestOne(cloud, -1, 0, e,
              persist::UploadRecord{{1.0, 2.0}, {}, false});
    EXPECT_EQ(cloud.allUploads().size(), 1u);
    cloud.flush();
    EXPECT_EQ(cloud.uploadCount(), 0u);
    EXPECT_EQ(cloud.driftLog().size(), 0u);
}

/** An untrained base model — enough for ingest-path tests. */
nn::Classifier
untrainedModel(const data::AppSpec &app)
{
    return nn::Classifier(nn::Architecture::kResNet18,
                          app.domain.featureDim(),
                          app.domain.numClasses(), 5);
}

driftlog::DriftLogEntry
plainEntry(int i)
{
    driftlog::DriftLogEntry e;
    e.time = SimDate(i % 14);
    e.deviceId = "android_0";
    e.deviceModel = "pixel_6";
    e.location = "tibet";
    e.weather = "clear-day";
    e.drift = false;
    return e;
}

TEST_F(CloudTest, IngestDedupsRetransmissions)
{
    data::AppSpec app = tinyApp();
    nn::Classifier base = untrainedModel(app);
    Cloud cloud(CloudConfig{}, base);
    EXPECT_TRUE(ingestOne(cloud, 0, 0, plainEntry(0), std::nullopt));
    EXPECT_TRUE(ingestOne(cloud, 0, 1, plainEntry(1), std::nullopt));
    // At-least-once delivery retransmits seq 0 and 1; both rejected.
    EXPECT_FALSE(ingestOne(cloud, 0, 0, plainEntry(0), std::nullopt));
    EXPECT_FALSE(ingestOne(cloud, 0, 1, plainEntry(1), std::nullopt));
    // Another device's seq 0 is a different stream.
    EXPECT_TRUE(ingestOne(cloud, 1, 0, plainEntry(2), std::nullopt));
    EXPECT_EQ(cloud.driftLogSize(), 3u);
    EXPECT_EQ(cloud.dedupHits(), 2u);
    EXPECT_EQ(cloud.totalIngested(), 3u);
}

TEST_F(CloudTest, DedupWindowRejectsBelowFloor)
{
    data::AppSpec app = tinyApp();
    nn::Classifier base = untrainedModel(app);
    CloudConfig config;
    config.ingestDedupWindow = 4;
    Cloud cloud(config, base);
    for (uint64_t seq = 0; seq < 8; ++seq)
        EXPECT_TRUE(ingestOne(cloud, 0, seq, plainEntry(0),
                                     std::nullopt));
    // seq 2 slid out of the 4-wide window; the floor still rejects it
    // rather than double-counting a late retransmission.
    EXPECT_FALSE(ingestOne(cloud, 0, 2, plainEntry(0), std::nullopt));
    EXPECT_EQ(cloud.dedupHits(), 1u);
    EXPECT_EQ(cloud.driftLogSize(), 8u);
}

TEST_F(CloudTest, ConcurrentIngestAndReadersAreSafe)
{
    // TSAN regression for the cloud buffer race: before the fix,
    // allUploads()/uploadCount()/driftLog() read the buffers without
    // taking ingestMutex_.
    data::AppSpec app = tinyApp();
    nn::Classifier base = untrainedModel(app);
    Cloud cloud(CloudConfig{}, base);
    constexpr int kWriters = 4;
    constexpr int kPerWriter = 200;
    std::atomic<bool> done{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w)
        writers.emplace_back([&, w] {
            for (int i = 0; i < kPerWriter; ++i)
                ingestOne(cloud, w, static_cast<uint64_t>(i),
                          plainEntry(i),
                          persist::UploadRecord{{1.0, 2.0}, {}, false});
        });
    std::thread reader([&] {
        size_t sink = 0;
        while (!done.load()) {
            sink += cloud.allUploads().size();
            sink += cloud.uploadCount();
            sink += cloud.driftLogSize();
            sink += cloud.dedupHits();
        }
        EXPECT_GE(sink, 0u);
    });
    for (auto &t : writers)
        t.join();
    done = true;
    reader.join();
    EXPECT_EQ(cloud.totalIngested(),
              static_cast<size_t>(kWriters * kPerWriter));
    EXPECT_EQ(cloud.uploadCount(),
              static_cast<size_t>(kWriters * kPerWriter));
    EXPECT_EQ(cloud.dedupHits(), 0u);
}

TEST_F(CloudTest, RunCycleOnEmptyLogIsGraceful)
{
    data::AppSpec app = tinyApp();
    nn::Classifier base = untrainedModel(app);
    Cloud cloud(CloudConfig{}, base);
    CycleResult cycle = cloud.runCycle(base.bnPatch());
    EXPECT_TRUE(cycle.analysis.rootCauses.empty());
    EXPECT_TRUE(cycle.newVersions.empty());
    EXPECT_FALSE(cycle.newCleanPatch.has_value());
    EXPECT_EQ(cycle.adaptedSampleCount, 0u);
}

TEST_F(CloudTest, FlushRecordsArchivedCountsInObs)
{
    data::AppSpec app = tinyApp();
    nn::Classifier base = untrainedModel(app);
    Cloud cloud(CloudConfig{}, base);
    auto &rows = obs::Registry::global().counter("sim.cloud.flushed.rows");
    auto &ups =
        obs::Registry::global().counter("sim.cloud.flushed.uploads");
    uint64_t rows0 = rows.value();
    uint64_t ups0 = ups.value();
    for (int i = 0; i < 5; ++i)
        ingestOne(cloud, -1, 0, plainEntry(i),
                  i < 2 ? std::optional<persist::UploadRecord>(
                              persist::UploadRecord{{1.0, 2.0}, {}, false})
                        : std::nullopt);
    cloud.flush();
    EXPECT_EQ(rows.value() - rows0, 5u);
    EXPECT_EQ(ups.value() - ups0, 2u);
}

class RunnerTest : public QuietLogs
{
  protected:
    RunnerConfig
    smallRun(Strategy strategy)
    {
        RunnerConfig config;
        config.arch = nn::Architecture::kResNet18;
        config.strategy = strategy;
        config.windows = 3;
        config.workload.days = 21;
        config.workload.devicesPerLocation = 3;
        config.workload.imagesPerDevicePerDay = 3.0;
        config.train.epochs = 20;
        config.cloud.minAdaptSamples = 16;
        config.uploadSampleRate = 0.5;
        config.seed = 17;
        return config;
    }
};

TEST_F(RunnerTest, ProducesWindowMetricsForAllStrategies)
{
    data::AppSpec app = tinyApp();
    data::WeatherModel weather(app.locations, 21, 2020);
    for (Strategy s : {Strategy::kNazar, Strategy::kAdaptAll,
                       Strategy::kNoAdapt}) {
        Runner runner(app, weather, smallRun(s));
        RunResult result = runner.run();
        ASSERT_EQ(result.windows.size(), 3u) << toString(s);
        size_t total = 0;
        for (const auto &w : result.windows) {
            total += w.events;
            EXPECT_GE(w.accuracyAll(), 0.0);
            EXPECT_LE(w.accuracyAll(), 1.0);
        }
        EXPECT_GT(total, 100u);
        EXPECT_GT(result.baseCleanAccuracy, 0.5);
    }
}

TEST_F(RunnerTest, NoAdaptNeverCreatesVersions)
{
    data::AppSpec app = tinyApp();
    data::WeatherModel weather(app.locations, 21, 2020);
    Runner runner(app, weather, smallRun(Strategy::kNoAdapt));
    RunResult result = runner.run();
    for (const auto &w : result.windows) {
        EXPECT_EQ(w.newVersions, 0u);
        EXPECT_EQ(w.poolSize, 0u);
    }
    EXPECT_EQ(result.totalAdaptSeconds, 0.0);
}

TEST_F(RunnerTest, NazarCreatesVersionsUnderDrift)
{
    data::AppSpec app = tinyApp();
    data::WeatherModel weather(app.locations, 21, 2020);
    Runner runner(app, weather, smallRun(Strategy::kNazar));
    RunResult result = runner.run();
    size_t versions = 0, causes = 0;
    for (const auto &w : result.windows) {
        versions += w.newVersions;
        causes += w.rootCauses;
    }
    EXPECT_GT(causes, 0u);
    EXPECT_GT(versions, 0u);
    EXPECT_GT(result.totalRcaSeconds, 0.0);
}

TEST_F(RunnerTest, DeterministicAcrossRuns)
{
    data::AppSpec app = tinyApp();
    data::WeatherModel weather(app.locations, 21, 2020);
    RunResult a = Runner(app, weather, smallRun(Strategy::kNazar)).run();
    RunResult b = Runner(app, weather, smallRun(Strategy::kNazar)).run();
    ASSERT_EQ(a.windows.size(), b.windows.size());
    for (size_t i = 0; i < a.windows.size(); ++i) {
        EXPECT_EQ(a.windows[i].events, b.windows[i].events);
        EXPECT_EQ(a.windows[i].correctAll, b.windows[i].correctAll);
        EXPECT_EQ(a.windows[i].flagged, b.windows[i].flagged);
    }
}

TEST_F(RunnerTest, FaultedRunIsReproducibleFromFaultSeed)
{
    data::AppSpec app = tinyApp();
    data::WeatherModel weather(app.locations, 21, 2020);
    RunnerConfig config = smallRun(Strategy::kNazar);
    config.faults.dropProb = 0.2;
    config.faults.dupProb = 0.1;
    config.faults.pushDropProb = 0.2;
    config.faults.seed = 99;
    RunResult a = Runner(app, weather, config).run();
    RunResult b = Runner(app, weather, config).run();
    ASSERT_EQ(a.windows.size(), b.windows.size());
    for (size_t i = 0; i < a.windows.size(); ++i) {
        EXPECT_EQ(a.windows[i].events, b.windows[i].events);
        EXPECT_EQ(a.windows[i].correctAll, b.windows[i].correctAll);
        EXPECT_EQ(a.windows[i].flagged, b.windows[i].flagged);
        EXPECT_EQ(a.windows[i].staleDevices, b.windows[i].staleDevices);
    }
    // A different fault seed reshapes what the cloud sees.
    config.faults.seed = 100;
    RunResult c = Runner(app, weather, config).run();
    bool differs = false;
    for (size_t i = 0; i < a.windows.size(); ++i)
        differs = differs ||
                  a.windows[i].correctAll != c.windows[i].correctAll ||
                  a.windows[i].staleDevices != c.windows[i].staleDevices;
    EXPECT_TRUE(differs);
}

TEST_F(RunnerTest, HeavyLossDegradesGracefully)
{
    // Half the uplink traffic is lost and pushes frequently miss:
    // the run must still complete every window over the same event
    // stream, adapting on whatever arrives.
    data::AppSpec app = tinyApp();
    data::WeatherModel weather(app.locations, 21, 2020);
    RunResult clean =
        Runner(app, weather, smallRun(Strategy::kNazar)).run();
    RunnerConfig config = smallRun(Strategy::kNazar);
    config.faults.dropProb = 0.5;
    config.faults.dupProb = 0.2;
    config.faults.delayProb = 0.1;
    config.faults.pushDropProb = 0.3;
    config.faults.offlineProb = 0.1;
    config.faults.queueCapacity = 64;
    RunResult faulted = Runner(app, weather, config).run();
    ASSERT_EQ(faulted.windows.size(), clean.windows.size());
    for (size_t i = 0; i < faulted.windows.size(); ++i) {
        // Faults hit the channel, never the device-side event stream.
        EXPECT_EQ(faulted.windows[i].events, clean.windows[i].events);
        EXPECT_GT(faulted.windows[i].events, 0u);
    }
    EXPECT_GT(faulted.avgAccuracyAll(0), 0.0);
}

TEST_F(RunnerTest, ResultAggregatesAreConsistent)
{
    data::AppSpec app = tinyApp();
    data::WeatherModel weather(app.locations, 21, 2020);
    RunResult r = Runner(app, weather, smallRun(Strategy::kNazar)).run();
    // Cumulative traces have one point per window and end at the
    // overall average (skip = 0).
    auto trace = r.cumulativeAccuracyAll();
    ASSERT_EQ(trace.size(), r.windows.size());
    EXPECT_NEAR(trace.back(), r.avgAccuracyAll(0), 1e-9);
    // Per-corruption totals equal the drifted-event total.
    size_t drifted = 0;
    for (const auto &w : r.windows)
        drifted += w.driftedEvents;
    size_t per_type = 0;
    for (const auto &[type, acc] : r.perCorruption)
        per_type += acc.total;
    EXPECT_EQ(per_type, drifted);
}

/** Scratch state directory under the test's CWD, removed on exit. */
struct StateDir
{
    std::filesystem::path path;

    explicit StateDir(const std::string &tag)
        : path(std::filesystem::current_path() / ("sim_state_" + tag))
    {
        std::filesystem::remove_all(path);
    }

    ~StateDir() { std::filesystem::remove_all(path); }
};

TEST_F(RunnerTest, PersistenceOnMatchesPersistenceOff)
{
    // Durability with a disarmed Env must not perturb a single
    // deterministic output — only write files.
    data::AppSpec app = tinyApp();
    data::WeatherModel weather(app.locations, 21, 2020);
    RunResult off =
        Runner(app, weather, smallRun(Strategy::kNazar)).run();
    StateDir dir("equiv");
    RunnerConfig config = smallRun(Strategy::kNazar);
    config.persist.dir = dir.path.string();
    RunResult on = Runner(app, weather, config).run();
    ASSERT_EQ(on.windows.size(), off.windows.size());
    for (size_t i = 0; i < on.windows.size(); ++i) {
        EXPECT_EQ(on.windows[i].events, off.windows[i].events);
        EXPECT_EQ(on.windows[i].correctAll, off.windows[i].correctAll);
        EXPECT_EQ(on.windows[i].flagged, off.windows[i].flagged);
        EXPECT_EQ(on.windows[i].newVersions,
                  off.windows[i].newVersions);
        EXPECT_EQ(on.windows[i].rootCauses, off.windows[i].rootCauses);
        EXPECT_EQ(on.windows[i].skippedCauses,
                  off.windows[i].skippedCauses);
    }
    EXPECT_EQ(on.cloudCrashes, 0u);
    // The final checkpoint leaves a loadable state directory with an
    // empty (truncated) WAL. Snapshots live in the chain format now
    // (snap-NNNNNN.full / .delta), not the legacy snapshot.bin.
    bool has_chain_file = false;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir.path)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("snap-", 0) == 0)
            has_chain_file = true;
    }
    EXPECT_TRUE(has_chain_file);
    persist::RecoveredState st = persist::recoverDir(dir.path);
    EXPECT_TRUE(st.snapshotLoaded);
    EXPECT_EQ(st.replayedRecords, 0u);
    EXPECT_EQ(st.logicalTime, 3);
}

TEST_F(RunnerTest, SeededCrashRunSurvivesAndRecovers)
{
    // Crash the cloud mid-run at an arbitrary persist-site hit: the
    // runner rebuilds it from the state directory and finishes every
    // window over the same device-side event stream.
    data::AppSpec app = tinyApp();
    data::WeatherModel weather(app.locations, 21, 2020);
    RunResult clean =
        Runner(app, weather, smallRun(Strategy::kNazar)).run();
    StateDir dir("crash");
    RunnerConfig config = smallRun(Strategy::kNazar);
    config.persist.dir = dir.path.string();
    config.persist.fault = {"env.wal.write", 500,
                            persist::FaultKind::kCrash};
    RunResult crashed = Runner(app, weather, config).run();
    EXPECT_GE(crashed.cloudCrashes, 1u);
    ASSERT_EQ(crashed.windows.size(), clean.windows.size());
    for (size_t i = 0; i < crashed.windows.size(); ++i)
        EXPECT_EQ(crashed.windows[i].events, clean.windows[i].events);
    EXPECT_GT(crashed.avgAccuracyAll(0), 0.0);
}

TEST_F(RunnerTest, SkippedCausesAreCountedPerWindow)
{
    // With an absurdly high adaptation threshold every root cause is
    // found but skipped; the per-window counter must surface that.
    data::AppSpec app = tinyApp();
    data::WeatherModel weather(app.locations, 21, 2020);
    RunnerConfig config = smallRun(Strategy::kNazar);
    config.cloud.minAdaptSamples = 100000;
    RunResult r = Runner(app, weather, config).run();
    size_t causes = 0, skipped = 0, versions = 0;
    for (const auto &w : r.windows) {
        EXPECT_LE(w.skippedCauses, w.rootCauses);
        causes += w.rootCauses;
        skipped += w.skippedCauses;
        versions += w.newVersions;
    }
    EXPECT_GT(causes, 0u);
    EXPECT_EQ(skipped, causes);
    EXPECT_EQ(versions, 0u);
}

TEST(WindowMetrics, DerivedRatios)
{
    WindowMetrics w;
    w.events = 10;
    w.driftedEvents = 4;
    w.correctAll = 7;
    w.correctDrifted = 2;
    w.correctClean = 5;
    w.flagged = 3;
    EXPECT_NEAR(w.accuracyAll(), 0.7, 1e-12);
    EXPECT_NEAR(w.accuracyDrifted(), 0.5, 1e-12);
    EXPECT_NEAR(w.accuracyClean(), 5.0 / 6.0, 1e-12);
    EXPECT_NEAR(w.detectionRate(), 0.3, 1e-12);
    WindowMetrics empty;
    EXPECT_EQ(empty.accuracyAll(), 0.0);
    EXPECT_EQ(empty.accuracyDrifted(), 0.0);
}

TEST(Strategy, Names)
{
    EXPECT_EQ(toString(Strategy::kNazar), "nazar");
    EXPECT_EQ(toString(Strategy::kAdaptAll), "adapt-all");
    EXPECT_EQ(toString(Strategy::kNoAdapt), "no-adapt");
}

} // namespace
} // namespace nazar::sim
