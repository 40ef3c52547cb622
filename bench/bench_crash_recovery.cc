/**
 * @file
 * Crash-recovery benchmark: how fast the cloud reconstructs its state
 * from the durability directory as the WAL grows, and how snapshots
 * bound the replay work. Seeds BENCH_crash_recovery.json.
 *
 * Three experiments:
 *
 *  1. Snapshot-interval grid. For each (snapshotEvery, fullEvery) and
 *     each ingest count, a persisted cloud absorbs the scripted
 *     telemetry and is dropped WITHOUT a final checkpoint — exactly
 *     what a crash leaves behind — then recovery is timed over the
 *     directory (median of 5 recoverDir calls; elidedRows counts the
 *     replayed rows a later cycle commit cleared, so replay decoded
 *     and dedup-checked them without materializing them). Headline:
 *     with snapshots on, recovery time and replayed-record count stay
 *     bounded by the snapshot interval instead of growing with history
 *     length.
 *
 *  2. Incremental vs full chains. fullEvery = 1 writes a full
 *     snapshot every time (the pre-chain behaviour); fullEvery = 8
 *     writes mostly deltas, which archive only the WAL records since
 *     the previous snapshot. Deltas trade a slightly longer recovery
 *     walk for much cheaper snapshot writes; dirBytes shows the
 *     on-disk footprint either way (GC keeps both bounded).
 *
 *  3. Disk-fault recovery. An injected mid-run fault (failed WAL
 *     fsync with dropped dirty pages / ENOSPC on append) latches the
 *     durability layer; the row reports how much was durable at the
 *     latch and how long recovery from the poisoned directory takes.
 *
 * Usage: bench_crash_recovery [--quick] [--metrics-out=<path>]
 *   --quick shrinks the ingest counts (CI smoke run).
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <vector>

#include "bench_util.h"
#include "persist/cloud_persist.h"
#include "persist/env.h"
#include "sim/cloud.h"

namespace {

using namespace nazar;
namespace fs = std::filesystem;

driftlog::DriftLogEntry
benchEntry(int i)
{
    driftlog::DriftLogEntry e;
    e.time = SimDate(i % 21, (i * 37) % 86400);
    int device = i % 16;
    e.deviceId = data::deviceName(device);
    e.deviceModel = data::deviceModel(device);
    e.location = "tibet";
    e.weather = i % 3 == 0 ? "snow" : "clear-day";
    e.drift = i % 3 == 0;
    return e;
}

persist::UploadRecord
benchUpload(const data::AppSpec &app, int i)
{
    driftlog::DriftLogEntry e = benchEntry(i);
    persist::UploadRecord up;
    Rng rng(static_cast<uint64_t>(4000 + i));
    int label = static_cast<int>(rng.index(app.domain.numClasses()));
    up.features = app.domain.sample(label, rng);
    up.context = rca::AttributeSet({
        {driftlog::columns::kWeather, driftlog::Value(e.weather)},
        {driftlog::columns::kLocation, driftlog::Value(e.location)},
        {driftlog::columns::kDeviceId, driftlog::Value(e.deviceId)},
        {driftlog::columns::kDeviceModel, driftlog::Value(e.deviceModel)},
    });
    up.driftFlag = e.drift;
    return up;
}

/** Total bytes across every file in the state directory. */
uint64_t
dirBytes(const fs::path &dir)
{
    uint64_t total = 0;
    if (!fs::exists(dir))
        return 0;
    for (const auto &ent : fs::directory_iterator(dir))
        if (ent.is_regular_file())
            total += ent.file_size();
    return total;
}

struct Row
{
    uint64_t snapshotEvery;
    uint64_t fullEvery;
    size_t ingests;
    uint64_t walBytes;
    uint64_t dirBytes;
    bool snapshotLoaded;
    uint64_t replayedRecords;
    uint64_t elidedRows;
    double recoverMs;
};

/** Median wall time of 5 read-only recoveries of @p dir, in ms. */
double
medianRecoverMs(const fs::path &dir)
{
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i) {
        auto t0 = std::chrono::steady_clock::now();
        persist::recoverDir(dir);
        auto t1 = std::chrono::steady_clock::now();
        ms.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    std::sort(ms.begin(), ms.end());
    return ms[2];
}

struct FaultRow
{
    const char *site;
    const char *kind;
    size_t latchedAt; ///< Ingests applied before the latch.
    uint64_t durable; ///< totalIngested recovered from the directory.
    double recoverMs;
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
    // Untrained base: the bench measures the durability layer, not
    // adaptation quality. minAdaptSamples is set high so cycles still
    // append kCycleCommit records but skip the (slow) fine-tuning.
    nn::Classifier base(nn::Architecture::kResNet18,
                        app.domain.featureDim(),
                        app.domain.numClasses(), 5);

    // (snapshotEvery, fullEvery): WAL-only, always-full chains, and
    // mostly-delta chains at two intervals.
    const std::vector<std::pair<uint64_t, uint64_t>> grid = {
        {0, 1}, {512, 1}, {512, 8}, {2048, 1}, {2048, 8}};
    const std::vector<size_t> counts =
        quick ? std::vector<size_t>{500, 2000}
              : std::vector<size_t>{500, 2000, 8000};
    const fs::path dir = fs::current_path() / "bench_crash_recovery_state";

    auto runIngests = [&](sim::Cloud &cloud, size_t count,
                          size_t start = 0) {
        nn::BnPatch clean = base.bnPatch();
        for (size_t i = start; i < count; ++i) {
            // A batch of one: one WAL sync per ingest, as a device
            // uplink without group commit would produce.
            std::vector<persist::IngestRecord> one;
            one.push_back(persist::IngestRecord{
                static_cast<int>(i % 16), static_cast<uint64_t>(i / 16),
                benchEntry(static_cast<int>(i)),
                benchUpload(app, static_cast<int>(i))});
            cloud.ingestBatchFrom(std::move(one));
            if ((i + 1) % 1000 == 0)
                cloud.runCycle(clean);
        }
    };

    std::vector<Row> rows;
    for (auto [interval, full_every] : grid) {
        for (size_t count : counts) {
            fs::remove_all(dir);
            {
                sim::CloudConfig config;
                config.minAdaptSamples = 1u << 30;
                config.persist.dir = dir.string();
                config.persist.snapshotEvery = interval;
                config.persist.fullEvery = full_every;
                sim::Cloud cloud(config, base);
                runIngests(cloud, count);
                // No checkpoint: the directory is left exactly as a
                // crash would leave it.
            }
            Row row;
            row.snapshotEvery = interval;
            row.fullEvery = full_every;
            row.ingests = count;
            row.walBytes = fs::exists(dir / "wal.log")
                               ? fs::file_size(dir / "wal.log")
                               : 0;
            row.dirBytes = dirBytes(dir);
            persist::RecoveredState st = persist::recoverDir(dir);
            row.snapshotLoaded = st.snapshotLoaded;
            row.replayedRecords = st.replayedRecords;
            row.elidedRows = st.elidedRows;
            row.recoverMs = medianRecoverMs(dir);
            rows.push_back(row);
        }
    }

    // Disk-fault recovery: latch mid-run, then time recovery from the
    // poisoned directory. env.wal.sync fires once per ingest on this
    // path, so the hit count is roughly the ingest index at the latch.
    const size_t fault_count = quick ? 1000 : 4000;
    const std::vector<std::pair<const char *, persist::FaultKind>>
        faults = {{"env.wal.sync", persist::FaultKind::kSyncFail},
                  {"env.wal.write", persist::FaultKind::kEnospc}};
    std::vector<FaultRow> fault_rows;
    for (auto [site, kind] : faults) {
        fs::remove_all(dir);
        size_t latched_at = 0;
        {
            sim::CloudConfig config;
            config.minAdaptSamples = 1u << 30;
            config.persist.dir = dir.string();
            config.persist.snapshotEvery = 512;
            config.persist.fault = {site, fault_count / 2, kind};
            sim::Cloud cloud(config, base);
            try {
                runIngests(cloud, fault_count);
                latched_at = fault_count;
            } catch (const persist::DiskFault &) {
                latched_at = cloud.totalIngested();
            }
        }
        FaultRow row;
        row.site = site;
        row.kind = persist::faultKindName(kind);
        row.latchedAt = latched_at;
        row.durable = persist::recoverDir(dir).totalIngested;
        row.recoverMs = medianRecoverMs(dir);
        fault_rows.push_back(row);
    }
    fs::remove_all(dir);

    std::printf("{\n");
    std::printf("  \"bench\": \"crash_recovery\",\n");
    std::printf("  \"quick\": %s,\n", quick ? "true" : "false");
    std::printf("  %s,\n", bench::hostMetaJson().c_str());
    std::printf("  \"results\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::printf(
            "    {\"snapshotEvery\": %llu, \"fullEvery\": %llu, "
            "\"ingests\": %zu, \"walBytes\": %llu, \"dirBytes\": %llu, "
            "\"snapshotLoaded\": %s, \"replayedRecords\": %llu, "
            "\"elidedRows\": %llu, \"recoverMs\": %.3f}%s\n",
            static_cast<unsigned long long>(r.snapshotEvery),
            static_cast<unsigned long long>(r.fullEvery), r.ingests,
            static_cast<unsigned long long>(r.walBytes),
            static_cast<unsigned long long>(r.dirBytes),
            r.snapshotLoaded ? "true" : "false",
            static_cast<unsigned long long>(r.replayedRecords),
            static_cast<unsigned long long>(r.elidedRows), r.recoverMs,
            i + 1 < rows.size() ? "," : "");
    }
    std::printf("  ],\n");
    std::printf("  \"diskFaults\": [\n");
    for (size_t i = 0; i < fault_rows.size(); ++i) {
        const FaultRow &r = fault_rows[i];
        std::printf(
            "    {\"site\": \"%s\", \"kind\": \"%s\", "
            "\"latchedAt\": %zu, \"durable\": %llu, "
            "\"recoverMs\": %.3f}%s\n",
            r.site, r.kind, r.latchedAt,
            static_cast<unsigned long long>(r.durable), r.recoverMs,
            i + 1 < fault_rows.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
    return 0;
}
