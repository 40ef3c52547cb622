/**
 * @file
 * The scripted cloud scenario both durability sweeps drive: two
 * analysis cycles over planted-cause telemetry with duplicate seqs
 * sprinkled in, a baseline flush, and a tail of pending rows left
 * unanalyzed (so recovery has live buffers to reconstruct). The state
 * directory snapshots every 8 appends with a full every 4th snapshot,
 * so fulls, deltas and chain GC all occur inside the script.
 *
 * script::drive() survives one armed persist::Env fault — a crash
 * (CrashInjected) or a latched disk fault (DiskFault) — with the
 * production discipline: rebuild the cloud from the state directory
 * with the plan cleared, then retry. Ingests are re-sent (the dedup
 * window absorbs the retransmission), a cycle whose commit landed is
 * not re-run, and flushes are retried (idempotent). test_persist
 * sweeps crashes over every Env hit; test_diskfault sweeps disk
 * faults; both compare against the same script on an in-memory cloud.
 */
#ifndef NAZAR_TESTS_CLOUD_SCRIPT_H
#define NAZAR_TESTS_CLOUD_SCRIPT_H

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/apps.h"
#include "driftlog/csv.h"
#include "persist/env.h"
#include "sim/cloud.h"

namespace nazar::persist::script {

inline data::AppSpec &
app()
{
    static data::AppSpec spec = data::makeAnimalsApp(13, 8);
    return spec;
}

inline nn::Classifier &
base()
{
    static nn::Classifier model(nn::Architecture::kResNet18,
                                app().domain.featureDim(),
                                app().domain.numClasses(), 5);
    return model;
}

/** The script's cloud over @p dir ("" = in-memory) with @p plan armed. */
inline sim::CloudConfig
config(const std::string &dir, const DiskFaultPlan &plan = {},
       uint64_t full_every = 4)
{
    sim::CloudConfig cc;
    cc.minAdaptSamples = 4;
    cc.ingestDedupWindow = 8; // small: exercises floor advancement
    cc.persist.dir = dir;
    cc.persist.snapshotEvery = 8; // snapshot often inside the script
    cc.persist.fullEvery = full_every;
    cc.persist.fault = plan;
    return cc;
}

inline driftlog::DriftLogEntry
entry(int i)
{
    driftlog::DriftLogEntry e;
    e.time = SimDate(i % 14, (i * 37) % 86400);
    int device = i % 3;
    e.deviceId = data::deviceName(device);
    e.deviceModel = data::deviceModel(device);
    e.location = "tibet";
    e.weather = i % 3 == 0 ? "snow" : "clear-day";
    e.drift = i % 3 == 0; // deterministic planted cause {weather=snow}
    return e;
}

inline std::optional<persist::UploadRecord>
upload(int i)
{
    if (i % 4 == 3)
        return std::nullopt; // some entries arrive without a sample
    driftlog::DriftLogEntry e = entry(i);
    persist::UploadRecord up;
    Rng rng(static_cast<uint64_t>(1000 + i));
    int label = static_cast<int>(rng.index(app().domain.numClasses()));
    up.features = app().domain.sample(label, rng);
    up.context = rca::AttributeSet({
        {driftlog::columns::kWeather, driftlog::Value(e.weather)},
        {driftlog::columns::kLocation, driftlog::Value(e.location)},
        {driftlog::columns::kDeviceId, driftlog::Value(e.deviceId)},
        {driftlog::columns::kDeviceModel,
         driftlog::Value(e.deviceModel)},
    });
    up.driftFlag = e.drift;
    return up;
}

/** Every persist::Env site the durability layer hits. */
inline const char *const kEnvSites[] = {
    "env.wal.open",    "env.wal.write",   "env.wal.sync",
    "env.wal.truncate", "env.wal.dirsync", "env.snap.create",
    "env.snap.write",  "env.snap.sync",   "env.snap.rename",
    "env.snap.dirsync", "env.snap.unlink",
};

/** Entry @p i from @p device (-1: exempt from dedup) as a batch of one. */
inline std::vector<persist::IngestRecord>
batch(int device, uint64_t seq, int i)
{
    std::vector<persist::IngestRecord> one;
    one.push_back(persist::IngestRecord{device, seq, entry(i), upload(i)});
    return one;
}

/** Everything a sweep compares between a faulted run and the oracle. */
struct CloudState
{
    std::string driftCsv;
    size_t uploadCount = 0;
    size_t totalIngested = 0;
    size_t dedupHits = 0;
    int64_t nextVersionId = 1;
    int64_t logicalTime = 0;
    std::vector<int64_t> versionIds;
    std::vector<std::pair<std::string, std::string>> blobs;
    std::map<int64_t, DedupWindow> dedup;
};

inline CloudState
capture(sim::Cloud &cloud)
{
    CloudState st;
    std::ostringstream csv;
    driftlog::writeCsv(cloud.driftLog().table(), csv);
    st.driftCsv = csv.str();
    st.uploadCount = cloud.uploadCount();
    st.totalIngested = cloud.totalIngested();
    st.dedupHits = cloud.dedupHits();
    st.nextVersionId = cloud.nextVersionId();
    st.logicalTime = cloud.logicalTime();
    st.versionIds = cloud.registry().versionIds();
    for (const auto &key : cloud.blobStore().list())
        st.blobs.emplace_back(key, cloud.blobStore().get(key));
    st.dedup = cloud.dedupSnapshot();
    return st;
}

inline void
expectStateEq(const CloudState &got, const CloudState &want,
              const std::string &label, size_t fault_slack = 0)
{
    EXPECT_EQ(got.driftCsv, want.driftCsv) << label;
    EXPECT_EQ(got.uploadCount, want.uploadCount) << label;
    EXPECT_EQ(got.totalIngested, want.totalIngested) << label;
    EXPECT_EQ(got.nextVersionId, want.nextVersionId) << label;
    EXPECT_EQ(got.logicalTime, want.logicalTime) << label;
    EXPECT_EQ(got.versionIds, want.versionIds) << label;
    EXPECT_EQ(got.blobs, want.blobs) << label;
    EXPECT_EQ(got.dedup, want.dedup) << label;
    // A fault after the WAL append but before the in-memory apply
    // makes the retry a retransmission the dedup window absorbs, at
    // the cost of at most one extra dedup hit per fault.
    EXPECT_GE(got.dedupHits, want.dedupHits) << label;
    EXPECT_LE(got.dedupHits, want.dedupHits + fault_slack) << label;
}

/**
 * Run the script against a cloud over @p dir with @p plan armed. Each
 * fault that fires is counted in @p faults and its site appended to
 * @p sites. Cloud construction sits inside the retry loop: the
 * "env.wal.*" sites also fire in the constructor.
 */
inline std::unique_ptr<sim::Cloud>
drive(const std::string &dir, const DiskFaultPlan &plan,
      size_t *faults = nullptr, std::vector<std::string> *sites = nullptr,
      uint64_t full_every = 4)
{
    sim::CloudConfig cfg = config(dir, plan, full_every);
    std::unique_ptr<sim::Cloud> cloud;
    nn::BnPatch clean = base().bnPatch();

    // Run @p op; on a fault, drop the dead cloud and clear the plan
    // (it fired once and must not re-arm) and return false.
    auto attempt = [&](const auto &op) {
        std::string site;
        try {
            op();
            return true;
        } catch (const CrashInjected &e) {
            site = e.site();
        } catch (const DiskFault &e) {
            site = e.site();
        }
        if (faults != nullptr)
            ++*faults;
        if (sites != nullptr)
            sites->push_back(site);
        cloud.reset();
        cfg.persist.fault = {};
        return false;
    };
    auto reopen = [&]() {
        while (!attempt([&] {
            cloud = std::make_unique<sim::Cloud>(cfg, base());
            clean = cloud->recoveredCleanPatch().value_or(
                base().bnPatch());
        })) {
        }
    };
    auto ingest = [&](int device, uint64_t seq, int i) {
        while (!attempt([&] {
            cloud->ingestBatchFrom(batch(device, seq, i));
        }))
            reopen();
    };
    auto cycle = [&]() {
        int64_t before = cloud->logicalTime();
        while (!attempt([&] {
            sim::CycleResult result = cloud->runCycle(clean);
            if (result.newCleanPatch.has_value())
                clean = *result.newCleanPatch;
        })) {
            reopen();
            if (cloud->logicalTime() > before)
                return; // the commit record landed before the fault
        }
    };
    auto flush = [&]() {
        while (!attempt([&] { cloud->flush(); }))
            reopen();
    };

    reopen();
    for (int i = 0; i < 24; ++i) {
        ingest(i % 3, static_cast<uint64_t>(i / 3), i);
        if (i % 5 == 0 && i > 0) // retransmission: must dedup
            ingest(i % 3, static_cast<uint64_t>(i / 3), i);
    }
    cycle();
    for (int i = 24; i < 44; ++i)
        ingest(i % 3, static_cast<uint64_t>(i / 3), i);
    cycle();
    for (int i = 44; i < 50; ++i)
        ingest(i % 3, static_cast<uint64_t>(i / 3), i);
    flush();
    for (int i = 50; i < 56; ++i)
        ingest(i % 3, static_cast<uint64_t>(i / 3), i);
    return cloud;
}

} // namespace nazar::persist::script

#endif // NAZAR_TESTS_CLOUD_SCRIPT_H
