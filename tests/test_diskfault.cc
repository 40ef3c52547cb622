/**
 * @file
 * Tests for the fault-injecting I/O environment and fail-safe
 * durability: Env fault semantics (short writes, ENOSPC, EIO, failed
 * fsync with dropped dirty pages, lost renames, lost file contents),
 * the fsync gate, incremental snapshot chains, snapshot / registry
 * GC, the offline scrubber, decoder fuzzing, and the headline
 * property — an exhaustive per-site disk-fault sweep over a scripted
 * cloud scenario whose recovered state must match a never-faulted
 * oracle.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cloud_script.h"
#include "common/error.h"
#include "common/logging.h"
#include "common/rng.h"
#include "data/apps.h"
#include "driftlog/csv.h"
#include "persist/cloud_persist.h"
#include "persist/env.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "persist_oracle.h"
#include "sim/cloud.h"

namespace nazar::persist {
namespace {

namespace fs = std::filesystem;

/** Unique scratch directory under the test's CWD, removed on exit. */
struct TempDir
{
    fs::path path;

    explicit TempDir(const std::string &tag)
    {
        static int counter = 0;
        path = fs::current_path() / ("diskfault_test_" + tag + "_" +
                                     std::to_string(counter++));
        fs::remove_all(path);
        fs::create_directories(path);
    }

    ~TempDir() { fs::remove_all(path); }
};

struct QuietLogs : ::testing::Test
{
    QuietLogs() { setLogLevel(LogLevel::kSilent); }
    ~QuietLogs() override { setLogLevel(LogLevel::kInfo); }
};

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const fs::path &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

// ---- Env fault semantics --------------------------------------------

TEST(EnvTest, FaultKindNamesRoundTrip)
{
    for (FaultKind kind :
         {FaultKind::kNone, FaultKind::kShortWrite, FaultKind::kEnospc,
          FaultKind::kEio, FaultKind::kSyncFail, FaultKind::kLostRename,
          FaultKind::kLostFile})
        EXPECT_EQ(faultKindFromString(faultKindName(kind)), kind);
    EXPECT_THROW(faultKindFromString("bogus"), NazarError);
}

TEST(EnvTest, DisarmedCountsWithoutFiring)
{
    TempDir dir("env_count");
    Env env;
    EXPECT_FALSE(env.plan().armed());
    Env::File *f = env.open("site.open", dir.path / "f", "wb");
    env.write("site.write", f, "abcd", 4);
    env.write("site.write", f, "efgh", 4);
    env.sync("site.sync", f, /*deep=*/0);
    env.close(f);
    EXPECT_FALSE(env.faulted());
    EXPECT_EQ(env.hitCount("site.open"), 1u);
    EXPECT_EQ(env.hitCount("site.write"), 2u);
    EXPECT_EQ(env.hitCount("site.sync"), 1u);
    EXPECT_EQ(env.hitCount("site.never"), 0u);
    EXPECT_EQ(env.totalHits(), 4u);
    EXPECT_EQ(readFile(dir.path / "f"), "abcdefgh");
}

TEST(EnvTest, FsyncGateLatchesEverything)
{
    // The first failure poisons the Env: every later operation — even
    // at a different site, even a plain open — throws DiskFault.
    TempDir dir("env_gate");
    Env env(DiskFaultPlan{"site.write", 2, FaultKind::kEnospc});
    Env::File *f = env.open("site.open", dir.path / "f", "wb");
    env.write("site.write", f, "aaaa", 4);
    EXPECT_THROW(env.write("site.write", f, "bbbb", 4), DiskFault);
    EXPECT_TRUE(env.faulted());
    EXPECT_EQ(env.faultSite(), "site.write");
    EXPECT_THROW(env.sync("site.sync", f, 0), DiskFault);
    EXPECT_THROW(env.open("site.open", dir.path / "g", "wb"),
                 DiskFault);
    EXPECT_THROW(env.syncDir("site.dirsync", dir.path), DiskFault);
    env.close(f); // close never throws, even latched
    // ENOSPC left no partial bytes behind.
    EXPECT_EQ(readFile(dir.path / "f"), "aaaa");
}

TEST(EnvTest, ShortWriteLeavesPrefixThenLatches)
{
    TempDir dir("env_short");
    Env env(DiskFaultPlan{"site.write", 1, FaultKind::kShortWrite});
    Env::File *f = env.open("site.open", dir.path / "f", "wb");
    EXPECT_THROW(env.write("site.write", f, "abcdefgh", 8), DiskFault);
    env.close(f);
    // Half the bytes reached the file: exactly a torn write.
    EXPECT_EQ(readFile(dir.path / "f"), "abcd");
}

TEST(EnvTest, SyncFailDropsDirtyBytes)
{
    // The injected equivalent of the kernel discarding dirty pages on
    // a failed fsync: everything since the last successful sync is
    // gone, and retrying the sync cannot bring it back.
    TempDir dir("env_syncfail");
    Env env(DiskFaultPlan{"site.sync", 2, FaultKind::kSyncFail});
    Env::File *f = env.open("site.open", dir.path / "f", "wb");
    env.write("site.write", f, "durable!", 8);
    env.sync("site.sync", f, 0); // hit 1: succeeds, syncedLen = 8
    env.write("site.write", f, "doomed", 6);
    EXPECT_THROW(env.sync("site.sync", f, 0), DiskFault);
    env.close(f);
    EXPECT_TRUE(env.faulted());
    EXPECT_EQ(readFile(dir.path / "f"), "durable!");
}

TEST(EnvTest, LostRenameIsDetectedByDirsync)
{
    // A lost rename reports success; the directory fsync that a
    // correct commit sequence issues right after is what detects it.
    TempDir dir("env_lostrename");
    Env env(DiskFaultPlan{"site.rename", 1, FaultKind::kLostRename});
    Env::File *f = env.open("site.open", dir.path / "tmp", "wb");
    env.write("site.write", f, "payload", 7);
    env.sync("site.sync", f, 2);
    env.close(f);
    env.rename("site.rename", dir.path / "tmp", dir.path / "final");
    // The directory entry never reached the platter: source gone,
    // target absent.
    EXPECT_FALSE(fs::exists(dir.path / "tmp"));
    EXPECT_FALSE(fs::exists(dir.path / "final"));
    EXPECT_THROW(env.syncDir("site.dirsync", dir.path), DiskFault);
    EXPECT_TRUE(env.faulted());
}

TEST(EnvTest, LostFileSparesASyncedTmp)
{
    // The "fsync the tmp before rename" rule, regression-tested by
    // construction: a synced tmp survives kLostFile untouched...
    TempDir dir("env_lostfile");
    {
        Env env(DiskFaultPlan{"site.rename", 1, FaultKind::kLostFile});
        Env::File *f = env.open("site.open", dir.path / "tmp", "wb");
        env.write("site.write", f, "precious", 8);
        env.sync("site.sync", f, 2); // the fix under test
        env.close(f);
        env.rename("site.rename", dir.path / "tmp", dir.path / "safe");
        EXPECT_EQ(readFile(dir.path / "safe"), "precious");
    }
    // ...while an unsynced tmp is zeroed, the way a real crash after
    // a fsync-less rename can leave an empty committed file.
    {
        Env env(DiskFaultPlan{"site.rename", 1, FaultKind::kLostFile});
        Env::File *f = env.open("site.open", dir.path / "tmp2", "wb");
        env.write("site.write", f, "precious", 8);
        env.close(f); // no sync!
        env.rename("site.rename", dir.path / "tmp2",
                   dir.path / "gone");
        EXPECT_TRUE(fs::exists(dir.path / "gone"));
        EXPECT_EQ(readFile(dir.path / "gone"), "");
    }
}

TEST(EnvTest, RemoveIsBestEffortAndNeverLatches)
{
    TempDir dir("env_remove");
    writeFile(dir.path / "victim", "x");
    Env env(DiskFaultPlan{"site.unlink", 1, FaultKind::kEio});
    EXPECT_FALSE(env.remove("site.unlink", dir.path / "victim"));
    EXPECT_FALSE(env.faulted()); // GC must not poison the log
    EXPECT_TRUE(fs::exists(dir.path / "victim"));
    EXPECT_TRUE(env.remove("site.unlink", dir.path / "victim"));
    EXPECT_FALSE(fs::exists(dir.path / "victim"));
    // Removing a nonexistent path is a no-op failure, not a latch.
    EXPECT_FALSE(env.remove("site.unlink", dir.path / "victim"));
    EXPECT_FALSE(env.faulted());
}

// ---- scripted cloud scenario ---------------------------------------
//
// The scenario and its retry loop live in cloud_script.h, shared with
// test_persist.cc's crash sweep; here the Env arms disk faults.

using script::CloudState;

class DiskFaultCloudTest : public QuietLogs
{
};

// ---- the headline sweep ---------------------------------------------

TEST_F(DiskFaultCloudTest, ExhaustiveDiskFaultSweepMatchesOracle)
{
    // The oracle: the same script against an in-memory cloud.
    CloudState oracle =
        script::capture(*script::drive("", {}, nullptr, nullptr));

    // Probe run: count how often the scenario reaches each Env site,
    // to bound the per-site sweep.
    std::map<std::string, uint64_t> reached;
    {
        TempDir dir("probe");
        auto cloud =
            script::drive(dir.path.string(), {}, nullptr, nullptr);
        Env &env = cloud->persistence()->env();
        for (const char *site : script::kEnvSites)
            reached[site] = env.hitCount(site);
        EXPECT_GT(env.totalHits(), 0u);
        // Persistence on with a disarmed Env is behaviour-neutral.
        script::expectStateEq(script::capture(*cloud), oracle, "disarmed");
    }

    // Every failure mode a site can exhibit, at its first and second
    // hit. Each faulted run must either recover to the oracle's exact
    // state (the fault latched, the harness rebuilt from the last
    // durable state, the retry completed the script) — there is no
    // "or": a latched fault may cost retries but never state.
    struct MatrixEntry
    {
        const char *site;
        FaultKind kind;
    };
    const MatrixEntry matrix[] = {
        {"env.wal.open", FaultKind::kEio},
        {"env.wal.write", FaultKind::kShortWrite},
        {"env.wal.write", FaultKind::kEnospc},
        {"env.wal.sync", FaultKind::kSyncFail},
        {"env.wal.sync", FaultKind::kEio},
        {"env.wal.truncate", FaultKind::kEio},
        {"env.wal.dirsync", FaultKind::kEio},
        {"env.snap.create", FaultKind::kEio},
        {"env.snap.write", FaultKind::kEnospc},
        {"env.snap.write", FaultKind::kShortWrite},
        {"env.snap.sync", FaultKind::kSyncFail},
        {"env.snap.rename", FaultKind::kLostRename},
        {"env.snap.rename", FaultKind::kEio},
        {"env.snap.dirsync", FaultKind::kEio},
    };
    for (const MatrixEntry &entry : matrix)
        ASSERT_GE(reached[entry.site], 1u)
            << entry.site << " never reached by the scenario";

    for (const MatrixEntry &entry : matrix) {
        for (uint64_t hit = 1; hit <= 2; ++hit) {
            if (reached[entry.site] < hit)
                continue; // scenario never reaches this hit
            std::string label = std::string(entry.site) + "/" +
                                faultKindName(entry.kind) + "/hit" +
                                std::to_string(hit);
            TempDir dir("sweep");
            size_t faults = 0;
            std::vector<std::string> sites;
            auto cloud = script::drive(
                dir.path.string(),
                DiskFaultPlan{entry.site, hit, entry.kind}, &faults,
                &sites);
            ASSERT_EQ(faults, 1u) << label;
            script::expectStateEq(script::capture(*cloud), oracle, label,
                                  faults);
            // The fault left no lasting corruption behind: the state
            // directory passes the offline scrub...
            cloud.reset();
            ScrubReport report = scrubStateDir(dir.path);
            EXPECT_TRUE(report.ok)
                << label << ": "
                << (report.issues.empty() ? "" : report.issues[0]);
            // ...and a cold reopen recovers the same state again.
            sim::Cloud reopened(script::config(dir.path.string(), {}),
                                script::base());
            script::expectStateEq(script::capture(reopened), oracle,
                          label + "/reopen", faults);
        }
    }
}

TEST_F(DiskFaultCloudTest, GcUnlinkFaultIsNonFatal)
{
    // Snapshot GC unlinks through Env::remove, which is best-effort:
    // an EIO there must not latch the log or perturb state — the
    // superseded file simply survives until the next GC pass.
    CloudState oracle =
        script::capture(*script::drive("", {}, nullptr, nullptr));
    TempDir dir("gc_eio");
    size_t faults = 0;
    auto cloud = script::drive(
        dir.path.string(),
        DiskFaultPlan{"env.snap.unlink", 1, FaultKind::kEio}, &faults,
        nullptr, /*full_every=*/1);
    EXPECT_EQ(faults, 0u);
    EXPECT_FALSE(cloud->persistence()->diskFaulted());
    script::expectStateEq(script::capture(*cloud), oracle, "gc_eio");
    cloud.reset();
    // The survivor is at worst a scrub *note*, never an issue.
    ScrubReport report = scrubStateDir(dir.path);
    EXPECT_TRUE(report.ok);
}

TEST_F(DiskFaultCloudTest, FsyncGateStopsTheCloudUntilRebuilt)
{
    TempDir dir("gate");
    sim::CloudConfig config = script::config(
        dir.path.string(),
        DiskFaultPlan{"env.wal.sync", 4, FaultKind::kSyncFail});
    auto cloud = std::make_unique<sim::Cloud>(config, script::base());
    int i = 0;
    for (; i < 24; ++i) {
        try {
            cloud->ingestBatchFrom(
                script::batch(i % 3, static_cast<uint64_t>(i / 3), i));
        } catch (const DiskFault &e) {
            EXPECT_EQ(e.site(), "env.wal.sync");
            break;
        }
    }
    ASSERT_LT(i, 24) << "armed sync fault never fired";
    ASSERT_TRUE(cloud->persistence()->diskFaulted());
    EXPECT_EQ(cloud->persistence()->diskFaultSite(), "env.wal.sync");
    // Latched means latched: every further durable operation fails
    // fast without touching the poisoned log — a failed fsync is
    // never retried.
    EXPECT_THROW(cloud->ingestBatchFrom(script::batch(0, 99, 0)),
                 DiskFault);
    EXPECT_THROW(cloud->flush(), DiskFault);
    EXPECT_TRUE(cloud->persistence()->diskFaulted());
    size_t durable = 0;
    {
        // Clearing the fault = a fresh Cloud + Env over the same dir;
        // it recovers exactly the records that were durable before
        // the latch (the faulted ingest's bytes were dropped with the
        // dirty tail, so it is NOT half-applied).
        cloud.reset();
        sim::Cloud recovered(script::config(dir.path.string(), {}),
                             script::base());
        durable = recovered.totalIngested();
        EXPECT_FALSE(recovered.persistence()->diskFaulted());
        EXPECT_EQ(durable, static_cast<size_t>(i));
    }
    ScrubReport report = scrubStateDir(dir.path);
    EXPECT_TRUE(report.ok) << (report.issues.empty()
                                   ? ""
                                   : report.issues[0]);
}

// ---- incremental snapshot chain + GC --------------------------------

TEST_F(DiskFaultCloudTest, DeltaChainRecoversSameStateAsFullChain)
{
    // fullEvery = 1 (every snapshot full, the pre-chain behaviour)
    // and fullEvery = 8 (mostly deltas) must recover identical state.
    TempDir full_dir("chain_full");
    TempDir delta_dir("chain_delta");
    auto full_cloud = script::drive(full_dir.path.string(), {},
                                       nullptr, nullptr,
                                       /*full_every=*/1);
    auto delta_cloud = script::drive(delta_dir.path.string(), {},
                                        nullptr, nullptr,
                                        /*full_every=*/8);
    CloudState want = script::capture(*full_cloud);
    script::expectStateEq(script::capture(*delta_cloud), want, "live");

    // The delta run actually produced deltas; the full run none.
    size_t full_deltas = 0, delta_deltas = 0;
    for (const auto &ent : fs::directory_iterator(full_dir.path))
        if (ent.path().extension() == ".delta")
            ++full_deltas;
    for (const auto &ent : fs::directory_iterator(delta_dir.path))
        if (ent.path().extension() == ".delta")
            ++delta_deltas;
    EXPECT_EQ(full_deltas, 0u);
    EXPECT_GT(delta_deltas, 0u);

    full_cloud.reset();
    delta_cloud.reset();
    sim::Cloud full_re(script::config(full_dir.path.string(), {}, 1),
                       script::base());
    sim::Cloud delta_re(script::config(delta_dir.path.string(), {}, 8),
                        script::base());
    script::expectStateEq(script::capture(full_re), want, "full/reopen");
    script::expectStateEq(script::capture(delta_re), want, "delta/reopen");
}

TEST_F(DiskFaultCloudTest, SnapshotGcKeepsOnlyTheRecoveryChain)
{
    // With every snapshot full, each commit supersedes the previous
    // chain entirely: GC must fire, and what survives must still be a
    // complete recovery chain.
    TempDir dir("gc");
    auto cloud = script::drive(dir.path.string(), {}, nullptr,
                                  nullptr, /*full_every=*/1);
    ASSERT_GT(cloud->persistence()->snapshotGcRemoved(), 0u);
    uint64_t head = cloud->persistence()->chainHeadId();
    ASSERT_GT(head, 0u);
    CloudState live = script::capture(*cloud);
    cloud.reset();

    // Safety invariant: nothing the recovery chain needs was removed.
    size_t chain_files = 0;
    for (const auto &ent : fs::directory_iterator(dir.path)) {
        auto parsed = parseChainFileName(ent.path().filename().string());
        if (!parsed.has_value())
            continue;
        ++chain_files;
        EXPECT_GE(parsed->first, head); // only the head survives GC
    }
    EXPECT_EQ(chain_files, 1u);
    ScrubReport report = scrubStateDir(dir.path);
    EXPECT_TRUE(report.ok) << (report.issues.empty()
                                   ? ""
                                   : report.issues[0]);
    sim::Cloud reopened(script::config(dir.path.string(), {}, 1),
                        script::base());
    script::expectStateEq(script::capture(reopened), live, "gc/reopen");
}

// ---- scrubber -------------------------------------------------------

TEST_F(DiskFaultCloudTest, ScrubFlagsCorruptionCleanDirPasses)
{
    TempDir dir("scrub");
    auto cloud = script::drive(dir.path.string(), {}, nullptr,
                                  nullptr, /*full_every=*/8);
    cloud.reset();
    ScrubReport healthy = scrubStateDir(dir.path);
    EXPECT_TRUE(healthy.ok);
    EXPECT_TRUE(healthy.issues.empty());
    EXPECT_GT(healthy.chainFiles, 0u);
    EXPECT_GT(healthy.chainLength, 0u);

    // Flip one byte inside a chain file's payload: the scrub must
    // turn it into a hard issue, not a note.
    fs::path victim;
    for (const auto &ent : fs::directory_iterator(dir.path))
        if (parseChainFileName(ent.path().filename().string())
                .has_value())
            victim = ent.path();
    ASSERT_FALSE(victim.empty());
    std::string bytes = readFile(victim);
    ASSERT_GT(bytes.size(), 40u);
    bytes[bytes.size() - 1] ^= 0x40;
    writeFile(victim, bytes);
    ScrubReport corrupt = scrubStateDir(dir.path);
    EXPECT_FALSE(corrupt.ok);
    EXPECT_FALSE(corrupt.issues.empty());
}

// ---- registry GC ----------------------------------------------------

TEST_F(DiskFaultCloudTest, RegistryGcSurvivesRecovery)
{
    TempDir dir("reggc");
    auto cloud =
        script::drive(dir.path.string(), {}, nullptr, nullptr);
    std::vector<int64_t> versions = cloud->registry().versionIds();
    ASSERT_GE(versions.size(), 2u)
        << "script must publish enough versions to GC";
    int64_t keep = versions.back();
    size_t evicted = cloud->gcRegistryBelow(keep);
    EXPECT_EQ(evicted, versions.size() - 1);
    EXPECT_EQ(cloud->registry().versionIds(),
              std::vector<int64_t>{keep});
    EXPECT_EQ(cloud->gcRegistryBelow(keep), 0u); // idempotent
    CloudState live = script::capture(*cloud);
    cloud.reset();

    // The eviction is WAL-logged: a cold reopen replays it and does
    // not resurrect the evicted blobs.
    sim::Cloud reopened(script::config(dir.path.string(), {}),
                        script::base());
    script::expectStateEq(script::capture(reopened), live, "reggc/reopen");
    EXPECT_EQ(reopened.registry().versionIds(),
              std::vector<int64_t>{keep});
    ScrubReport report = scrubStateDir(dir.path);
    EXPECT_TRUE(report.ok);
}

// ---- decoder fuzz ---------------------------------------------------

TEST_F(DiskFaultCloudTest, DecodersSurviveBitFlipsAndTruncations)
{
    // Corrupted durable bytes must decode to NazarError or a clean
    // truncation — never a crash, hang, or wild allocation. The Env's
    // fault kinds produce exactly these shapes (torn prefixes,
    // flipped sectors), so this is the decoder half of the sweep.
    TempDir dir("fuzz");
    {
        auto cloud = script::drive(dir.path.string(), {}, nullptr,
                                      nullptr, /*full_every=*/2);
    }
    std::vector<fs::path> targets;
    targets.push_back(dir.path / "wal.log");
    for (const auto &ent : fs::directory_iterator(dir.path))
        if (parseChainFileName(ent.path().filename().string())
                .has_value())
            targets.push_back(ent.path());
    ASSERT_GE(targets.size(), 2u);

    TempDir mutdir("fuzz_mut");
    Rng rng(20250807);
    for (int iter = 0; iter < 200; ++iter) {
        const fs::path &src = targets[rng.index(targets.size())];
        std::string bytes = readFile(src);
        ASSERT_FALSE(bytes.empty());
        if (rng.bernoulli(0.5)) {
            // Truncate to a random prefix (torn write / lost tail).
            bytes.resize(rng.index(bytes.size()));
        } else {
            // Flip 1-4 bits anywhere (flipped sector / bad cable).
            int flips = 1 + static_cast<int>(rng.index(4));
            for (int b = 0; b < flips; ++b)
                bytes[rng.index(bytes.size())] ^=
                    static_cast<char>(1u << rng.index(8));
        }
        fs::path mutated = mutdir.path / src.filename();
        writeFile(mutated, bytes);
        // Every decoder that could meet these bytes in production:
        try {
            WalScan scan = Wal::scan(mutated);
            (void)scan;
        } catch (const NazarError &) {
        }
        try {
            auto chain = loadChainFile(mutated);
            if (chain.has_value()) {
                if (chain->header.kind == ChainKind::kFull)
                    decodeSnapshot(chain->payload);
                else
                    decodeDeltaRecords(chain->payload);
            }
        } catch (const NazarError &) {
        }
        // And the full recovery pipeline over a dir containing the
        // mutated file in place of the healthy one.
        for (const fs::path &t : targets) {
            if (t.filename() == src.filename())
                continue;
            fs::copy_file(t, mutdir.path / t.filename(),
                          fs::copy_options::overwrite_existing);
        }
        try {
            (void)recoverDir(mutdir.path, /*dedup_window=*/8);
        } catch (const NazarError &) {
            // A broken chain link or corrupt record is a legitimate
            // hard error; crashing is not.
        }
        for (const auto &ent : fs::directory_iterator(mutdir.path))
            fs::remove(ent.path());
    }
}

TEST_F(DiskFaultCloudTest, DeltaRecordCodecRejectsMalformedPayloads)
{
    std::vector<WalRecord> records;
    WalRecord r;
    r.seq = 5;
    r.type = WalRecordType::kIngest;
    r.payload = "payload-a";
    records.push_back(r);
    r.seq = 9;
    r.type = WalRecordType::kFlush;
    r.payload = "";
    records.push_back(r);
    std::string enc = encodeDeltaRecords(records);
    std::vector<WalRecord> back = decodeDeltaRecords(enc);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].seq, 5u);
    EXPECT_EQ(back[0].payload, "payload-a");
    EXPECT_EQ(back[1].seq, 9u);
    EXPECT_EQ(back[1].type, WalRecordType::kFlush);

    // Truncation, non-increasing seqs, unknown types: all rejected.
    std::string torn = enc.substr(0, enc.size() / 2);
    EXPECT_THROW(decodeDeltaRecords(torn), NazarError);
    std::vector<WalRecord> bad_seq = records;
    bad_seq[1].seq = 5;
    EXPECT_THROW(decodeDeltaRecords(encodeDeltaRecords(bad_seq)),
                 NazarError);
}

TEST(ReadFileTest, AbsentEmptyUnreadableAndWhole)
{
    TempDir dir("read_file");
    writeFile(dir.path / "empty", "");
    fs::create_directories(dir.path / "sub");
    std::string bytes(200000, '\0');
    for (size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<char>(i * 31 + 7);
    writeFile(dir.path / "whole", bytes);
    // mapFile keeps readFile's contract; only where the bytes live
    // differs.
    for (auto read : {&persist::readFile, &persist::mapFile}) {
        SCOPED_TRACE(read == &persist::readFile ? "readFile" : "mapFile");
        FileBytes absent = read(dir.path / "absent");
        EXPECT_EQ(absent.size, 0u);
        EXPECT_FALSE(absent.unreadable); // absent is a fresh start
        FileBytes empty = read(dir.path / "empty");
        EXPECT_EQ(empty.size, 0u);
        EXPECT_FALSE(empty.unreadable);
        EXPECT_TRUE(read(dir.path / "sub").unreadable);
        FileBytes whole = read(dir.path / "whole");
        EXPECT_FALSE(whole.unreadable);
        EXPECT_EQ(whole.view(), bytes);
        // Moving keeps views into the bytes valid.
        std::string_view view = whole.view();
        FileBytes moved = std::move(whole);
        EXPECT_EQ(view.data(), moved.view().data());
    }
}

/** The bytes putUpload writes for @p up (for comparing uploads). */
std::string
uploadBytes(const UploadRecord &up)
{
    Writer w;
    putUpload(w, up);
    return w.take();
}

/** A kIngest payload whose upload context is written in the given
 *  column order (putAttributeSet always writes ascending columns). */
std::string
ingestWithContext(const std::vector<rca::Attribute> &context)
{
    Writer w;
    w.putU8(3); // has upload, from device
    w.putI64(2);
    w.putU64(5);
    putEntry(w, script::entry(4));
    w.putU64(1);
    w.putF64(0.5);
    w.putU32(static_cast<uint32_t>(context.size()));
    for (const rca::Attribute &attr : context) {
        w.putString(attr.column);
        putValue(w, attr.value);
    }
    w.putBool(true);
    return w.take();
}

TEST(IngestViewDifferential, ThrowsExactlyWhenTheFullDecodeThrows)
{
    // Replay decodes every kIngest record in place (viewIngest) and
    // builds only the rows it keeps. The in-place decode must refuse
    // exactly the payloads the materializing decode refuses, and agree
    // with it on the rest: every truncation and seeded byte flips of
    // payloads with and without an upload, with every Value type in
    // the upload context.
    std::vector<std::string> payloads;
    for (int i = 0; i < 24; ++i) {
        IngestRecord rec{i % 5 == 0 ? -1 : i % 3, static_cast<uint64_t>(i),
                         script::entry(i), script::upload(i)};
        if (rec.upload.has_value() && i % 2 == 0)
            rec.upload->context = rca::AttributeSet({
                {"a_null", driftlog::Value()},
                {"b_int", driftlog::Value(int64_t{-7})},
                {"c_double", driftlog::Value(2.5)},
                {"d_bool", driftlog::Value(true)},
                {"e_string", driftlog::Value("snow")},
            });
        payloads.push_back(CloudPersistence::encodeIngest(rec));
    }
    // Out of column order: legal; a repeated column: refused.
    payloads.push_back(ingestWithContext(
        {{"weather", driftlog::Value("rain")},
         {"location", driftlog::Value("tibet")}}));
    payloads.push_back(ingestWithContext(
        {{"weather", driftlog::Value("rain")},
         {"location", driftlog::Value("tibet")},
         {"weather", driftlog::Value("snow")}}));

    Rng rng(20261018);
    size_t refused = 0;
    size_t accepted = 0;
    for (const std::string &payload : payloads) {
        std::vector<std::string> mutants{payload};
        for (size_t len = 0; len < payload.size(); ++len)
            mutants.push_back(payload.substr(0, len));
        for (int k = 0; k < 300; ++k) {
            std::string m = payload;
            int flips = 1 + static_cast<int>(rng.index(3));
            for (int f = 0; f < flips; ++f)
                m[rng.index(m.size())] =
                    static_cast<char>(rng.index(256));
            mutants.push_back(std::move(m));
        }
        for (const std::string &m : mutants) {
            std::optional<IngestRecord> full;
            std::optional<IngestView> view;
            try {
                full = oracle::decodeIngest(m);
            } catch (const NazarError &) {
            }
            try {
                view = viewIngest(m);
            } catch (const NazarError &) {
            }
            ASSERT_EQ(full.has_value(), view.has_value())
                << "payload of " << m.size() << " bytes";
            if (!full.has_value()) {
                ++refused;
                continue;
            }
            ++accepted;
            EXPECT_EQ(view->device, full->device);
            EXPECT_EQ(view->seq, full->seq);
            EXPECT_EQ(view->entry.time, full->entry.time);
            EXPECT_EQ(view->entry.deviceId, full->entry.deviceId);
            EXPECT_EQ(view->entry.deviceModel, full->entry.deviceModel);
            EXPECT_EQ(view->entry.location, full->entry.location);
            EXPECT_EQ(view->entry.weather, full->entry.weather);
            EXPECT_EQ(view->entry.modelVersion, full->entry.modelVersion);
            EXPECT_EQ(view->entry.drift, full->entry.drift);
            ASSERT_EQ(view->upload.has_value(), full->upload.has_value());
            if (full->upload.has_value()) {
                Reader r(*view->upload);
                EXPECT_EQ(uploadBytes(getUpload(r)),
                          uploadBytes(*full->upload));
                EXPECT_TRUE(r.atEnd());
            }
        }
    }
    EXPECT_GT(refused, 0u);
    EXPECT_GT(accepted, payloads.size());
    // The two hand-written contexts: order alone is fine, a repeated
    // column is not.
    EXPECT_NO_THROW(viewIngest(payloads[payloads.size() - 2]));
    EXPECT_THROW(viewIngest(payloads.back()), NazarError);
}

} // namespace
} // namespace nazar::persist
