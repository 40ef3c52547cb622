/**
 * @file
 * End-to-end tests for the TCP ingest server: multi-client chaos
 * reconciliation, group commit vs per-record durability equivalence,
 * flush and protocol-error edges, and a full remote-mode Runner
 * matching the in-process run window for window.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/logging.h"
#include "data/apps.h"
#include "driftlog/csv.h"
#include "net/ingest_client.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "persist/cloud_persist.h"
#include "server/ingest_server.h"
#include "server/load_gen.h"
#include "sim/runner.h"

namespace nazar::server {
namespace {

struct QuietLogs : ::testing::Test
{
    QuietLogs() { setLogLevel(LogLevel::kSilent); }
    ~QuietLogs() override { setLogLevel(LogLevel::kInfo); }
};

struct TempDir
{
    std::filesystem::path path;

    explicit TempDir(const std::string &tag)
        : path(std::filesystem::temp_directory_path() /
               ("nazar_server_" + tag + "_" +
                std::to_string(::getpid())))
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }

    ~TempDir() { std::filesystem::remove_all(path); }
};

nn::Classifier
tinyBase()
{
    return nn::Classifier(nn::Architecture::kResNet18, 8, 4, 1);
}

/**
 * The cloud's drift-log rows as sorted CSV lines: content-equal
 * clouds compare equal regardless of the (thread-dependent) arrival
 * interleaving of multi-client loads.
 */
std::vector<std::string>
sortedCsvLines(sim::Cloud &cloud)
{
    std::ostringstream os;
    driftlog::writeCsv(cloud.driftLog().table(), os);
    std::vector<std::string> lines;
    std::istringstream is(os.str());
    std::string line;
    while (std::getline(is, line))
        lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    return lines;
}

using ServerTest = QuietLogs;

TEST_F(ServerTest, ChaoticClientsReconcileExactly)
{
    nn::Classifier base = tinyBase();
    sim::Cloud cloud(sim::CloudConfig{}, base);
    IngestServer server(cloud, ServerConfig{});
    server.start();

    LoadConfig load;
    load.port = server.port();
    load.clients = 4;
    load.eventsPerClient = 150;
    // Give-up needs maxAttempts consecutive drop draws; 0.5^4 over
    // 600 messages makes a zero-give-up run astronomically unlikely.
    load.chaos.dropProb = 0.5;
    load.chaos.dupProb = 0.2;
    load.chaos.seed = 7;
    LoadStats stats = runLoad(load);

    // Unique (device, seq) pairs: everything sent is accepted exactly
    // once, every chaos duplicate is dedup-rejected, nothing leaks.
    EXPECT_TRUE(stats.reconciled);
    EXPECT_GT(stats.sent, 0u);
    EXPECT_GT(stats.gaveUp, 0u); // chaos actually fired
    EXPECT_GT(stats.duplicates, 0u);
    EXPECT_EQ(stats.acksAccepted, stats.sent);
    EXPECT_EQ(stats.acksRejected, stats.duplicates);
    EXPECT_EQ(cloud.totalIngested(), stats.acksAccepted);
    EXPECT_EQ(cloud.dedupHits(), stats.acksRejected);
    // The dictionary earned its keep: most strings went as bare ids.
    EXPECT_GT(stats.dictHits, stats.dictStrings);

    server.stop();
    ServerStats ss = server.stats();
    EXPECT_EQ(ss.connections, 4u);
    EXPECT_EQ(ss.ingestMessages, stats.sent + stats.duplicates);
    EXPECT_EQ(ss.acksSent, ss.ingestMessages);
    EXPECT_EQ(ss.protocolErrors, 0u);
    EXPECT_GE(ss.batches, 1u);
    // Group commit did group: fewer batches than messages.
    EXPECT_LT(ss.batches, ss.ingestMessages);
}

TEST_F(ServerTest, GroupCommitRecoversTheSameStateAsPerRecord)
{
    // Same single-client stream into two persisted clouds, one group
    // committed (the default maxBatch) and one committed per record
    // (maxBatch = 1): a fresh cloud recovered from either directory
    // must be identical.
    auto runOne = [](const std::string &dir, size_t max_batch) {
        nn::Classifier base = tinyBase();
        sim::CloudConfig config;
        config.persist.dir = dir;
        config.persist.snapshotEvery = 64;
        sim::Cloud cloud(config, base);
        ServerConfig sc;
        sc.maxBatch = max_batch;
        IngestServer server(cloud, sc);
        server.start();
        LoadConfig load;
        load.port = server.port();
        load.clients = 1; // deterministic arrival order
        load.eventsPerClient = 200;
        LoadStats stats = runLoad(load);
        EXPECT_TRUE(stats.reconciled);
        server.stop();
    };
    TempDir group_dir("group");
    TempDir record_dir("record");
    runOne(group_dir.path.string(), ServerConfig{}.maxBatch);
    runOne(record_dir.path.string(), 1);

    auto recover = [](const std::string &dir) {
        nn::Classifier base = tinyBase();
        sim::CloudConfig config;
        config.persist.dir = dir;
        sim::Cloud cloud(config, base);
        std::ostringstream csv;
        driftlog::writeCsv(cloud.driftLog().table(), csv);
        return std::tuple(csv.str(), cloud.totalIngested(),
                          cloud.uploadCount(), cloud.dedupHits());
    };
    EXPECT_EQ(recover(group_dir.path.string()),
              recover(record_dir.path.string()));
}

TEST_F(ServerTest, FlushArchivesBuffersAndByeReportsTallies)
{
    nn::Classifier base = tinyBase();
    sim::Cloud cloud(sim::CloudConfig{}, base);
    IngestServer server(cloud);
    server.start();
    {
        net::IngestClient client(server.port());
        for (int i = 0; i < 10; ++i) {
            persist::IngestRecord m;
            m.device = 5;
            m.seq = static_cast<uint64_t>(i) + 1;
            m.entry.time = SimDate(i, 0);
            m.entry.deviceId = "dev-5";
            m.entry.location = "park";
            EXPECT_TRUE(client.sendIngest(m));
        }
        client.requestFlush();
        EXPECT_EQ(client.stats().acksAccepted, 10u);
        net::WireByeAck bye = client.bye();
        EXPECT_EQ(bye.totalIngested, 10u);
        EXPECT_EQ(bye.dedupHits, 0u);
    }
    EXPECT_EQ(cloud.driftLogSize(), 0u); // flush archived the buffer
    EXPECT_EQ(cloud.totalIngested(), 10u);
    server.stop();
    EXPECT_EQ(server.stats().flushes, 1u);
}

TEST_F(ServerTest, GarbageBytesDropTheConnectionNotTheServer)
{
    nn::Classifier base = tinyBase();
    sim::Cloud cloud(sim::CloudConfig{}, base);
    IngestServer server(cloud);
    server.start();
    {
        net::TcpStream bad = net::TcpStream::connect(server.port());
        std::string garbage(64, '\xff');
        EXPECT_TRUE(bad.sendBytes(garbage));
        // The server rejects the frame and shuts the socket; the
        // stream eventually reads EOF rather than hanging.
        while (bad.recvFrame().has_value()) {
        }
        EXPECT_TRUE(bad.eofSeen());
    }
    // A well-behaved client on the same server still works.
    {
        net::IngestClient client(server.port());
        persist::IngestRecord m;
        m.device = 1;
        m.seq = 1;
        m.entry.deviceId = "dev-1";
        EXPECT_TRUE(client.sendIngest(m));
        client.bye();
    }
    server.stop();
    EXPECT_EQ(server.stats().protocolErrors, 1u);
    EXPECT_EQ(cloud.totalIngested(), 1u);
}

TEST_F(ServerTest, AcksCoalesceIntoOneWritePerConnectionPerBatch)
{
    // A slow committer (commitDelayUs, slept after a batch is
    // dequeued) holds its first batch, one plug event, while one
    // thread sends the rest alternately on two connections; they pile
    // up behind it, so the next batch spans the two connections. Each
    // batch writes each connection's acks once, and every client
    // still reads its acks accepted and in its own send order.
    constexpr int kClients = 2;
    constexpr int kEvents = 120;
    auto send = [](net::IngestClient &client, int c, int e) {
        persist::IngestRecord m;
        m.device = 100 + c;
        m.seq = static_cast<uint64_t>(e) + 1;
        m.entry.time = SimDate(e, 0);
        m.entry.deviceId = "dev-" + std::to_string(c);
        EXPECT_TRUE(client.sendIngest(m));
    };
    auto run = [&send](size_t max_batch, int delay_us) -> ServerStats {
        nn::Classifier base = tinyBase();
        sim::Cloud cloud(sim::CloudConfig{}, base);
        ServerConfig sc;
        sc.maxBatch = max_batch;
        sc.commitDelayUs = delay_us;
        IngestServer server(cloud, sc);
        server.start();
        std::vector<std::unique_ptr<net::IngestClient>> clients;
        std::vector<std::vector<net::WireAck>> acks(kClients);
        for (int c = 0; c < kClients; ++c) {
            clients.push_back(
                std::make_unique<net::IngestClient>(server.port()));
            clients[c]->setAckObserver(
                [&acks, c](const net::WireAck &ack) {
                    acks[c].push_back(ack);
                });
        }
        send(*clients[0], 0, 0); // the plug
        if (delay_us > 0)
            std::this_thread::sleep_for(
                std::chrono::microseconds(delay_us / 6));
        for (int e = 0; e < kEvents; ++e)
            for (int c = 0; c < kClients; ++c)
                if (c > 0 || e > 0)
                    send(*clients[c], c, e);
        // A kBye queued between the two connections' ingests would cut
        // the batch, so say goodbye only once every ingest is acked.
        while (server.stats().acksSent <
               static_cast<uint64_t>(kClients * kEvents))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        for (auto &client : clients)
            client->bye();
        for (int c = 0; c < kClients; ++c) {
            std::vector<std::tuple<int64_t, uint64_t, bool>> got, want;
            for (const net::WireAck &ack : acks[c])
                got.emplace_back(ack.device, ack.seq, ack.accepted);
            for (int e = 0; e < kEvents; ++e)
                want.emplace_back(100 + c, static_cast<uint64_t>(e) + 1,
                                  true);
            EXPECT_EQ(got, want) << "client " << c;
        }
        server.stop();
        EXPECT_EQ(cloud.totalIngested(),
                  static_cast<size_t>(kClients * kEvents));
        return server.stats();
    };

    ServerStats grouped = run(ServerConfig{}.maxBatch, 300000);
    EXPECT_EQ(grouped.connections, static_cast<uint64_t>(kClients));
    EXPECT_EQ(grouped.acksSent, static_cast<uint64_t>(kClients * kEvents));
    EXPECT_LE(grouped.ackWrites, grouped.connections * grouped.batches);
    EXPECT_LT(grouped.ackWrites, grouped.acksSent);
    // Some batch did span both connections (two writes for it).
    EXPECT_GT(grouped.ackWrites, grouped.batches);

    // One ack per batch: one write per ack.
    ServerStats single = run(1, 0);
    EXPECT_EQ(single.batches, single.acksSent);
    EXPECT_EQ(single.ackWrites, single.acksSent);
}

TEST_F(ServerTest, StageHistogramsDecomposeIngestLatency)
{
    // With the server in-process, runLoad() reads the per-stage
    // latency histograms the reader/committer recorded into. Tracing
    // stays OFF here: stage attribution must not require the rings.
    obs::Registry::global().reset();
    obs::setEnabled(true);
    nn::Classifier base = tinyBase();
    sim::Cloud cloud(sim::CloudConfig{}, base);
    IngestServer server(cloud, ServerConfig{});
    server.start();

    LoadConfig load;
    load.port = server.port();
    load.clients = 2;
    load.eventsPerClient = 100;
    LoadStats stats = runLoad(load);
    server.stop();
    ASSERT_TRUE(stats.reconciled);

    ServerStats ss = server.stats();
    ASSERT_FALSE(stats.stages.empty());
    bool saw_queue_wait = false;
    bool saw_commit = false;
    for (const StageStat &stage : stats.stages) {
        EXPECT_GT(stage.count, 0u) << stage.name;
        EXPECT_GE(stage.p99Ms, stage.p50Ms) << stage.name;
        EXPECT_GE(stage.p50Ms, 0.0) << stage.name;
        if (stage.name == "server.queue_wait") {
            saw_queue_wait = true;
            // Every accepted message waited in the queue exactly once.
            EXPECT_EQ(stage.count, ss.ingestMessages);
        }
        if (stage.name == "server.commit") {
            saw_commit = true;
            // Batch stages are observed once per item.
            EXPECT_EQ(stage.count, ss.ingestMessages);
        }
    }
    EXPECT_TRUE(saw_queue_wait);
    EXPECT_TRUE(saw_commit);
    obs::Registry::global().reset();
}

TEST_F(ServerTest, TraceContextLinksClientToCommitterAcrossThreads)
{
    // One chaotic in-process run with tracing on: a device upload must
    // be followable as a single trace from the client's root span
    // through the server's reader and committer threads.
    obs::Registry::global().reset();
    obs::setEnabled(true);
    obs::setTracing(true);
    obs::clearTrace();

    nn::Classifier base = tinyBase();
    sim::Cloud cloud(sim::CloudConfig{}, base);
    IngestServer server(cloud, ServerConfig{});
    server.start();
    LoadConfig load;
    load.port = server.port();
    load.clients = 2;
    load.eventsPerClient = 60;
    load.chaos.dropProb = 0.2;
    load.chaos.dupProb = 0.1;
    load.chaos.seed = 7;
    LoadStats stats = runLoad(load);
    server.stop();
    ASSERT_TRUE(stats.reconciled);

    std::vector<obs::TraceEvent> events = obs::traceEvents();
    obs::setTracing(false);
    obs::clearTrace();
    ASSERT_FALSE(events.empty());

    // Pick any client root span and collect its trace.
    size_t linked_roots = 0;
    for (const obs::TraceEvent &root : events) {
        if (std::string(root.name) != "net.client.ingest")
            continue;
        ASSERT_EQ(root.parentId, 0u);
        std::set<std::string> names;
        std::set<size_t> tids;
        for (const obs::TraceEvent &e : events) {
            if (e.traceId != root.traceId)
                continue;
            names.insert(e.name);
            tids.insert(e.threadId);
        }
        if (names.count("server.queue_wait") &&
            names.count("server.commit") &&
            names.count("server.ack") && tids.size() >= 2)
            ++linked_roots;
    }
    // Every acked upload produced a root; all of them should have
    // linked server-side children, but a ring overflow can drop
    // events, so require only that cross-thread linkage happened at
    // scale rather than exactly universally.
    EXPECT_GT(linked_roots, 0u);
    obs::Registry::global().reset();
}

TEST_F(ServerTest, RemoteRunMatchesInProcessWindowForWindow)
{
    data::AppSpec app = data::makeAnimalsApp(13, 8);
    data::WeatherModel weather(app.locations, 21, 2020);
    sim::RunnerConfig config;
    config.arch = nn::Architecture::kResNet18;
    config.strategy = sim::Strategy::kNazar;
    config.windows = 2;
    config.workload.days = 21;
    config.workload.devicesPerLocation = 3;
    config.workload.imagesPerDevicePerDay = 3.0;
    config.train.epochs = 20;
    config.cloud.minAdaptSamples = 16;
    config.uploadSampleRate = 0.5;
    config.seed = 17;

    // One shared pretrained base so both runs (and the server's
    // cloud) hold identical weights.
    nn::Classifier base(config.arch, app.domain.featureDim(),
                        app.domain.numClasses(), config.seed);
    {
        Rng rng(config.seed);
        Rng data_rng = rng.fork();
        data::Dataset train = app.domain.makeBalancedDataset(
            app.trainPerClass, data_rng);
        base.trainSupervised(train.x, train.labels, config.train);
    }

    sim::RunResult local =
        sim::Runner(app, weather, config, &base).run();

    // The server's cloud gets the exact configuration the in-process
    // runner would have built.
    sim::CloudConfig cloud_config = config.cloud;
    cloud_config.ingestDedupWindow = config.faults.dedupWindow;
    sim::Cloud cloud(cloud_config, base);
    IngestServer server(cloud);
    server.start();
    sim::RunnerConfig remote_config = config;
    remote_config.remotePort = server.port();
    sim::RunResult remote =
        sim::Runner(app, weather, remote_config, &base).run();
    server.stop();

    ASSERT_EQ(remote.windows.size(), local.windows.size());
    for (size_t i = 0; i < local.windows.size(); ++i) {
        SCOPED_TRACE("window " + std::to_string(i));
        EXPECT_EQ(remote.windows[i].events, local.windows[i].events);
        EXPECT_EQ(remote.windows[i].correctAll,
                  local.windows[i].correctAll);
        EXPECT_EQ(remote.windows[i].correctDrifted,
                  local.windows[i].correctDrifted);
        EXPECT_EQ(remote.windows[i].flagged, local.windows[i].flagged);
        EXPECT_EQ(remote.windows[i].rootCauses,
                  local.windows[i].rootCauses);
        EXPECT_EQ(remote.windows[i].skippedCauses,
                  local.windows[i].skippedCauses);
        EXPECT_EQ(remote.windows[i].newVersions,
                  local.windows[i].newVersions);
        EXPECT_EQ(remote.windows[i].poolSize,
                  local.windows[i].poolSize);
    }
    // The telemetry really went over the wire into the server's cloud.
    EXPECT_GT(cloud.totalIngested(), 0u);
}

TEST_F(ServerTest, CrashRestartSweepMatchesUncrashedOracleExactly)
{
    nn::Classifier base = tinyBase();

    auto makeLoad = [](uint16_t port) {
        LoadConfig load;
        load.port = port;
        load.clients = 3;
        load.eventsPerClient = 120;
        load.chaos.dropProb = 0.3;
        load.chaos.dupProb = 0.1;
        load.chaos.seed = 21;
        load.reconnect.enabled = true;
        load.reconnect.backoffBaseMs = 2.0;
        load.reconnect.backoffCapMs = 50.0;
        load.reconnect.maxAttempts = 200;
        return load;
    };

    // The oracle: the same chaotic load against an uncrashed,
    // in-memory cloud. The chaos RNG consumes identical draws whether
    // or not a send throws (the dup draw happens before any send), so
    // the crash runs below must give up and duplicate the exact same
    // messages — the accepted set, and therefore the drift-log
    // content, must match the oracle's bit for bit.
    std::vector<std::string> oracle_lines;
    LoadStats oracle;
    {
        sim::Cloud cloud(sim::CloudConfig{}, base);
        IngestServer server(cloud);
        server.start();
        oracle = runLoad(makeLoad(server.port()));
        server.stop();
        ASSERT_TRUE(oracle.reconciled);
        oracle_lines = sortedCsvLines(cloud);
    }

    // One crash per durable-write boundary of the commit path. Hit 1
    // of the WAL's write, sync and dirsync is the fresh log's header,
    // so hit 2 is the first record's torn write, the first batch's
    // sync, and the first snapshot's WAL truncation.
    const persist::DiskFaultPlan plans[] = {
        {"env.wal.write", 2, persist::FaultKind::kCrash},
        {"env.wal.sync", 2, persist::FaultKind::kCrash},
        {"env.snap.write", 1, persist::FaultKind::kCrash},
        {"env.snap.sync", 1, persist::FaultKind::kCrash},
        {"env.snap.dirsync", 1, persist::FaultKind::kCrash},
        {"env.wal.dirsync", 2, persist::FaultKind::kCrash},
    };
    std::set<std::string> sites;
    for (const persist::DiskFaultPlan &plan : plans) {
        SCOPED_TRACE(plan.site + "/hit" + std::to_string(plan.hit));
        TempDir dir("sweep");
        auto cloudConfig = [&dir](const persist::DiskFaultPlan &fault) {
            sim::CloudConfig cc;
            cc.persist.dir = dir.path.string();
            cc.persist.snapshotEvery = 64;
            cc.persist.fault = fault;
            return cc;
        };
        auto cloud =
            std::make_unique<sim::Cloud>(cloudConfig(plan), base);
        auto server = std::make_unique<IngestServer>(*cloud);
        server->start();
        const uint16_t port = server->port();

        LoadStats stats;
        std::string load_error;
        std::atomic<bool> load_done{false};
        std::thread loader([&] {
            try {
                stats = runLoad(makeLoad(port));
            } catch (const NazarError &e) {
                load_error = e.what();
            }
            load_done = true;
        });
        bool restarted = false;
        while (!load_done.load()) {
            if (!restarted &&
                server->waitCrashed(std::chrono::milliseconds(10))) {
                sites.insert(server->crashSite());
                server->stop();
                server.reset();
                cloud.reset(); // release the WAL before recovery
                cloud = std::make_unique<sim::Cloud>(cloudConfig({}),
                                                     base);
                ServerConfig rc;
                rc.port = port; // clients reconnect to the same port
                server = std::make_unique<IngestServer>(*cloud, rc);
                server->start();
                restarted = true;
            } else if (restarted) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
            }
        }
        loader.join();
        ASSERT_TRUE(load_error.empty()) << load_error;
        ASSERT_TRUE(restarted) << "crash never fired";
        EXPECT_TRUE(stats.reconciled);
        EXPECT_EQ(stats.acksAccepted, stats.sent);
        EXPECT_EQ(stats.acksRejected, stats.duplicates);
        // runLoad sends nothing before all 3 handshakes finish, so
        // every client is connected when the crash fires and must
        // ride through it with a counted reconnect.
        EXPECT_GE(stats.reconnects, 3u);
        // The chaos RNG stayed aligned with the oracle run.
        EXPECT_EQ(stats.sent, oracle.sent);
        EXPECT_EQ(stats.gaveUp, oracle.gaveUp);
        EXPECT_EQ(stats.duplicates, oracle.duplicates);

        server->stop();
        // Exactly-once through the crash: accepted acks equal durable
        // rows. (No relation is asserted between the cloud's dedup
        // hits and acksRejected: a duplicate copy that died in the
        // crashed server's queue after its original landed is credited
        // its rejection during resume without a resend, so the server
        // never sees it — while crash retransmits of landed messages
        // add hits the client absorbs as resentRejected.)
        EXPECT_EQ(cloud->totalIngested(), stats.acksAccepted);
        EXPECT_EQ(sortedCsvLines(*cloud), oracle_lines);

        // Cold recovery of the directory agrees with what the clients
        // believe was accepted.
        server.reset();
        cloud.reset();
        persist::RecoveredState rec = persist::recoverDir(dir.path);
        EXPECT_EQ(rec.totalIngested, stats.acksAccepted);
    }
    EXPECT_TRUE(sites.count("env.wal.write"));
    EXPECT_TRUE(sites.count("env.wal.sync"));
    EXPECT_GE(sites.size(), 4u);
}

TEST_F(ServerTest, DiskFaultDegradesServerThenRestartReconciles)
{
    // An injected WAL-sync failure latches the committer's durability
    // layer. The server must NOT die: it stops acking, advises
    // clients kBusy, and reports diskFaulted() so a supervisor can
    // restart it over the recovered state — after which resuming
    // clients reconcile exactly-once, same as a crash restart.
    nn::Classifier base = tinyBase();
    TempDir dir("diskfault");
    auto cloudConfig = [&dir](persist::DiskFaultPlan fault) {
        sim::CloudConfig cc;
        cc.persist.dir = dir.path.string();
        cc.persist.snapshotEvery = 64;
        cc.persist.fault = std::move(fault);
        return cc;
    };
    // The sync path runs once per group-commit batch: hit 3 latches a
    // few batches into the load.
    auto cloud = std::make_unique<sim::Cloud>(
        cloudConfig({"env.wal.sync", 3, persist::FaultKind::kSyncFail}),
        base);
    auto server = std::make_unique<IngestServer>(*cloud, ServerConfig{});
    server->start();
    const uint16_t port = server->port();

    LoadConfig load;
    load.port = port;
    load.clients = 3;
    load.eventsPerClient = 120;
    load.chaos.seed = 33;
    load.reconnect.enabled = true;
    load.reconnect.backoffBaseMs = 2.0;
    load.reconnect.backoffCapMs = 50.0;
    load.reconnect.maxAttempts = 200;
    load.reconnect.recvTimeoutMs = 1000;

    LoadStats stats;
    std::string load_error;
    std::atomic<bool> load_done{false};
    std::thread loader([&] {
        try {
            stats = runLoad(load);
        } catch (const NazarError &e) {
            load_error = e.what();
        }
        load_done = true;
    });

    bool restarted = false;
    uint64_t faults_seen = 0;
    while (!load_done.load()) {
        if (!restarted &&
            server->waitDiskFaulted(std::chrono::milliseconds(10))) {
            // Latched, not dead: the server object is still running
            // and still reports its own demise coherently.
            EXPECT_TRUE(server->diskFaulted());
            EXPECT_EQ(server->diskFaultSite(), "env.wal.sync");
            server->stop();
            faults_seen = server->stats().diskFaults;
            server.reset();
            cloud.reset(); // release the WAL before recovery
            // The restart IS the fault-clear: fresh Env, recovery
            // from the last durable state (the dropped dirty tail is
            // simply unacknowledged work the clients resend).
            cloud = std::make_unique<sim::Cloud>(cloudConfig({}), base);
            ServerConfig rc;
            rc.port = port; // clients reconnect to the same port
            server = std::make_unique<IngestServer>(*cloud, rc);
            server->start();
            restarted = true;
        } else if (restarted) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }
    loader.join();
    ASSERT_TRUE(load_error.empty()) << load_error;
    ASSERT_TRUE(restarted) << "disk fault never latched";
    EXPECT_GE(faults_seen, 1u);
    EXPECT_TRUE(stats.reconciled);
    EXPECT_EQ(stats.acksAccepted, stats.sent);
    // At least one client was mid-stream at the latch and rode
    // through the restart (a client that drained all its events
    // before the fault never needs to reconnect).
    EXPECT_GE(stats.reconnects, 1u);

    server->stop();
    EXPECT_EQ(cloud->totalIngested(), stats.acksAccepted);
    server.reset();
    cloud.reset();
    // The poisoned-then-recovered directory is intact: the offline
    // scrub finds no integrity issues and cold recovery agrees with
    // the clients' view of what was accepted.
    persist::ScrubReport report = persist::scrubStateDir(dir.path);
    EXPECT_TRUE(report.ok)
        << (report.issues.empty() ? "" : report.issues[0]);
    persist::RecoveredState rec = persist::recoverDir(dir.path);
    EXPECT_EQ(rec.totalIngested, stats.acksAccepted);
}

TEST_F(ServerTest, BoundedQueueBackpressureHoldsUnderSlowCommitter)
{
    obs::Registry::global().reset();
    obs::setEnabled(true);
    nn::Classifier base = tinyBase();
    sim::Cloud cloud(sim::CloudConfig{}, base);
    ServerConfig sc;
    sc.maxQueue = 4;
    sc.commitDelayUs = 1500; // deliberately slow committer
    IngestServer server(cloud, sc);
    server.start();

    LoadConfig load;
    load.port = server.port();
    load.clients = 4;
    load.eventsPerClient = 150;
    LoadStats stats;
    std::string load_error;
    std::atomic<bool> done{false};
    std::thread loader([&] {
        try {
            stats = runLoad(load);
        } catch (const NazarError &e) {
            load_error = e.what();
        }
        done = true;
    });
    // Sample the queue-depth gauge while the load runs: the bound
    // must hold at every instant, not just at the end.
    obs::Gauge &depth =
        obs::Registry::global().gauge("server.queue_depth");
    double max_depth = 0.0;
    while (!done.load()) {
        max_depth = std::max(max_depth, depth.value());
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    loader.join();
    server.stop();
    ASSERT_TRUE(load_error.empty()) << load_error;

    // Backpressure throttles; it never loses or duplicates.
    EXPECT_TRUE(stats.reconciled);
    EXPECT_EQ(stats.sent, 600u);
    EXPECT_EQ(stats.acksAccepted, 600u);
    EXPECT_EQ(cloud.totalIngested(), 600u);
    EXPECT_LE(max_depth, static_cast<double>(sc.maxQueue));
    EXPECT_GE(max_depth, 1.0); // the queue really did fill
    ServerStats ss = server.stats();
    EXPECT_EQ(ss.ingestMessages, 600u);
    EXPECT_EQ(ss.protocolErrors, 0u);
    EXPECT_GE(ss.busySent, 1u);    // advisories went out...
    EXPECT_GE(stats.busySeen, 1u); // ...and the clients saw them
    obs::Registry::global().reset();
}

TEST_F(ServerTest, RemoteRunSurvivesMidRunRestartWindowForWindow)
{
    data::AppSpec app = data::makeAnimalsApp(13, 8);
    data::WeatherModel weather(app.locations, 21, 2020);
    sim::RunnerConfig config;
    config.arch = nn::Architecture::kResNet18;
    config.strategy = sim::Strategy::kNazar;
    config.windows = 2;
    config.workload.days = 21;
    config.workload.devicesPerLocation = 3;
    config.workload.imagesPerDevicePerDay = 3.0;
    config.train.epochs = 20;
    config.cloud.minAdaptSamples = 16;
    config.uploadSampleRate = 0.5;
    config.seed = 17;

    nn::Classifier base(config.arch, app.domain.featureDim(),
                        app.domain.numClasses(), config.seed);
    {
        Rng rng(config.seed);
        Rng data_rng = rng.fork();
        data::Dataset train = app.domain.makeBalancedDataset(
            app.trainPerClass, data_rng);
        base.trainSupervised(train.x, train.labels, config.train);
    }

    sim::RunResult local =
        sim::Runner(app, weather, config, &base).run();

    // The server's cloud persists to disk with a crash armed low: it
    // fires after the committer's second WAL batch is durable (sync
    // hit 1 is the log header), well inside window 1's stream and far
    // from any cycle commit.
    TempDir dir("remote_restart");
    sim::CloudConfig cloud_config = config.cloud;
    cloud_config.ingestDedupWindow = config.faults.dedupWindow;
    cloud_config.persist.dir = dir.path.string();
    cloud_config.persist.snapshotEvery = 128;
    cloud_config.persist.fault = {"env.wal.sync", 3,
                                  persist::FaultKind::kCrash};
    auto cloud = std::make_unique<sim::Cloud>(cloud_config, base);
    auto server = std::make_unique<IngestServer>(*cloud);
    server->start();
    const uint16_t port = server->port();

    sim::RunnerConfig remote_config = config;
    remote_config.remotePort = port;
    remote_config.remoteReconnect.enabled = true;
    remote_config.remoteReconnect.backoffBaseMs = 2.0;
    remote_config.remoteReconnect.backoffCapMs = 50.0;
    remote_config.remoteReconnect.maxAttempts = 400;

    std::atomic<bool> run_done{false};
    std::atomic<bool> restarted{false};
    std::thread harness([&] {
        while (!run_done.load()) {
            if (server->waitCrashed(std::chrono::milliseconds(10))) {
                server->stop();
                server.reset();
                cloud.reset(); // release the WAL before recovery
                sim::CloudConfig recovered = cloud_config;
                recovered.persist.fault = {};
                cloud = std::make_unique<sim::Cloud>(recovered, base);
                ServerConfig rc;
                rc.port = port;
                server = std::make_unique<IngestServer>(*cloud, rc);
                server->start();
                restarted = true;
                return;
            }
        }
    });
    sim::RunResult remote =
        sim::Runner(app, weather, remote_config, &base).run();
    run_done = true;
    harness.join();
    server->stop();
    ASSERT_TRUE(restarted.load()) << "crash never fired mid-run";

    // Crash, reconnect, resume, retransmit — and the run is still
    // indistinguishable from the in-process one, window for window.
    ASSERT_EQ(remote.windows.size(), local.windows.size());
    for (size_t i = 0; i < local.windows.size(); ++i) {
        SCOPED_TRACE("window " + std::to_string(i));
        EXPECT_EQ(remote.windows[i].events, local.windows[i].events);
        EXPECT_EQ(remote.windows[i].correctAll,
                  local.windows[i].correctAll);
        EXPECT_EQ(remote.windows[i].correctDrifted,
                  local.windows[i].correctDrifted);
        EXPECT_EQ(remote.windows[i].flagged, local.windows[i].flagged);
        EXPECT_EQ(remote.windows[i].rootCauses,
                  local.windows[i].rootCauses);
        EXPECT_EQ(remote.windows[i].skippedCauses,
                  local.windows[i].skippedCauses);
        EXPECT_EQ(remote.windows[i].newVersions,
                  local.windows[i].newVersions);
        EXPECT_EQ(remote.windows[i].poolSize,
                  local.windows[i].poolSize);
    }
    EXPECT_GT(cloud->totalIngested(), 0u);
}

TEST_F(ServerTest, MidFrameServerDeathSurfacesCleanlyThenResumes)
{
    // A "server" that dies mid-ack: handshake, read three ingests,
    // write HALF of a valid ack frame, sever. The client must surface
    // a clean error (no hang, no crash) — and with a reconnect policy
    // it must ride into a real server and deliver exactly once.
    auto fakeServeOnce = [](net::TcpListener &listener) {
        net::TcpStream peer = listener.accept();
        auto hello = peer.recvFrame(); // kHello
        if (!hello.has_value())
            return;
        peer.sendFrame(net::MsgType::kHelloAck,
                       net::encodeHelloAck(net::WireHelloAck{}));
        for (int i = 0; i < 3; ++i)
            peer.recvFrame();
        net::WireAck ack;
        ack.device = 7;
        ack.seq = 1;
        ack.accepted = true;
        std::string frame =
            net::encodeFrame(net::MsgType::kAck, net::encodeAck(ack));
        peer.sendBytes(frame.substr(0, frame.size() / 2));
        peer.close();
        listener.close();
    };
    auto sendThree = [](net::IngestClient &client) {
        for (int i = 0; i < 3; ++i) {
            persist::IngestRecord m;
            m.device = 7;
            m.seq = static_cast<uint64_t>(i) + 1;
            m.entry.time = SimDate(i, 0);
            m.entry.deviceId = "dev-7";
            m.entry.location = "park";
            EXPECT_TRUE(client.sendIngest(m));
        }
    };

    // Without a policy: a clean NazarError, not a hang.
    {
        net::TcpListener fake;
        fake.listen(0);
        std::thread fake_thread([&] { fakeServeOnce(fake); });
        net::IngestClient client(fake.port());
        sendThree(client);
        EXPECT_THROW(client.bye(), NazarError);
        fake_thread.join();
    }

    // With a policy: the torn ack triggers a resume; a real server
    // comes up on the same port and the retransmits land exactly once.
    {
        net::TcpListener fake;
        fake.listen(0);
        const uint16_t port = fake.port();
        std::thread fake_thread([&] { fakeServeOnce(fake); });
        net::ReconnectPolicy policy;
        policy.enabled = true;
        policy.backoffBaseMs = 2.0;
        policy.backoffCapMs = 20.0;
        policy.maxAttempts = 500;
        net::IngestClient client(port, {}, "resume-client", policy);
        sendThree(client);
        net::WireByeAck bye_ack;
        std::thread driver([&] { bye_ack = client.bye(); });
        fake_thread.join(); // the fake is dead, port is free
        nn::Classifier base = tinyBase();
        sim::Cloud cloud(sim::CloudConfig{}, base);
        ServerConfig sc;
        sc.port = port;
        IngestServer server(cloud, sc);
        server.start();
        driver.join();
        server.stop();
        EXPECT_EQ(bye_ack.totalIngested, 3u);
        EXPECT_EQ(cloud.totalIngested(), 3u);
        EXPECT_EQ(client.stats().sent, 3u);
        EXPECT_EQ(client.stats().acksAccepted, 3u);
        EXPECT_GE(client.stats().reconnects, 1u);
        EXPECT_EQ(client.stats().resent, 3u);
    }
}

TEST_F(ServerTest, SilentConnectionIsReapedByTheReceiveDeadline)
{
    nn::Classifier base = tinyBase();
    sim::Cloud cloud(sim::CloudConfig{}, base);
    ServerConfig sc;
    sc.readTimeoutMs = 100;
    IngestServer server(cloud, sc);
    server.start();
    {
        // Connect and say nothing: the reader's receive deadline must
        // reap the connection instead of pinning the thread forever.
        net::TcpStream silent = net::TcpStream::connect(server.port());
        auto frame = silent.recvFrame(); // blocks until the reap
        EXPECT_FALSE(frame.has_value());
        EXPECT_TRUE(silent.eofSeen());
    }
    // A live client on the same server is unaffected by the reap.
    {
        net::IngestClient client(server.port());
        persist::IngestRecord m;
        m.device = 1;
        m.seq = 1;
        m.entry.deviceId = "dev-1";
        EXPECT_TRUE(client.sendIngest(m));
        client.bye();
    }
    server.stop();
    ServerStats ss = server.stats();
    EXPECT_EQ(ss.readTimeouts, 1u);
    EXPECT_EQ(ss.protocolErrors, 0u); // a slow peer is not a bad peer
    EXPECT_EQ(cloud.totalIngested(), 1u);
}

} // namespace
} // namespace nazar::server
