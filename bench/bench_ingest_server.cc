/**
 * @file
 * Ingest-server throughput benchmark: group commit (maxBatch 256) vs
 * per-record commits (maxBatch 1) over a real TCP socket, reported as
 * JSON. Seeds BENCH_ingest_server.json.
 *
 * Each point stands up a persisted Cloud (WAL in fdatasync mode, so a
 * sync is a real kernel round-trip, not a stdio flush) behind the
 * IngestServer, then drives it with N chaos-free load-generator
 * clients. With maxBatch 1 the committer pays one WAL sync per
 * message; with 256 it batches whatever is queued and pays one sync
 * per batch. The
 * headline claim: with concurrent clients the committer's queue is
 * never empty, so batches grow and group commit pulls ahead — the
 * classic group-commit win — while recovered state stays identical
 * (tested in test_server.cc, byte-level in test_persist.cc).
 *
 * Each result row also carries the server-side per-stage latency
 * breakdown (queue wait, batch encode, WAL sync, ack write) read back
 * from the obs histograms, so the group-commit win is attributable to
 * a stage, not just visible in the end-to-end number.
 *
 * A final "recovery" point measures fault-tolerant ingest: an Env
 * crash plan kills the server mid-load while reconnect-enabled clients
 * stream, a harness rebuilds the Cloud from the state dir and
 * restarts the server on the same port, and the row reports the
 * kill-to-first-accepted-ack latency (client-observed outage) plus
 * the rebuild time and retransmit volume.
 *
 * Usage: bench_ingest_server [--quick] [--metrics-out=<path>]
 *                            [--trace-out=<trace.json>]
 *   --quick shrinks the workload (CI smoke run).
 */
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/error.h"
#include "net/ingest_client.h"
#include "server/ingest_server.h"
#include "server/load_gen.h"
#include "sim/cloud.h"

namespace {

using namespace nazar;

struct Row
{
    size_t maxBatch;
    size_t clients;
    double eventsPerSec;
    double p50Ms;
    double p99Ms;
    size_t messages;
    size_t batches;
    std::vector<server::StageStat> stages;
};

Row
runPoint(size_t max_batch, size_t clients, size_t events_per_client)
{
    // Each point gets a fresh registry so its stage histograms are not
    // polluted by the previous point's samples.
    obs::Registry::global().reset();
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("nazar_bench_ingest_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    nn::Classifier base(nn::Architecture::kResNet18, 8, 4, 1);
    sim::CloudConfig config;
    config.persist.dir = dir.string();
    config.persist.sync = persist::SyncMode::kFdatasync;
    sim::Cloud cloud(config, base);
    server::ServerConfig sc;
    sc.maxBatch = max_batch;
    server::IngestServer server(cloud, sc);
    server.start();

    server::LoadConfig load;
    load.port = server.port();
    load.clients = clients;
    load.eventsPerClient = events_per_client;
    server::LoadStats stats = server::runLoad(load);
    server.stop();
    NAZAR_CHECK(stats.reconciled, "benchmark run failed to reconcile");

    Row row;
    row.maxBatch = max_batch;
    row.clients = clients;
    row.eventsPerSec = stats.eventsPerSec;
    row.p50Ms = stats.p50Ms;
    row.p99Ms = stats.p99Ms;
    row.messages = stats.sent;
    row.batches = server.stats().batches;
    row.stages = stats.stages;
    std::filesystem::remove_all(dir);
    return row;
}

/** The fault-tolerance point: measured crash–restart recovery. */
struct RecoveryRow
{
    size_t clients = 0;
    size_t eventsPerClient = 0;
    /** Client-observed outage: SIGKILL-equivalent crash to the first
     *  accepted ack on a resumed connection. */
    double killToFirstAckMs = 0.0;
    /** Server-side share of the outage: Cloud rebuild from the state
     *  dir + same-port listener restart. */
    double rebuildMs = 0.0;
    uint64_t reconnects = 0;
    uint64_t resent = 0;
    uint64_t resumedLanded = 0;
    uint64_t accepted = 0;
    bool reconciled = false;
};

RecoveryRow
runRecoveryPoint(size_t clients, size_t events_per_client)
{
    obs::Registry::global().reset();
    std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("nazar_bench_recover_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    nn::Classifier base(nn::Architecture::kResNet18, 8, 4, 1);
    sim::CloudConfig config;
    config.persist.dir = dir.string();
    // kFlush (the default): the fault model here is a process kill,
    // not a power cut, and the recovery row should measure replay and
    // reconnect cost rather than per-record fdatasync throughput.
    // Every record is one WAL write (the header is write 1), so
    // tearing write clients*events/2 fires deterministically halfway
    // through the load.
    config.persist.fault = {
        "env.wal.write",
        static_cast<uint64_t>(clients * events_per_client / 2),
        persist::FaultKind::kCrash};
    auto cloud = std::make_unique<sim::Cloud>(config, base);
    auto server = std::make_unique<server::IngestServer>(*cloud);
    server->start();
    const uint16_t port = server->port();

    using Clock = std::chrono::steady_clock;
    std::atomic<bool> crashed{false};
    Clock::time_point crash_time; // written before `crashed` release
    std::mutex first_mutex;
    double first_ack_ms = -1.0;

    net::ReconnectPolicy policy;
    policy.enabled = true;
    policy.maxAttempts = 400;
    policy.backoffBaseMs = 1.0;
    policy.backoffCapMs = 20.0;

    std::atomic<uint64_t> accepted{0};
    std::atomic<uint64_t> reconnects{0};
    std::atomic<uint64_t> resent{0};
    std::atomic<uint64_t> resumed_landed{0};
    std::atomic<bool> ok{true};
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            try {
                net::IngestClient client(
                    port, {}, "bench-recover-" + std::to_string(c),
                    policy);
                bool sampled = false;
                client.setAckObserver([&](const net::WireAck &a) {
                    // First accepted ack on a resumed connection:
                    // pre-crash acks can't qualify (reconnects == 0
                    // until the resume handshake lands), and resume
                    // pass-1 credits never reach the observer.
                    if (sampled || !a.accepted ||
                        client.stats().reconnects == 0 ||
                        !crashed.load(std::memory_order_acquire))
                        return;
                    sampled = true;
                    double ms =
                        std::chrono::duration<double, std::milli>(
                            Clock::now() - crash_time)
                            .count();
                    std::lock_guard<std::mutex> lock(first_mutex);
                    if (first_ack_ms < 0.0 || ms < first_ack_ms)
                        first_ack_ms = ms;
                });
                for (size_t e = 0; e < events_per_client; ++e) {
                    persist::IngestRecord m;
                    m.device = 2000 + static_cast<int64_t>(c);
                    m.seq = e + 1;
                    m.entry.time = SimDate(
                        static_cast<int>(e / 288),
                        static_cast<int>(e % 288) * 300);
                    m.entry.deviceId =
                        "bench-recover-" + std::to_string(c);
                    m.entry.location = "park";
                    m.entry.modelVersion = 1;
                    client.sendIngest(m);
                }
                client.bye();
                accepted += client.stats().acksAccepted;
                reconnects += client.stats().reconnects;
                resent += client.stats().resent;
                resumed_landed += client.stats().resumedLanded;
                if (client.stats().acksAccepted !=
                    client.stats().sent)
                    ok = false;
            } catch (const NazarError &) {
                ok = false;
            }
        });
    }

    // The supervisor: wait for the injected crash, rebuild the Cloud
    // from the state dir, restart the listener on the same port.
    NAZAR_CHECK(server->waitCrashed(std::chrono::seconds(60)),
                "recovery bench: armed crash never fired");
    crash_time = Clock::now();
    crashed.store(true, std::memory_order_release);
    server->stop();
    server.reset();
    cloud.reset(); // release the WAL before re-opening the dir
    sim::CloudConfig recovered = config;
    recovered.persist.fault = {};
    cloud = std::make_unique<sim::Cloud>(recovered, base);
    server::ServerConfig rc;
    rc.port = port;
    server = std::make_unique<server::IngestServer>(*cloud, rc);
    server->start();
    double rebuild_ms = std::chrono::duration<double, std::milli>(
                            Clock::now() - crash_time)
                            .count();

    for (auto &t : threads)
        t.join();
    server->stop();

    RecoveryRow row;
    row.clients = clients;
    row.eventsPerClient = events_per_client;
    {
        std::lock_guard<std::mutex> lock(first_mutex);
        row.killToFirstAckMs = first_ack_ms;
    }
    row.rebuildMs = rebuild_ms;
    row.reconnects = reconnects;
    row.resent = resent;
    row.resumedLanded = resumed_landed;
    row.accepted = accepted;
    row.reconciled =
        ok && cloud->totalIngested() ==
                  static_cast<size_t>(accepted.load());
    NAZAR_CHECK(row.reconciled,
                "recovery bench failed to reconcile");
    server.reset();
    cloud.reset();
    std::filesystem::remove_all(dir);
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
    bench::MetricsExport metrics(argc, argv);
    bench::TraceExport trace(argc, argv);
    bench::QuietLogs quiet;
    setLogLevel(LogLevel::kSilent);

    const size_t events_per_client = quick ? 250 : 1500;
    const std::vector<size_t> client_counts =
        quick ? std::vector<size_t>{1, 4}
              : std::vector<size_t>{1, 2, 4, 8};

    std::vector<Row> rows;
    for (size_t max_batch : {size_t{1}, size_t{256}})
        for (size_t clients : client_counts)
            rows.push_back(runPoint(max_batch, clients,
                                    events_per_client));
    const size_t recovery_events = quick ? 600 : 2000;
    RecoveryRow recovery = runRecoveryPoint(4, recovery_events);

    std::printf("{\n");
    std::printf("  \"bench\": \"ingest_server\",\n");
    std::printf("  \"quick\": %s,\n", quick ? "true" : "false");
    std::printf("  \"eventsPerClient\": %zu,\n", events_per_client);
    std::printf("  \"syncMode\": \"fdatasync\",\n");
    std::printf("  %s,\n", bench::hostMetaJson("fdatasync").c_str());
    std::printf("  \"results\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::printf(
            "    {\"maxBatch\": %zu, \"clients\": %zu, "
            "\"eventsPerSec\": %.0f, \"p50Ms\": %.3f, "
            "\"p99Ms\": %.3f, \"messages\": %zu, \"batches\": %zu,\n",
            r.maxBatch, r.clients,
            r.eventsPerSec, r.p50Ms, r.p99Ms, r.messages, r.batches);
        std::printf("     \"stages\": [");
        for (size_t s = 0; s < r.stages.size(); ++s) {
            const server::StageStat &st = r.stages[s];
            std::printf("%s\n      {\"stage\": \"%s\", "
                        "\"count\": %llu, \"p50Ms\": %.4f, "
                        "\"p99Ms\": %.4f, \"meanMs\": %.4f}",
                        s == 0 ? "" : ",", st.name.c_str(),
                        static_cast<unsigned long long>(st.count),
                        st.p50Ms, st.p99Ms, st.meanMs);
        }
        std::printf("]}%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::printf("  ],\n");
    std::printf(
        "  \"recovery\": {\"clients\": %zu, "
        "\"eventsPerClient\": %zu, \"killToFirstAckMs\": %.3f, "
        "\"rebuildMs\": %.3f, \"reconnects\": %llu, "
        "\"resent\": %llu, \"resumedLanded\": %llu, "
        "\"accepted\": %llu, \"reconciled\": %s}\n",
        recovery.clients, recovery.eventsPerClient,
        recovery.killToFirstAckMs, recovery.rebuildMs,
        static_cast<unsigned long long>(recovery.reconnects),
        static_cast<unsigned long long>(recovery.resent),
        static_cast<unsigned long long>(recovery.resumedLanded),
        static_cast<unsigned long long>(recovery.accepted),
        recovery.reconciled ? "true" : "false");
    std::printf("}\n");
    return 0;
}
