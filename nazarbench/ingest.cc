/**
 * @file
 * ingest: networked ingest over loopback. An in-process IngestServer
 * fronts a persisted sim::Cloud (WAL in the default flush sync mode,
 * snapshots off); two IngestClient connections from this process send
 * seeded synthetic events with an upload on every 4th event.
 *
 * The timed phase is a series of rounds. Each round runs
 *   phase A  an open loop at a constant offered rate (Options::
 *            ingestRate, split across the clients) — latency is timed
 *            from each event's due time to its absorbed ack;
 *   phase B  a saturating send of a fixed burst per client —
 *            throughput is accepted acks over the summed time from
 *            each burst's start to its last ack;
 * then every client drains its acks and flushes the cloud's buffers, so
 * no backlog leaks into the next round and each round builds the same
 * in-memory state.
 *
 * IngestClient absorbs acks only inside sendIngest and at barriers, so
 * phase-A latency includes up to one per-client send interval; the
 * interval is reported next to it.
 */
#include <deque>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench_common.h"
#include "data/apps.h"
#include "events.h"
#include "net/ingest_client.h"
#include "nn/classifier.h"
#include "server/ingest_server.h"

namespace nbench {

namespace {

using namespace nazar;
namespace fs = std::filesystem;

constexpr int kClients = 2;
constexpr int kDevicesPerClient = 16;
/** Set-ups (~20 ms each) spread across the timed phase; they run at
 *  round edges, a few at a time. */
constexpr int kSetupReps = 36;
constexpr size_t kMaxQueue = 4096;       ///< Committer queue bound.
/** Phase-A backlog bound: a host stall may queue this much of the
 *  offered load; it stays under kMaxQueue, so backpressure engaging in
 *  phase A fails the check. */
constexpr double kBacklogSeconds = 0.25;
constexpr size_t kProbeBatch = 256;

/** Per-round sizes. */
struct Shape
{
    double phaseASeconds; ///< Open-loop phase of each round.
    int burst;            ///< Phase-B events per client per round.
    size_t pool;          ///< Pre-built events per client.
    /** Expected round length (A plus the burst at ~90k acks/s); sets
     *  the round count. */
    double nominalRoundSeconds;
};

sim::CloudConfig
cloudConfig(const std::string &dir)
{
    sim::CloudConfig config;
    config.persist.dir = dir;
    config.persist.snapshotEvery = 0; // snapshots off
    config.persist.sync = persist::SyncMode::kFlush;
    return config;
}

/** One client connection and its bookkeeping. */
struct Client
{
    struct InFlight
    {
        int64_t device;
        uint64_t seq;
        Clock::time_point due;
        bool phaseA;
    };

    /** @p pool: pre-generated events this client sends round-robin,
     *  each time with the device's next seq. */
    Client(uint16_t port, int index, std::vector<net::WireIngest> pool)
        : pool(std::move(pool)), seqs(kDevicesPerClient, 0),
          firstDevice(index * kDevicesPerClient),
          conn(std::make_unique<net::IngestClient>(
              port, net::FaultConfig{},
              "bench-" + std::to_string(index)))
    {
        conn->setAckObserver([this](const net::WireAck &ack) {
            onAck(ack);
        });
    }

    // The ack observer holds `this`.
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    void
    onAck(const net::WireAck &ack)
    {
        auto now = Clock::now();
        if (fifo.empty() || fifo.front().device != ack.device ||
            fifo.front().seq != ack.seq || !ack.accepted) {
            ++badAcks;
            if (!fifo.empty())
                fifo.pop_front();
            return;
        }
        const InFlight f = fifo.front();
        fifo.pop_front();
        if (f.phaseA)
            latencyMs.push_back(msBetween(f.due, now));
        else if (inB) {
            ++bAcks;
            lastBAck = now;
        }
    }

    void
    send(Clock::time_point due, bool phase_a)
    {
        net::WireIngest m = pool[next++ % pool.size()];
        m.seq = ++seqs[static_cast<size_t>(m.device - firstDevice)];
        fifo.push_back({m.device, m.seq, due, phase_a});
        auto t0 = Clock::now();
        if (!conn->sendIngest(m))
            ++badAcks; // no chaos is configured: nothing may be dropped
        sendUs += msSince(t0) * 1e3;
        ++sends;
    }

    std::vector<net::WireIngest> pool;
    size_t next = 0;
    std::vector<uint64_t> seqs; ///< Last seq sent, per device.
    int64_t firstDevice;
    std::unique_ptr<net::IngestClient> conn;
    std::deque<InFlight> fifo;
    std::vector<double> latencyMs;      ///< Phase A, due → ack.
    std::vector<double> latenessMs;     ///< Phase A, due → send.
    uint64_t bAcks = 0;                   ///< Phase-B acks this burst.
    Clock::time_point lastBAck;
    bool inB = false;
    uint64_t badAcks = 0;
    double maxOutstanding = 0.0;
    double maxQueueDepth = 0.0;
    double sendUs = 0.0; ///< Summed sendIngest wall time.
    uint64_t sends = 0;
};

/** The persisted cloud, its ingest server and the clients. Members are
 *  destroyed clients first, then the server, then the cloud it fronts. */
struct Service
{
    std::unique_ptr<sim::Cloud> cloud;
    std::unique_ptr<server::IngestServer> server;
    std::vector<std::unique_ptr<Client>> clients;
    uint64_t busyInA = 0; ///< kBusy advisories sent during phase A.
};

std::unique_ptr<Service>
setUp(const std::string &dir, const nn::Classifier &base, uint64_t seed,
      size_t pool_size)
{
    // The load generator pre-builds its requests.
    std::vector<std::vector<net::WireIngest>> pools(kClients);
    for (int c = 0; c < kClients; ++c) {
        EventSource source(deriveSeed(seed, 10 + c), c * kDevicesPerClient,
                           kDevicesPerClient);
        for (size_t i = 0; i < pool_size; ++i)
            pools[c].push_back(source.next());
    }
    auto s = std::make_unique<Service>();
    fs::remove_all(dir);
    s->cloud = std::make_unique<sim::Cloud>(cloudConfig(dir), base);
    server::ServerConfig sc;
    sc.maxQueue = kMaxQueue;
    s->server = std::make_unique<server::IngestServer>(*s->cloud, sc);
    s->server->start();
    for (int c = 0; c < kClients; ++c)
        s->clients.push_back(std::make_unique<Client>(
            s->server->port(), c, std::move(pools[c])));
    return s;
}

/** Run @p body(client) on one thread per client, then join. */
template <typename F>
void
onClients(Service &s, F body)
{
    std::vector<std::thread> threads;
    std::vector<std::string> errors(s.clients.size());
    for (size_t i = 0; i < s.clients.size(); ++i)
        threads.emplace_back([&, i] {
            try {
                body(*s.clients[i]);
            } catch (const std::exception &e) {
                errors[i] = e.what();
            }
        });
    for (auto &t : threads)
        t.join();
    for (const auto &e : errors)
        if (!e.empty())
            throw std::runtime_error("ingest client: " + e);
}

void
phaseA(Service &s, double seconds, double rate)
{
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kClients / rate));
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    static obs::Gauge &depth =
        obs::Registry::global().gauge("server.queue_depth");
    const uint64_t busy0 = s.server->stats().busySent;
    onClients(s, [&](Client &c) {
        for (auto due = start; due < end; due += interval) {
            std::this_thread::sleep_until(due);
            c.latenessMs.push_back(msSince(due));
            c.send(due, true);
            c.maxOutstanding = std::max(
                c.maxOutstanding, double(c.conn->outstandingAcks()));
            c.maxQueueDepth = std::max(c.maxQueueDepth, depth.value());
        }
    });
    s.busyInA += s.server->stats().busySent - busy0;
}

/** Accepted acks of the phase-B bursts and the time they took. */
struct Bursts
{
    double acks = 0.0;
    double seconds = 0.0;       ///< Burst start → its last ack, summed.
    std::vector<double> ratesPerS; ///< One rate per burst (info only).
};

/**
 * Saturating send of @p burst events per client — a fixed count, so
 * the in-memory state a round builds up is the same on every run —
 * then each client drains its acks and flushes the cloud's buffers
 * (the kFlush window edge). Adds the burst's accepted acks and the
 * time from its start to its last ack to @p out.
 */
void
phaseB(Service &s, int burst, Bursts &out)
{
    const auto start = Clock::now();
    onClients(s, [&](Client &c) {
        c.bAcks = 0;
        c.inB = true;
        for (int i = 0; i < burst; ++i)
            c.send(Clock::now(), false);
        c.conn->requestFlush(); // absorbs the remaining acks first
        c.inB = false;
    });
    double acks = 0.0;
    auto last = start;
    for (const auto &c : s.clients) {
        acks += double(c->bAcks);
        last = std::max(last, c->lastBAck);
    }
    const double seconds = msBetween(start, last) / 1e3;
    out.acks += acks;
    out.seconds += seconds;
    out.ratesPerS.push_back(acks / seconds);
}

struct Phases
{
    std::vector<double> latencyMs; ///< Phase A, all clients.
    Bursts bursts;                 ///< Phase B.
};

/**
 * Rounds of A then B filling about @p seconds. The round count follows
 * from @p seconds and the nominal round length alone, not from how
 * fast rounds run, so every run sends the same events and builds the
 * same state (and peak RSS) on a fast host or a slow one. After each
 * round, @p spare_setups runs the set-ups then due.
 */
template <typename SpareSetups>
Phases
rounds(Service &s, double seconds, const Shape &shape, double rate,
       SpareSetups spare_setups, bool trace_a = false)
{
    for (auto &c : s.clients)
        c->latencyMs.clear();
    Phases out;
    const int count = std::max(
        2, static_cast<int>(seconds / shape.nominalRoundSeconds + 0.5));
    for (int r = 0; r < count; ++r) {
        obs::setTracing(trace_a);
        phaseA(s, shape.phaseASeconds, rate);
        obs::setTracing(false);
        phaseB(s, shape.burst, out.bursts);
        spare_setups();
    }
    for (const auto &c : s.clients)
        out.latencyMs.insert(out.latencyMs.end(), c->latencyMs.begin(),
                             c->latencyMs.end());
    return out;
}

/** Median wall (ms) of Cloud::ingestBatchFrom on a fixed batch. */
double
probeIngestBatch(const std::string &dir, const nn::Classifier &base,
                 uint64_t seed, Report &report)
{
    fs::remove_all(dir);
    std::vector<double> ms;
    {
        sim::Cloud cloud(cloudConfig(dir), base);
        EventSource source(seed, 0, kDevicesPerClient);
        for (int i = 0; i < 48; ++i) {
            std::vector<sim::IngestMessage> batch;
            for (size_t k = 0; k < kProbeBatch; ++k)
                batch.push_back(toMessage(source.next()));
            auto t0 = Clock::now();
            std::vector<bool> ok = cloud.ingestBatchFrom(std::move(batch));
            ms.push_back(msSince(t0));
            report.attempted(1);
            report.check(std::count(ok.begin(), ok.end(), true) ==
                             static_cast<long>(kProbeBatch),
                         "ingest: probe batch not fully accepted");
        }
    }
    fs::remove_all(dir);
    return median(ms);
}

} // namespace

void
runIngest(const Options &opts, Report &report)
{
    const std::string dir = opts.workDir + "/ingest-state";
    const double seconds = opts.seconds;
    if (opts.ingestRate * kBacklogSeconds >= double(kMaxQueue))
        throw std::invalid_argument("--ingest-rate: a quarter second of "
                                    "it must stay under the queue bound");
    const Shape shape = opts.tiny ? Shape{0.1, 512, 512, 0.12}
                                  : Shape{1.0, 32768, 16384, 1.7};
    data::AppSpec app = data::makeCityscapesApp(deriveSeed(opts.seed, 1));
    nn::Classifier base(nn::Architecture::kResNet18,
                        app.domain.featureDim(), app.domain.numClasses(),
                        deriveSeed(opts.seed, 2));

    // The traced run sets up once.
    SetupSchedule setups(opts.trace ? 0 : kSetupReps);
    std::unique_ptr<Service> s;
    setups.time([&] { s = setUp(dir, base, opts.seed, shape.pool); });
    report.info("host", hostJson(opts, 0, kClients, dir));
    // Later set-ups build a spare service beside the measured one, time
    // it, and take it down again.
    const std::string spare_dir = dir + "-spare";
    auto spare_setups = [&] {
        while (setups.due()) {
            std::unique_ptr<Service> spare;
            setups.time([&] {
                spare = setUp(spare_dir, base, opts.seed, shape.pool);
            });
            spare.reset();
            fs::remove_all(spare_dir);
        }
    };

    // Warm-up: one round at the offered rate and saturated.
    phaseA(*s, shape.phaseASeconds, opts.ingestRate);
    Bursts warm;
    phaseB(*s, shape.burst, warm);
    for (auto &c : s->clients) {
        c->latenessMs.clear();
        c->maxOutstanding = c->maxQueueDepth = 0.0;
    }
    s->busyInA = 0;

    std::map<std::string, double> layers;
    Phases phases;
    setups.start(seconds);
    if (!opts.trace) {
        phases = rounds(*s, seconds, shape, opts.ingestRate, spare_setups);
    } else {
        Phases plain =
            rounds(*s, seconds / 2, shape, opts.ingestRate, spare_setups);
        resetObs();
        obs::setThreadName("main");
        // The committer records four spans per phase-A event on one
        // ring; size it so a 15 s run's traced half drops none.
        obs::setTraceCapacity(1 << 19);
        for (auto &c : s->clients)
            c->sendUs = 0.0, c->sends = 0;
        const uint64_t ingested0 = s->cloud->totalIngested();
        phases = rounds(*s, seconds / 2, shape, opts.ingestRate,
                        spare_setups, true);
        ObsView v;
        const double events =
            double(s->cloud->totalIngested() - ingested0);
        // Exact queue waits of the traced (phase-A) items.
        std::vector<double> waits =
            eventDurationsMs(obs::traceEvents(), "server.queue_wait");
        double send_us = 0.0, sends = 0.0, hits = 0.0, strings = 0.0;
        for (const auto &c : s->clients) {
            send_us += c->sendUs;
            sends += double(c->sends);
            hits += double(c->conn->dictHits());
            strings += double(c->conn->dictStrings());
        }
        auto mean_us = [&](const char *span) {
            uint64_t n = v.spanCount(span);
            return n ? v.spanMs(span) * 1e3 / double(n) : 0.0;
        };
        uint64_t batches = v.counter("server.batches");
        layers = {
            {"net.client.send_us", sends ? send_us / sends : 0.0},
            {"net.dict_hit_share",
             hits + strings ? hits / (hits + strings) : 0.0},
            {"server.queue_wait_p50_ms", quantile(waits, 0.5)},
            {"server.queue_wait_p99_ms", quantile(waits, 0.99)},
            {"server.read_decode_us", mean_us("server.read.decode")},
            {"server.ack_us", mean_us("server.ack")},
            {"server.batch_size_mean",
             batches ? double(v.counter("server.ingest")) / batches : 0.0},
            {"server.busy_sent", double(v.counter("server.busy_sent"))},
            {"persist.wal_appends",
             events ? v.counter("persist.wal.appends") / events : 0.0},
            {"persist.wal_syncs",
             events ? v.counter("persist.wal.syncs") / events : 0.0},
            {"obs.trace_overhead_share",
             median(phases.latencyMs) / median(plain.latencyMs) - 1.0},
            {"obs.trace_dropped", double(obs::traceDropped())},
        };
        report.info("queue_wait_samples", sampleSummary(waits));
    }

    // Phase-A backlog stayed bounded; nothing was lost or reordered.
    double max_outstanding = 0.0, max_depth = 0.0;
    std::vector<double> lateness;
    for (const auto &c : s->clients) {
        max_outstanding = std::max(max_outstanding, c->maxOutstanding);
        max_depth = std::max(max_depth, c->maxQueueDepth);
        lateness.insert(lateness.end(), c->latenessMs.begin(),
                        c->latenessMs.end());
        report.check(c->badAcks == 0,
                     "ingest: ack missing, rejected or out of order",
                     c->badAcks);
    }
    // A stall may queue work briefly; a growing backlog would pass
    // kBacklogSeconds' worth of the offered load, and a full committer
    // queue would send kBusy advisories.
    const double backlog_bound = opts.ingestRate * kBacklogSeconds;
    report.check(max_outstanding <= backlog_bound,
                 "ingest: phase-A outstanding acks grew unbounded");
    report.check(max_depth <= backlog_bound,
                 "ingest: phase-A committer queue grew unbounded");
    const uint64_t busy_in_a = s->busyInA;
    report.check(busy_in_a == 0, "ingest: backpressure engaged in phase A");

    // Close the sessions: every sent event acked exactly once.
    uint64_t sent = 0;
    std::vector<double> bye_ms;
    for (auto &c : s->clients) {
        auto t0 = Clock::now();
        c->conn->bye();
        bye_ms.push_back(msSince(t0));
        const net::ClientStats &st = c->conn->stats();
        sent += st.sent;
        report.attempted(st.sent);
        report.check(st.acksAccepted == st.sent &&
                         st.acksRejected == st.duplicates,
                     "ingest: client acks do not reconcile");
        report.check(c->fifo.empty(), "ingest: acks still outstanding",
                     c->fifo.size());
    }
    s->server->stop();
    report.check(s->cloud->totalIngested() == sent,
                 "ingest: cloud total differs from events sent");
    const double wal_bytes = double(fs::file_size(dir + "/wal.log"));
    s.reset();
    fs::remove_all(dir);
    report.check(!fs::exists(dir), "ingest: state dir left behind");

    const double interval_ms = kClients / opts.ingestRate * 1e3;
    report.info("phase_a", "{\"note\": \"IngestClient absorbs acks only in "
                           "sendIngest and at barriers: latency includes up "
                           "to one send interval\", \"offered_per_s\": " +
                               std::to_string(opts.ingestRate) +
                               ", \"send_interval_ms\": " +
                               std::to_string(interval_ms) +
                               ", \"latency_ms\": " +
                               sampleSummary(phases.latencyMs) +
                               ", \"lateness_ms\": " +
                               sampleSummary(lateness) +
                               ", \"max_outstanding\": " +
                               std::to_string(max_outstanding) +
                               ", \"max_queue_depth\": " +
                               std::to_string(max_depth) +
                               ", \"busy_sent\": " +
                               std::to_string(busy_in_a) + "}");
    report.info("phase_b_burst_acks_per_s",
                sampleSummary(phases.bursts.ratesPerS));
    report.info("events_sent", std::to_string(sent));

    if (opts.trace) {
        layers["net.client.bye_ms"] = median(bye_ms);
        layers["persist.wal_bytes_per_event"] =
            sent ? wal_bytes / double(sent) : 0.0;
        layers["sim.cloud.ingest_batch_ms"] = probeIngestBatch(
            dir + "-probe", base, deriveSeed(opts.seed, 20), report);
        reportLayers(report, layers);
        writeTrace(report, opts);
        return;
    }
    report.metric("throughput_per_s",
                  phases.bursts.acks / phases.bursts.seconds, "1/s");
    report.metric("latency_p50_ms", median(phases.latencyMs), "ms");
    report.info("setup_s", sampleSummary(setups.times()));
    report.metric("setup_s", median(setups.times()), "s");
    report.metric("peak_rss_mb", peakRssMb(), "MiB");
}

} // namespace nbench
