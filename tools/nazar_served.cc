/**
 * @file
 * nazar_served: the networked cloud as a process.
 *
 * Three modes:
 *
 *   serve  — stand up a Cloud plus a TCP IngestServer and run until
 *            SIGTERM/SIGINT. `--port-file=<path>` writes the bound
 *            port (the OS picks one when --port=0) so a driver script
 *            can find it without racing. On shutdown it prints a
 *            greppable `SERVED ... clean shutdown` line.
 *
 *   load   — drive a running server with the multi-client load
 *            generator, optionally through the socket-level chaos
 *            layer (--drop= --dup=). Prints per-run tallies and
 *            `RECONCILED ok` when every unique (device, seq) was
 *            accepted exactly once and every duplicate rejected;
 *            exits 1 on a mismatch.
 *
 *   smoke  — serve + load in one process (no fork, no port file),
 *            for sanitizer legs in CI where a single binary is
 *            easiest to wrap.
 *
 *   supervise — the chaos harness: fork a serve child on a fixed
 *            port + state dir, drive it with reconnect-enabled load
 *            clients, SIGKILL and respawn the child --kills times
 *            mid-load, then reconcile exactly — every client must
 *            end with acksAccepted == sent, and the state dir must
 *            recover to exactly acksAccepted ingests. Prints
 *            `SUPERVISE ...` and the final `RECONCILED ok` line;
 *            exits 1 on any mismatch.
 *
 * Durability flags mirror nazar_ops sim: --persist-dir= puts a WAL
 * and snapshots under the dir and --fsync= picks the sync mode;
 * --max-batch=1 forces a sync per record for comparison runs.
 */
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/logging.h"
#include "net/fault.h"
#include "net/tcp.h"
#include "nn/classifier.h"
#include "obs/export.h"
#include "obs/span.h"
#include "persist/cloud_persist.h"
#include "server/ingest_server.h"
#include "server/load_gen.h"
#include "sim/cloud.h"

using namespace nazar;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void
onSignal(int)
{
    g_stop = 1;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  nazar_served serve [--port=N] [--port-file=<path>] "
        "[--persist-dir=<dir> --snapshot-every=N "
        "--fsync=flush|fdatasync|fsync] "
        "[--max-batch=N --max-queue=N "
        "--read-timeout-ms=N]\n"
        "  nazar_served load --port=N [--clients=N --events=N "
        "--drop=P --dup=P --fault-seed=S --reconnect=0|1]\n"
        "  nazar_served smoke [--clients=N --events=N --drop=P "
        "--dup=P --fault-seed=S] [--persist-dir=<dir> ...]\n"
        "  nazar_served supervise --persist-dir=<dir> [--kills=N "
        "--kill-after-acks=N | --disk-faults=N] [--clients=N --events=N "
        "--drop=P --dup=P --fault-seed=S] [serve flags]\n"
        "  serve only: [--disk-fault-site=<env site> "
        "--disk-fault-kind=enospc|eio|sync_fail|short_write "
        "--disk-fault-hit=N] arms one injected disk fault; when it "
        "latches, the server degrades (no acks) and the process "
        "self-exits with a greppable line\n"
        "  any mode: [--trace-out=<file>] enables causal tracing and "
        "writes a Chrome trace_event JSON (Perfetto-loadable) on "
        "exit\n");
    return 2;
}

/** The small fixed base every serve-mode cloud adapts around. */
nn::Classifier
serveBase()
{
    return nn::Classifier(nn::Architecture::kResNet18, 8, 4, 1);
}

/** Everything both serve and smoke need to bring a server up. */
struct ServeOptions
{
    uint16_t port = 0;
    std::string portFile;
    server::ServerConfig server;
    persist::PersistConfig persist;
};

struct LoadOptions
{
    uint16_t port = 0;
    server::LoadConfig load;
};

struct SuperviseOptions
{
    int kills = 2;
    /**
     * Each kill fires once this many more events have been
     * acknowledged to the load clients since the last (re)spawn, so
     * the kills land inside the load however fast the host runs it.
     */
    uint64_t killAfterAcks = 1000;
    /**
     * When > 0, run disk-fault episodes instead of SIGKILLs: each
     * episode spawns a child with one armed Env fault; the child
     * latches, degrades, and self-exits; the respawn over the same
     * state dir (fresh environment = cleared fault) is the recovery.
     * The final child runs fault-free so the load can finish.
     */
    int diskFaults = 0;
    /** Serve-side flags forwarded verbatim to the forked child. */
    std::vector<std::string> serveArgs;
};

void
printLoadStats(const server::LoadStats &stats,
               bool print_reconciled = true)
{
    std::printf("LOADGEN sent=%zu accepted=%zu rejected=%zu "
                "gaveUp=%zu duplicates=%zu retries=%zu\n",
                stats.sent, stats.acksAccepted, stats.acksRejected,
                stats.gaveUp, stats.duplicates, stats.retries);
    std::printf("LOADGEN eventsPerSec=%.0f p50Ms=%.3f p99Ms=%.3f\n",
                stats.eventsPerSec, stats.p50Ms, stats.p99Ms);
    std::printf("LOADGEN reconnects=%zu resent=%zu resumedLanded=%zu "
                "busySeen=%zu\n",
                stats.reconnects, stats.resent, stats.resumedLanded,
                stats.busySeen);
    for (const auto &stage : stats.stages)
        std::printf("LOADGEN stage %s count=%zu p50Ms=%.3f "
                    "p99Ms=%.3f meanMs=%.3f\n",
                    stage.name.c_str(), stage.count, stage.p50Ms,
                    stage.p99Ms, stage.meanMs);
    if (print_reconciled)
        std::printf(stats.reconciled ? "RECONCILED ok\n"
                                     : "RECONCILED MISMATCH\n");
}

int
cmdServe(const ServeOptions &opts)
{
    nn::Classifier base = serveBase();
    sim::CloudConfig config;
    config.persist = opts.persist;
    sim::Cloud cloud(config, base);

    server::IngestServer server(cloud, opts.server);
    server.start();
    std::printf("SERVED listening port=%u\n",
                static_cast<unsigned>(server.port()));
    std::fflush(stdout);
    if (!opts.portFile.empty()) {
        // Write-then-rename so a polling driver never reads a
        // half-written port number.
        std::string tmp = opts.portFile + ".tmp";
        {
            std::ofstream out(tmp);
            NAZAR_CHECK(out.good(),
                        "cannot write port file: " + tmp);
            out << server.port() << "\n";
        }
        NAZAR_CHECK(std::rename(tmp.c_str(),
                                opts.portFile.c_str()) == 0,
                    "cannot move port file into place: " +
                        opts.portFile);
    }

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    while (!g_stop && !server.diskFaulted())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    if (server.diskFaulted()) {
        // The disk under the state dir "failed": the server is
        // degraded (draining without acks) and no further write can
        // succeed, so play a dying server process — the supervisor's
        // respawn over the same state dir, with a fresh environment,
        // is the recovery.
        std::string site = server.diskFaultSite();
        server.stop();
        std::printf("SERVED disk fault latched site=%s ingested=%zu "
                    "exiting\n",
                    site.c_str(), cloud.totalIngested());
        std::fflush(stdout);
        return 0;
    }

    server.stop();
    server::ServerStats stats = server.stats();
    std::printf("SERVED connections=%zu ingested=%zu dedup=%zu "
                "batches=%zu ackWrites=%zu cycles=%zu flushes=%zu "
                "protocolErrors=%zu clean shutdown\n",
                stats.connections, cloud.totalIngested(),
                cloud.dedupHits(), stats.batches, stats.ackWrites,
                stats.cycles, stats.flushes, stats.protocolErrors);
    return 0;
}

int
cmdLoad(const LoadOptions &opts)
{
    server::LoadConfig load = opts.load;
    load.port = opts.port;
    NAZAR_CHECK(load.port != 0, "load mode needs --port=N");
    server::LoadStats stats = server::runLoad(load);
    printLoadStats(stats);
    return stats.reconciled ? 0 : 1;
}

int
cmdSmoke(const ServeOptions &serve_opts, const LoadOptions &load_opts)
{
    nn::Classifier base = serveBase();
    sim::CloudConfig config;
    config.persist = serve_opts.persist;
    sim::Cloud cloud(config, base);
    server::IngestServer server(cloud, serve_opts.server);
    server.start();

    server::LoadConfig load = load_opts.load;
    load.port = server.port();
    server::LoadStats stats = server::runLoad(load);
    printLoadStats(stats);

    server.stop();
    server::ServerStats ss = server.stats();
    bool tallies_match = cloud.totalIngested() == stats.acksAccepted &&
                         cloud.dedupHits() == stats.acksRejected &&
                         ss.protocolErrors == 0;
    std::printf("SERVED connections=%zu ingested=%zu dedup=%zu "
                "batches=%zu ackWrites=%zu protocolErrors=%zu "
                "clean shutdown\n",
                ss.connections, cloud.totalIngested(),
                cloud.dedupHits(), ss.batches, ss.ackWrites,
                ss.protocolErrors);
    return stats.reconciled && tallies_match ? 0 : 1;
}

/** A currently-free loopback port, released before the child binds
 *  it (SO_REUSEADDR makes the tiny handoff window benign). */
uint16_t
pickFreePort()
{
    net::TcpListener probe;
    probe.listen(0);
    uint16_t port = probe.port();
    probe.close();
    return port;
}

/** Fork + exec a `nazar_served serve` child; returns its pid. */
pid_t
spawnServe(const std::vector<std::string> &args)
{
    pid_t pid = ::fork();
    NAZAR_CHECK(pid >= 0, "supervise: fork failed");
    if (pid == 0) {
        std::vector<char *> argvp;
        static const char *exe = "/proc/self/exe";
        argvp.push_back(const_cast<char *>(exe));
        for (const auto &a : args)
            argvp.push_back(const_cast<char *>(a.c_str()));
        argvp.push_back(nullptr);
        ::execv(exe, argvp.data());
        std::fprintf(stderr, "supervise: execv failed\n");
        ::_exit(127);
    }
    return pid;
}

int
cmdSupervise(const ServeOptions &serve_opts,
             const LoadOptions &load_opts,
             const SuperviseOptions &sup)
{
    NAZAR_CHECK(!serve_opts.persist.dir.empty(),
                "supervise needs --persist-dir=<dir>");
    uint16_t port = pickFreePort();
    std::vector<std::string> childArgs;
    childArgs.push_back("serve");
    childArgs.push_back("--port=" + std::to_string(port));
    for (const auto &a : sup.serveArgs)
        childArgs.push_back(a);

    // Disk-fault episodes arm one deterministic Env fault per child,
    // alternating between the per-record WAL write path (hundreds of
    // hits per run, so a mid-load hit count) and the per-batch sync
    // path (few hits, so a small count). sync_fail exercises the
    // worst case: buffered-but-unsynced bytes are dropped on the
    // floor, and recovery must come from the last durable state.
    auto faultArgsFor = [&childArgs](int episode) {
        std::vector<std::string> args = childArgs;
        if (episode % 2 == 0) {
            args.push_back("--disk-fault-site=env.wal.write");
            args.push_back("--disk-fault-kind=enospc");
            args.push_back("--disk-fault-hit=" +
                           std::to_string(40 + 25 * episode));
        } else {
            args.push_back("--disk-fault-site=env.wal.sync");
            args.push_back("--disk-fault-kind=sync_fail");
            args.push_back("--disk-fault-hit=" +
                           std::to_string(2 + episode));
        }
        return args;
    };

    pid_t child = sup.diskFaults > 0 ? spawnServe(faultArgsFor(0))
                                     : spawnServe(childArgs);

    // The load clients ride through the kills: reconnect enabled,
    // with enough attempts to outlast a child respawn (the respawned
    // server replays its WAL before it listens).
    server::LoadConfig load = load_opts.load;
    load.port = port;
    load.reconnect.enabled = true;
    if (load.reconnect.recvTimeoutMs == 0)
        load.reconnect.recvTimeoutMs = 5000;

    std::atomic<uint64_t> acked{0};
    load.ackedEvents = &acked;
    std::atomic<bool> loadDone{false};
    server::LoadStats stats;
    std::string loadError;
    std::thread loadThread([&] {
        try {
            stats = server::runLoad(load);
        } catch (const NazarError &e) {
            loadError = e.what();
        }
        loadDone = true;
    });

    int killsDone = 0;
    int faultsDone = 0;
    if (sup.diskFaults > 0) {
        for (int k = 0; k < sup.diskFaults; ++k) {
            // Wait for the faulted child to latch and self-exit. If
            // the load finishes first (the armed hit was never
            // reached), stop injecting — the SIGTERM below still
            // shuts the child down cleanly.
            bool exited = false;
            while (!loadDone) {
                if (::waitpid(child, nullptr, WNOHANG) == child) {
                    exited = true;
                    break;
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
            }
            if (!exited)
                break;
            ++faultsDone;
            // Respawn over the same state dir: recovery from the
            // last durable state, the next episode's fault armed in
            // a fresh environment (= the fault was cleared). The
            // final child runs fault-free so the load can finish.
            child = (k + 1 < sup.diskFaults)
                        ? spawnServe(faultArgsFor(k + 1))
                        : spawnServe(childArgs);
        }
    } else {
        for (int k = 0; k < sup.kills && !loadDone; ++k) {
            const uint64_t due = acked.load() + sup.killAfterAcks;
            while (!loadDone && acked.load() < due)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            if (loadDone)
                break;
            ::kill(child, SIGKILL);
            ::waitpid(child, nullptr, 0);
            ++killsDone;
            // Same port, same state dir: the respawn IS the recovery —
            // WAL replay + snapshot rebuild the dedup windows the
            // resuming clients reconcile against.
            child = spawnServe(childArgs);
        }
    }
    loadThread.join();

    ::kill(child, SIGTERM);
    ::waitpid(child, nullptr, 0);

    if (!loadError.empty()) {
        std::fprintf(stderr, "supervise: load failed: %s\n",
                     loadError.c_str());
        std::printf("RECONCILED MISMATCH\n");
        return 1;
    }
    printLoadStats(stats, /*print_reconciled=*/false);

    // The durable state must account for exactly the accepted
    // ingests — nothing lost across the kills, nothing applied twice.
    persist::RecoveredState recovered =
        persist::recoverDir(serve_opts.persist.dir);
    bool stateOk = recovered.totalIngested == stats.acksAccepted;
    std::printf("SUPERVISE kills=%d diskFaults=%d ingested=%zu "
                "accepted=%zu reconnects=%zu resent=%zu stateOk=%d\n",
                killsDone, faultsDone, recovered.totalIngested,
                stats.acksAccepted, stats.reconnects, stats.resent,
                stateOk ? 1 : 0);
    bool ok = stats.reconciled && stateOk;
    std::printf(ok ? "RECONCILED ok\n" : "RECONCILED MISMATCH\n");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        if (argc < 2)
            return usage();
        std::string cmd = argv[1];

        ServeOptions serve;
        LoadOptions load;
        SuperviseOptions sup;
        std::string traceOut;
        auto probFlag = [](const std::string &arg,
                           const std::string &flag, double &out) {
            if (arg.rfind(flag, 0) != 0)
                return false;
            out = std::stod(arg.substr(flag.size()));
            return true;
        };
        // Serve-side flags a supervise parent forwards verbatim to
        // its forked serve children.
        const char *const kServeFlags[] = {
            "--persist-dir=", "--snapshot-every=", "--fsync=",
            "--max-batch=",   "--max-queue=",     "--read-timeout-ms="};
        for (int i = 2; i < argc; ++i) {
            std::string arg = argv[i];
            for (const char *flag : kServeFlags) {
                if (arg.rfind(flag, 0) == 0) {
                    sup.serveArgs.push_back(arg);
                    break;
                }
            }
            if (arg.rfind("--port=", 0) == 0) {
                int port = std::stoi(arg.substr(7));
                NAZAR_CHECK(port >= 0 && port <= 65535,
                            "port out of range: " + arg);
                serve.port = static_cast<uint16_t>(port);
                load.port = static_cast<uint16_t>(port);
                serve.server.port = serve.port;
            } else if (arg.rfind("--port-file=", 0) == 0)
                serve.portFile = arg.substr(12);
            else if (arg.rfind("--max-batch=", 0) == 0)
                serve.server.maxBatch = std::stoul(arg.substr(12));
            else if (arg.rfind("--max-queue=", 0) == 0)
                serve.server.maxQueue = std::stoul(arg.substr(12));
            else if (arg.rfind("--read-timeout-ms=", 0) == 0)
                serve.server.readTimeoutMs = std::stoi(arg.substr(18));
            else if (arg.rfind("--persist-dir=", 0) == 0)
                serve.persist.dir = arg.substr(14);
            else if (arg.rfind("--snapshot-every=", 0) == 0)
                serve.persist.snapshotEvery =
                    std::stoull(arg.substr(17));
            else if (arg.rfind("--fsync=", 0) == 0)
                serve.persist.sync =
                    persist::syncModeFromString(arg.substr(8));
            else if (arg.rfind("--disk-fault-site=", 0) == 0)
                serve.persist.fault.site = arg.substr(18);
            else if (arg.rfind("--disk-fault-kind=", 0) == 0)
                serve.persist.fault.kind =
                    persist::faultKindFromString(arg.substr(18));
            else if (arg.rfind("--disk-fault-hit=", 0) == 0)
                serve.persist.fault.hit = std::stoull(arg.substr(17));
            else if (arg.rfind("--disk-faults=", 0) == 0)
                sup.diskFaults = std::stoi(arg.substr(14));
            else if (arg.rfind("--clients=", 0) == 0)
                load.load.clients = std::stoul(arg.substr(10));
            else if (arg.rfind("--events=", 0) == 0)
                load.load.eventsPerClient = std::stoul(arg.substr(9));
            else if (probFlag(arg, "--drop=", load.load.chaos.dropProb) ||
                     probFlag(arg, "--dup=", load.load.chaos.dupProb))
                continue;
            else if (arg.rfind("--fault-seed=", 0) == 0)
                load.load.chaos.seed = std::stoull(arg.substr(13));
            else if (arg.rfind("--reconnect=", 0) == 0)
                load.load.reconnect.enabled =
                    std::stoi(arg.substr(12)) != 0;
            else if (arg.rfind("--kills=", 0) == 0)
                sup.kills = std::stoi(arg.substr(8));
            else if (arg.rfind("--kill-after-acks=", 0) == 0)
                sup.killAfterAcks = std::stoull(arg.substr(18));
            else if (arg.rfind("--trace-out=", 0) == 0)
                traceOut = arg.substr(12);
            else
                return usage();
        }

        setLogLevel(LogLevel::kWarn);
        if (!traceOut.empty()) {
            obs::setTracing(true);
            obs::setThreadName("main");
        }
        int rc;
        if (cmd == "serve")
            rc = cmdServe(serve);
        else if (cmd == "load")
            rc = cmdLoad(load);
        else if (cmd == "smoke")
            rc = cmdSmoke(serve, load);
        else if (cmd == "supervise")
            rc = cmdSupervise(serve, load, sup);
        else
            return usage();
        if (!traceOut.empty()) {
            obs::writeTraceFile(traceOut);
            std::printf("TRACE events=%zu dropped=%zu file=%s\n",
                        obs::traceEvents().size(), obs::traceDropped(),
                        traceOut.c_str());
        }
        return rc;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
