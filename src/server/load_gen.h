/**
 * @file
 * Multi-client load generator for the ingest server: N threads each
 * drive one IngestClient with a deterministic synthetic event stream
 * (unique device ids, monotone sequence numbers, repeating string
 * pools so the dictionary has something to intern), optionally
 * through the socket chaos layer, then reconcile counters via
 * kBye/kByeAck. Every client completes its handshake before any
 * client sends its first event.
 *
 * Reconciliation invariant (unique (device, seq) pairs): every
 * message put on the wire is accepted exactly once and every chaos
 * duplicate is dedup-rejected, i.e. per client
 *
 *     acksAccepted == sent   and   acksRejected == duplicates.
 */
#ifndef NAZAR_SERVER_LOAD_GEN_H
#define NAZAR_SERVER_LOAD_GEN_H

#include <cstdint>
#include <string>
#include <vector>

#include "net/fault.h"

namespace nazar::server {

struct LoadConfig
{
    uint16_t port = 0;
    int clients = 4;
    int eventsPerClient = 1000;
    /** Every Nth event carries a sampled-input upload. */
    int uploadEvery = 4;
    int featureDim = 8;
    /**
     * Socket chaos (dropProb / dupProb only — TCP is reliable, so the
     * other fault knobs have no wire analogue). Each client derives
     * its own seed from `chaos.seed + clientIndex`.
     */
    net::FaultConfig chaos;
    /**
     * Session-layer recovery: with `enabled`, each client rides
     * through server crash–restarts (reconnect, resume, retransmit)
     * and the reconciliation invariant must still hold at the end.
     */
    net::ReconnectPolicy reconnect;
};

/**
 * One server-side ingest stage's latency summary, read back from the
 * obs histograms the committer/reader record into (quantiles are
 * bucket-interpolated). Only populated when the server runs in the
 * same process as the load generator — a remote server's histograms
 * live in its process and appear in its own metrics snapshot instead.
 */
struct StageStat
{
    std::string name; ///< e.g. "server.queue_wait".
    uint64_t count = 0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    double meanMs = 0.0;
};

struct LoadStats
{
    uint64_t sent = 0;
    uint64_t gaveUp = 0;
    uint64_t retries = 0;
    uint64_t duplicates = 0;
    uint64_t acksAccepted = 0;
    uint64_t acksRejected = 0;
    uint64_t dictStrings = 0; ///< Summed over clients.
    uint64_t dictHits = 0;    ///< Interned (bytes-saving) occurrences.
    uint64_t reconnects = 0;  ///< Session-layer reconnect handshakes.
    uint64_t resent = 0;      ///< Frames retransmitted after resume.
    uint64_t resumedLanded = 0; ///< Credited landed via resume seqs.
    uint64_t busySeen = 0;      ///< kBusy advisories received.
    double seconds = 0.0;     ///< Wall clock, connect through bye.
    double eventsPerSec = 0.0;
    double p50Ms = 0.0; ///< Ack round-trip latency percentiles.
    double p99Ms = 0.0;
    /** Per-client invariant held for every client. */
    bool reconciled = false;
    /** Server-side per-stage latency breakdown (see StageStat). */
    std::vector<StageStat> stages;
};

/**
 * The ingest stage names runLoad() reports, in pipeline order
 * (matches the spans IngestServer records per item).
 */
const std::vector<std::string> &ingestStageNames();

/** Run the load; throws NazarError if the server misbehaves. */
LoadStats runLoad(const LoadConfig &config);

} // namespace nazar::server

#endif // NAZAR_SERVER_LOAD_GEN_H
