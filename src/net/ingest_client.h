/**
 * @file
 * Client side of the ingest wire protocol (wire.h) with an optional
 * socket-level chaos layer.
 *
 * The chaos layer reuses net::FaultConfig to stress the server's
 * retry/dedup semantics over a real socket: `dropProb` simulates a
 * send lost before reaching the wire (retried up to maxAttempts, then
 * given up — the message is never sent), and `dupProb` simulates a
 * retransmission whose original ack was lost (the frame is sent
 * twice, byte-identical, and the server's dedup window must reject
 * the copy). TCP itself is reliable, so these are the only two
 * transport faults that are observable end-to-end; the reconciliation
 * invariant a load test asserts is
 *
 *     acksAccepted == sent - (dedup losses)      and
 *     acksRejected == duplicates (+ upstream channel dups)
 *
 * which for unique (device, seq) pairs reduces to
 * acksAccepted == sent, acksRejected == duplicates.
 *
 * Acks are drained opportunistically (non-blocking) after every send
 * so neither side can wedge with both peers blocked in send(), and
 * drained fully at the protocol barriers (cycle/flush/bye).
 *
 * Session layer (ReconnectPolicy::enabled): the client survives a
 * server crash–restart. Every in-flight ingest is remembered (decoded
 * form, keyed by (device, seq)) until its acks settle; on any
 * connection failure the client reconnects with capped exponential
 * backoff, re-handshakes with `wantResume`, and reconciles against
 * the server's recovered per-device high-water seqs: entries at or
 * below the high water landed (credited as accepted without a resend
 * — `resumedLanded`), the rest are re-encoded and retransmitted
 * (`resent`); the server's dedup window guarantees exactly-once
 * application, and the accounting keeps the reconciliation invariant
 * above intact across any number of crashes (acksAccepted == sent −
 * gaveUp, acksRejected == duplicates). With the policy disabled (the default) none of this
 * machinery runs.
 *
 * Cycle/flush/bye caveat: ingest retransmission is exactly-once, but
 * a crash after the server committed a cycle and before its reply
 * reached the client makes the retried request run a second cycle —
 * those barriers are at-least-once (see DESIGN.md §14).
 */
#ifndef NAZAR_NET_INGEST_CLIENT_H
#define NAZAR_NET_INGEST_CLIENT_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/fault.h"
#include "net/tcp.h"
#include "net/wire.h"

namespace nazar::net {

/** Everything the client did, for reconciliation and benches. */
struct ClientStats
{
    uint64_t sent = 0;         ///< Ingest messages put on the wire.
    uint64_t gaveUp = 0;       ///< Dropped by chaos before the wire.
    uint64_t retries = 0;      ///< Chaos re-attempts after a drop.
    uint64_t duplicates = 0;   ///< Extra byte-identical frame copies.
    uint64_t framesSent = 0;   ///< sent + duplicates.
    uint64_t acksAccepted = 0; ///< Server accepted (first arrival).
    uint64_t acksRejected = 0; ///< Server dedup-rejected (dup/replay).

    // ---- Session-layer tallies (ReconnectPolicy enabled) ------------
    uint64_t reconnects = 0;     ///< Successful reconnect handshakes.
    uint64_t resent = 0;         ///< Frames retransmitted after resume.
    uint64_t resumedLanded = 0;  ///< Credited landed via resume seqs.
    uint64_t resentRejected = 0; ///< Surplus rejected acks absorbed.
    uint64_t busySeen = 0;       ///< kBusy advisories received.
};

/** One cycle run remotely: the summary + published version blobs. */
struct RemoteCycle
{
    WireCycleDone done;
    /** deploy::ModelVersion::save text, one per published version. */
    std::vector<std::string> versionTexts;
};

/**
 * A connected ingest-protocol client. Not thread-safe; one owner
 * drives the connection (mirrors a device's uplink being serial).
 */
class IngestClient
{
  public:
    /**
     * Connect to 127.0.0.1:@p port and complete the kHello handshake.
     * Throws NazarError on connect/handshake failure or a protocol
     * version mismatch. With @p reconnect enabled, the initial
     * connect is itself retried with backoff, and every later
     * connection failure triggers the session resume protocol.
     */
    IngestClient(uint16_t port, const FaultConfig &chaos = {},
                 const std::string &client_name = "client",
                 const ReconnectPolicy &reconnect = {});

    /** The server's handshake reply (recovered clean patch, if any). */
    const WireHelloAck &helloAck() const { return helloAck_; }

    /**
     * Send one ingest attempt through the chaos layer. Returns false
     * when chaos gave the message up (it never reached the wire and
     * no ack will come). Throws NazarError if the server vanished.
     */
    bool sendIngest(const persist::IngestRecord &m);

    /**
     * Run one analysis cycle remotely: drains outstanding acks, then
     * returns the cycle summary plus the published version blobs.
     */
    RemoteCycle requestCycle(const std::string &clean_patch_text);

    /** Archive the server's buffers without analysis (kFlush edge). */
    void requestFlush();

    /**
     * End the session: drain acks, exchange kBye/kByeAck, observe
     * EOF. Returns the server's final tallies.
     */
    WireByeAck bye();

    const ClientStats &stats() const { return stats_; }

    /** Frames sent whose ack has not arrived yet. */
    uint64_t outstandingAcks() const { return outstanding_; }

    /** Always 0: the wire interns no strings. Kept because the
     *  frozen nazarbench/ingest.cc still reads them. */
    size_t dictStrings() const { return 0; }
    uint64_t dictHits() const { return 0; }

    /**
     * Observer invoked for every ack as it is absorbed (load gen uses
     * it to clock ack round-trip latency per (device, seq)).
     */
    void setAckObserver(std::function<void(const WireAck &)> fn)
    {
        ackObserver_ = std::move(fn);
    }

  private:
    /** Count one ack (kBusy advisories are tallied and absorbed). */
    void onAck(const Frame &frame);

    /** Non-blocking: absorb whatever acks are already readable. */
    void pumpAcks();

    /** Block until every outstanding ack has arrived (resumes). */
    void drainAcks();

    /** Blocking receive that treats EOF as a protocol error and
     *  absorbs kBusy advisories. */
    Frame expectFrame();

    /** kHello/kHelloAck exchange on the current stream. */
    void handshake(bool want_resume);

    /**
     * The session recovery path: reconnect with capped backoff,
     * re-handshake with wantResume, settle pending entries against
     * the server's high-water seqs, retransmit the rest. Throws
     * (a .cc-local ReconnectFailed, itself a NazarError) once
     * ReconnectPolicy::maxAttempts is exhausted.
     */
    void reconnectAndResume();

    /** Resume step: credit landed entries, retransmit the rest. */
    void settleAndRetransmit();

    /**
     * A traced in-flight ingest: the root context minted at send time
     * (its ids rode the wire) and the send timestamp. Closed into the
     * `net.client.ingest` root span when the ack arrives, so the root
     * covers send → ack and every server-side child links under it.
     * Present only while obs tracing is on; otherwise no entries are
     * ever created and the send path is untouched.
     */
    struct PendingTrace
    {
        uint64_t traceId = 0;
        uint64_t spanId = 0;
        std::chrono::steady_clock::time_point start;
    };

    /**
     * One session-tracked ingest, alive until its acks settle. The
     * accounting is idempotent across any number of crashes: the
     * unique accepted credit is guarded by `acceptedCredited`, and
     * rejected credits only accrue up to `targetRejects` (one per
     * duplicate copy owed a dedup rejection) — surplus rejected acks
     * from crash retransmits are absorbed as `resentRejected`.
     */
    struct Pending
    {
        persist::IngestRecord msg;
        /** Registration index: retransmits go out in original send
         *  order, so the restarted committer sees the same global
         *  arrival order the uncrashed run produced (drift-log rows
         *  and upload-buffer order are reproduced exactly). */
        uint64_t order = 0;
        int copies = 0;          ///< Frames on the wire awaiting acks.
        int targetRejects = 0;   ///< Duplicate copies owed a rejection.
        int rejectsCredited = 0; ///< Rejections credited so far.
        bool acceptedCredited = false; ///< Accepted credit spent.
    };

    TcpStream stream_;
    FaultConfig chaos_;
    bool chaosOn_ = false;
    Rng rng_;
    uint16_t port_ = 0;
    std::string clientName_;
    ReconnectPolicy policy_;
    bool sessionOn_ = false;
    ClientStats stats_;
    uint64_t outstanding_ = 0;
    WireHelloAck helloAck_;
    std::function<void(const WireAck &)> ackObserver_;
    std::map<std::pair<int64_t, uint64_t>, PendingTrace> pendingTraces_;
    /** Unsettled ingests by (device, seq); ascending seq per device. */
    std::map<std::pair<int64_t, uint64_t>, Pending> pending_;
    /** Next Pending::order value (counts registrations, not frames). */
    uint64_t nextPendingOrder_ = 0;
};

} // namespace nazar::net

#endif // NAZAR_NET_INGEST_CLIENT_H
