/**
 * @file
 * Fault model for the device↔cloud channel.
 *
 * The paper's prototype (§5.8) rides a reliable AWS pipeline, so the
 * simulation historically assumed every drift-log upload arrives
 * exactly once and every version push lands instantly. Real mobile
 * fleets violate all of that: packets drop, retries duplicate,
 * delivery reorders, devices crash or spend whole epochs offline, and
 * pushes miss devices. `FaultConfig` describes those failure modes as
 * seed-driven probabilities; `net::Channel` (channel.h) applies them
 * deterministically.
 *
 * Determinism contract:
 *  - A default-constructed `FaultConfig` (all probabilities zero)
 *    never fires a fault: delivery order equals send order, so runs
 *    are bit-identical to a perfect link at any `NAZAR_THREADS`.
 *  - Every draw comes from a channel-owned Rng seeded
 *    by `seed` and consumed in a fixed order (devices ascending, then
 *    messages in send order), so a faulted run is reproducible from
 *    (workload seed, fault seed) alone and is independent of the
 *    runtime thread count — the channel runs on the emitting thread.
 */
#ifndef NAZAR_NET_FAULT_H
#define NAZAR_NET_FAULT_H

#include <cstddef>
#include <cstdint>

namespace nazar::net {

/** Seed-driven unreliable-transport knobs for one device↔cloud link. */
struct FaultConfig
{
    // ---- Per-message uplink faults (device → cloud) -----------------
    double dropProb = 0.0;    ///< Each delivery attempt is lost.
    double dupProb = 0.0;     ///< A delivered message arrives twice.
    double delayProb = 0.0;   ///< Held until the next delivery round.
    double reorderProb = 0.0; ///< Arrival jitters later in the round.

    // ---- Per-device-per-epoch fleet faults --------------------------
    double offlineProb = 0.0; ///< Device spends the whole epoch offline.
    double crashProb = 0.0;   ///< Crash-restart: the send queue is lost.

    // ---- Downlink faults (cloud → device version push) --------------
    double pushDropProb = 0.0; ///< A version push misses the device.

    // ---- Recovery policy --------------------------------------------
    /** Delivery attempts per message (1 initial try + retries). */
    int maxAttempts = 4;
    /** Backoff before the first retry, in abstract latency ticks. */
    double backoffBase = 1.0;
    /** Cap on the exponential backoff between attempts. */
    double backoffCap = 8.0;
    /** Give up once a message's cumulative backoff exceeds this. */
    double timeoutTicks = 32.0;
    /** Per-device send-queue bound; oldest entries are shed when full
     *  (0 = unbounded). */
    size_t queueCapacity = 0;
    /** Per-device sequence numbers the cloud remembers for dedup. */
    size_t dedupWindow = 4096;

    /** Fault RNG seed — an independent stream from the workload RNG. */
    uint64_t seed = 0x5eedf00dULL;

    /** Capped exponential backoff before retry @p attempt (1-based). */
    double backoffBeforeRetry(int attempt) const;
};

/**
 * Session-layer recovery policy for IngestClient: when the server
 * vanishes mid-session (crash, restart, receive deadline), the client
 * reconnects with the same capped exponential backoff shape as
 * FaultConfig — in real milliseconds rather than abstract ticks —
 * re-handshakes, and retransmits its unacked frames (see
 * ingest_client.h for the exactly-once reconciliation contract).
 * Disabled by default: a default-constructed policy leaves the client
 * byte-identical to the pre-session protocol.
 */
struct ReconnectPolicy
{
    bool enabled = false;
    /** Connect attempts per outage before the error propagates. */
    int maxAttempts = 40;
    /** Backoff before the first reconnect attempt, in milliseconds. */
    double backoffBaseMs = 5.0;
    /** Cap on the exponential backoff between attempts. */
    double backoffCapMs = 250.0;
    /**
     * Optional SO_RCVTIMEO receive deadline on the client socket so a
     * blocking drain cannot wedge forever on a silently dead peer
     * (0 = no deadline). A timeout surfaces as net::TcpTimeout and,
     * with `enabled`, triggers the reconnect path. Leave at 0 when the
     * server can legitimately go quiet for long stretches (e.g. the
     * remote runner waiting on an analysis cycle).
     */
    int recvTimeoutMs = 0;

    /** Capped exponential delay before reconnect @p attempt (1-based). */
    double backoffBeforeAttemptMs(int attempt) const;
};

} // namespace nazar::net

#endif // NAZAR_NET_FAULT_H
