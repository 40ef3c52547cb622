/**
 * @file
 * Deterministic unreliable transport between a device fleet and the
 * cloud.
 *
 * A `Channel<Payload>` models one uplink (device → cloud) plus the
 * matching downlink (cloud → device version pushes) under the fault
 * model of fault.h:
 *
 *  - `send` enqueues a message into the sending device's bounded
 *    queue, shedding the oldest entry when the bound is hit.
 *  - `deliver` drains every online device's queue through the fault
 *    machinery — capped exponential-backoff retry per message,
 *    timeout-based give-up, duplication, delay (carry-over to the
 *    next round) and reorder jitter — and hands the survivors to a
 *    sink in arrival order.
 *  - `beginEpoch` draws the per-device offline/crash state for one
 *    analysis window; `deliverPush` draws one downlink push.
 *
 * Every message carries a per-device monotone sequence number, which
 * is how the cloud's idempotent ingest (sim::Cloud::ingestBatchFrom)
 * de-duplicates retransmissions — at-least-once delivery plus a
 * bounded dedup window gives effectively-once counting.
 *
 * There is one delivery path. With every probability at zero it
 * delivers in exact send order: no draw fires (`bernoulli(0)` is
 * never true), every arrival has latency 0, so the stable sort on
 * (latency, send index) restores send order, and the draws come from
 * the channel's own RNG, leaving every other stream untouched. All
 * per-channel tallies are mirrored into nazar::obs counters (`net.*`)
 * and exposed as a plain `Stats` struct for tests.
 *
 * The channel is intentionally single-threaded: the simulation emits
 * telemetry from one thread in event order (sim::Runner), so faulted
 * runs stay independent of NAZAR_THREADS.
 */
#ifndef NAZAR_NET_CHANNEL_H
#define NAZAR_NET_CHANNEL_H

#include <algorithm>
#include <deque>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/fault.h"
#include "obs/metrics.h"

namespace nazar::net {

/** Plain tallies of everything the channel did (test-visible). */
struct ChannelStats
{
    uint64_t sent = 0;          ///< Messages accepted by send().
    uint64_t delivered = 0;     ///< Sink invocations (dups included).
    uint64_t dropped = 0;       ///< Failed delivery attempts.
    uint64_t retries = 0;       ///< Re-attempts after a drop.
    uint64_t gaveUp = 0;        ///< Messages lost after retry/timeout.
    uint64_t shed = 0;          ///< Oldest-dropped by the queue bound.
    uint64_t crashLost = 0;     ///< Queued messages wiped by a crash.
    uint64_t duplicates = 0;    ///< Extra copies delivered.
    uint64_t delayed = 0;       ///< Held over to the next round.
    uint64_t pushDropped = 0;   ///< Version pushes that missed a device.
    uint64_t offlineEpochs = 0; ///< Device-epochs spent offline.
    uint64_t crashRestarts = 0; ///< Crash-restarts (queue wiped).
    uint64_t undelivered = 0;   ///< Still queued/in-flight at shutdown.
};

template <typename Payload>
class Channel
{
  public:
    Channel(const FaultConfig &config, size_t device_count)
        : config_(config), rng_(config.seed), queues_(device_count),
          nextSeq_(device_count, 0), offline_(device_count, 0),
          sent_(obs::Registry::global().counter("net.sent")),
          delivered_(obs::Registry::global().counter("net.delivered")),
          dropped_(obs::Registry::global().counter("net.dropped")),
          retries_(obs::Registry::global().counter("net.retries")),
          gaveUp_(obs::Registry::global().counter("net.gave_up")),
          shedCounter_(obs::Registry::global().counter("net.shed")),
          crashLost_(obs::Registry::global().counter("net.crash_lost")),
          duplicates_(obs::Registry::global().counter("net.duplicates")),
          delayedCounter_(obs::Registry::global().counter("net.delayed")),
          pushDropped_(
              obs::Registry::global().counter("net.push_dropped")),
          offlineEpochs_(
              obs::Registry::global().counter("net.offline_epochs")),
          crashRestarts_(
              obs::Registry::global().counter("net.crash_restarts")),
          undelivered_(
              obs::Registry::global().counter("net.undelivered")),
          queueDepth_(obs::Registry::global().gauge("net.queue.depth")),
          inflightDelayed_(
              obs::Registry::global().gauge("net.inflight.delayed"))
    {
    }

    const FaultConfig &config() const { return config_; }
    const ChannelStats &stats() const { return stats_; }
    size_t deviceCount() const { return queues_.size(); }

    /** True when @p device is offline for the current epoch. */
    bool
    offline(size_t device) const
    {
        return offline_[device] != 0;
    }

    /**
     * Start one analysis-window epoch: draw each device's offline and
     * crash-restart state (fixed order: devices ascending). A crashed
     * device loses its queued-but-unsent messages; those are counted
     * as `crashLost` (`net.crash_lost`), distinct from the
     * queue-bound shedding tallied in `shed`.
     */
    void
    beginEpoch()
    {
        for (size_t d = 0; d < queues_.size(); ++d) {
            offline_[d] = rng_.bernoulli(config_.offlineProb) ? 1 : 0;
            if (offline_[d]) {
                ++stats_.offlineEpochs;
                offlineEpochs_.add(1);
            }
            if (rng_.bernoulli(config_.crashProb)) {
                ++stats_.crashRestarts;
                crashRestarts_.add(1);
                stats_.crashLost += queues_[d].size();
                crashLost_.add(queues_[d].size());
                queues_[d].clear();
            }
        }
    }

    /**
     * Enqueue one uplink message from @p device. Returns the assigned
     * per-device sequence number. When the bounded queue is full the
     * oldest queued message is shed first.
     */
    uint64_t
    send(size_t device, Payload payload)
    {
        uint64_t seq = nextSeq_[device]++;
        ++stats_.sent;
        sent_.add(1);
        auto &queue = queues_[device];
        if (config_.queueCapacity > 0 &&
            queue.size() >= config_.queueCapacity) {
            queue.pop_front(); // oldest-drop shedding
            ++stats_.shed;
            shedCounter_.add(1);
        }
        queue.push_back(Queued{seq, sendIndex_++, std::move(payload)});
        return seq;
    }

    /**
     * Transmit everything transmittable this round and hand arrivals
     * to @p sink as `sink(device, seq, Payload&&)` in arrival order.
     * A sink may also accept a fourth `bool isDup` argument to learn
     * whether an arrival is a duplicated copy rather than the
     * original transmission. Offline devices keep their queues;
     * delayed messages surface at the next deliver() call.
     */
    template <typename Sink>
    void
    deliver(Sink &&sink)
    {
        size_t max_depth = 0;
        for (const auto &q : queues_)
            max_depth = std::max(max_depth, q.size());
        queueDepth_.set(static_cast<double>(max_depth));

        // Last round's delayed messages arrive first (their sendIndex
        // is older, which the stable sort below preserves for ties).
        std::vector<Arrival> arrivals = std::move(delayed_);
        delayed_.clear();

        for (size_t d = 0; d < queues_.size(); ++d) {
            if (offline_[d])
                continue;
            auto &queue = queues_[d];
            while (!queue.empty()) {
                Queued msg = std::move(queue.front());
                queue.pop_front();
                double latency = 0.0;
                if (!transmit(latency))
                    continue; // gave up; message lost
                if (rng_.bernoulli(config_.reorderProb))
                    latency += rng_.uniform(0.0, config_.timeoutTicks);
                bool hold = rng_.bernoulli(config_.delayProb);
                bool dup = rng_.bernoulli(config_.dupProb);
                Arrival arrival{latency, msg.sendIndex, d, msg.seq,
                                std::move(msg.payload)};
                std::optional<Arrival> copy;
                if (dup) {
                    ++stats_.duplicates;
                    duplicates_.add(1);
                    copy = arrival;
                    copy->dupRank = 1;
                }
                // The original goes in before its copy: with an
                // identical (latency, sendIndex) key the dedup window
                // must reject the duplicate, not the original.
                if (hold) {
                    ++stats_.delayed;
                    delayedCounter_.add(1);
                    delayed_.push_back(std::move(arrival));
                } else {
                    arrivals.push_back(std::move(arrival));
                }
                if (copy)
                    (hold ? delayed_ : arrivals)
                        .push_back(std::move(*copy));
            }
        }
        inflightDelayed_.set(static_cast<double>(delayed_.size()));

        // Arrival order: by accumulated latency, send order breaking
        // ties — so a zero-latency round degenerates to send order.
        // Duplicated copies rank after their original on a full tie.
        std::stable_sort(arrivals.begin(), arrivals.end(),
                         [](const Arrival &a, const Arrival &b) {
                             if (a.latency != b.latency)
                                 return a.latency < b.latency;
                             if (a.sendIndex != b.sendIndex)
                                 return a.sendIndex < b.sendIndex;
                             return a.dupRank < b.dupRank;
                         });
        for (auto &a : arrivals) {
            ++stats_.delivered;
            delivered_.add(1);
            invokeSink(sink, a);
        }
    }

    /**
     * One cloud→device version push. Returns false when the push
     * misses the device (offline epoch or downlink drop) — the device
     * then keeps serving its newest held patch.
     */
    bool
    deliverPush(size_t device)
    {
        if (offline_[device] || rng_.bernoulli(config_.pushDropProb)) {
            ++stats_.pushDropped;
            pushDropped_.add(1);
            return false;
        }
        return true;
    }

    /** Messages still queued or held as delayed. */
    size_t
    pendingCount() const
    {
        size_t pending = delayed_.size();
        for (const auto &q : queues_)
            pending += q.size();
        return pending;
    }

    /** End of run: everything still in flight counts as undelivered. */
    void
    shutdown()
    {
        size_t pending = pendingCount();
        stats_.undelivered += pending;
        undelivered_.add(pending);
        for (auto &q : queues_)
            q.clear();
        delayed_.clear();
    }

  private:
    struct Queued
    {
        uint64_t seq = 0;
        uint64_t sendIndex = 0;
        Payload payload;
    };

    struct Arrival
    {
        double latency = 0.0;
        uint64_t sendIndex = 0;
        size_t device = 0;
        uint64_t seq = 0;
        Payload payload;
        uint8_t dupRank = 0; ///< 0 = original, 1 = duplicated copy.
    };

    /** Call @p sink with or without the trailing isDup flag. */
    template <typename Sink>
    void
    invokeSink(Sink &sink, Arrival &a)
    {
        if constexpr (std::is_invocable_v<Sink &, size_t, uint64_t,
                                          Payload &&, bool>)
            sink(a.device, a.seq, std::move(a.payload),
                 a.dupRank != 0);
        else
            sink(a.device, a.seq, std::move(a.payload));
    }

    /**
     * Run one message through the retry loop. Accumulates backoff
     * into @p latency; returns false on give-up (attempt cap or
     * timeout exceeded).
     */
    bool
    transmit(double &latency)
    {
        for (int attempt = 1;; ++attempt) {
            if (!rng_.bernoulli(config_.dropProb))
                return true;
            ++stats_.dropped;
            dropped_.add(1);
            if (attempt >= config_.maxAttempts) {
                ++stats_.gaveUp;
                gaveUp_.add(1);
                return false;
            }
            latency += config_.backoffBeforeRetry(attempt);
            if (latency > config_.timeoutTicks) {
                ++stats_.gaveUp;
                gaveUp_.add(1);
                return false;
            }
            ++stats_.retries;
            retries_.add(1);
        }
    }

    FaultConfig config_;
    Rng rng_;
    ChannelStats stats_;
    uint64_t sendIndex_ = 0;

    std::vector<std::deque<Queued>> queues_; ///< Per-device send queues.
    std::vector<Arrival> delayed_;           ///< Held to next round.
    std::vector<uint64_t> nextSeq_;
    std::vector<char> offline_;

    obs::Counter &sent_;
    obs::Counter &delivered_;
    obs::Counter &dropped_;
    obs::Counter &retries_;
    obs::Counter &gaveUp_;
    obs::Counter &shedCounter_;
    obs::Counter &crashLost_;
    obs::Counter &duplicates_;
    obs::Counter &delayedCounter_;
    obs::Counter &pushDropped_;
    obs::Counter &offlineEpochs_;
    obs::Counter &crashRestarts_;
    obs::Counter &undelivered_;
    obs::Gauge &queueDepth_;
    obs::Gauge &inflightDelayed_;
};

} // namespace nazar::net

#endif // NAZAR_NET_CHANNEL_H
