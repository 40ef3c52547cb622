/**
 * @file
 * Reference implementation of net::Channel's fault model with the
 * plain delivery step: every arrival, payload included, is moved into
 * a vector and the vector is stable-sorted by (latency, send index,
 * duplicate rank). test_net drives it and net::Channel with the same
 * fault seeds and script, and requires the same sink calls, in the
 * same order, and the same ChannelStats. The obs counters are left
 * out: they are global and the channel under test already feeds them.
 */
#ifndef NAZAR_TESTS_CHANNEL_ORACLE_H
#define NAZAR_TESTS_CHANNEL_ORACLE_H

#include <algorithm>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/channel.h"
#include "net/fault.h"

namespace nazar::net::oracle {

template <typename Payload>
class SortingChannel
{
  public:
    SortingChannel(const FaultConfig &config, size_t device_count)
        : config_(config), rng_(config.seed), queues_(device_count),
          nextSeq_(device_count, 0), offline_(device_count, 0)
    {
    }

    const ChannelStats &stats() const { return stats_; }

    void
    beginEpoch()
    {
        for (size_t d = 0; d < queues_.size(); ++d) {
            offline_[d] = rng_.bernoulli(config_.offlineProb) ? 1 : 0;
            if (offline_[d])
                ++stats_.offlineEpochs;
            if (rng_.bernoulli(config_.crashProb)) {
                ++stats_.crashRestarts;
                stats_.crashLost += queues_[d].size();
                queues_[d].clear();
            }
        }
    }

    uint64_t
    send(size_t device, Payload payload)
    {
        uint64_t seq = nextSeq_[device]++;
        ++stats_.sent;
        auto &queue = queues_[device];
        if (config_.queueCapacity > 0 &&
            queue.size() >= config_.queueCapacity) {
            queue.pop_front();
            ++stats_.shed;
        }
        queue.push_back(Queued{seq, sendIndex_++, std::move(payload)});
        return seq;
    }

    /** sink(device, seq, Payload&&, isDup), in arrival order. */
    template <typename Sink>
    void
    deliver(Sink &&sink)
    {
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
                    continue;
                if (rng_.bernoulli(config_.reorderProb))
                    latency += rng_.uniform(0.0, config_.timeoutTicks);
                bool hold = rng_.bernoulli(config_.delayProb);
                bool dup = rng_.bernoulli(config_.dupProb);
                Arrival arrival{latency, msg.sendIndex, d, msg.seq,
                                std::move(msg.payload)};
                std::optional<Arrival> copy;
                if (dup) {
                    ++stats_.duplicates;
                    copy = arrival;
                    copy->dupRank = 1;
                }
                if (hold) {
                    ++stats_.delayed;
                    delayed_.push_back(std::move(arrival));
                } else {
                    arrivals.push_back(std::move(arrival));
                }
                if (copy)
                    (hold ? delayed_ : arrivals)
                        .push_back(std::move(*copy));
            }
        }
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
            sink(a.device, a.seq, std::move(a.payload), a.dupRank != 0);
        }
    }

    bool
    deliverPush(size_t device)
    {
        if (offline_[device] || rng_.bernoulli(config_.pushDropProb)) {
            ++stats_.pushDropped;
            return false;
        }
        return true;
    }

    void
    shutdown()
    {
        size_t pending = delayed_.size();
        for (const auto &q : queues_)
            pending += q.size();
        stats_.undelivered += pending;
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
        uint8_t dupRank = 0;
    };

    bool
    transmit(double &latency)
    {
        for (int attempt = 1;; ++attempt) {
            if (!rng_.bernoulli(config_.dropProb))
                return true;
            ++stats_.dropped;
            if (attempt >= config_.maxAttempts) {
                ++stats_.gaveUp;
                return false;
            }
            latency += config_.backoffBeforeRetry(attempt);
            if (latency > config_.timeoutTicks) {
                ++stats_.gaveUp;
                return false;
            }
            ++stats_.retries;
        }
    }

    FaultConfig config_;
    Rng rng_;
    ChannelStats stats_;
    uint64_t sendIndex_ = 0;
    std::vector<std::deque<Queued>> queues_;
    std::vector<Arrival> delayed_;
    std::vector<uint64_t> nextSeq_;
    std::vector<char> offline_;
};

} // namespace nazar::net::oracle

#endif // NAZAR_TESTS_CHANNEL_ORACLE_H
