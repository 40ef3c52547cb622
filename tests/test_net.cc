/**
 * @file
 * Tests for the unreliable-transport layer: fault configuration,
 * fault-free send-order delivery, retry/backoff/give-up, duplication,
 * delay carry-over, reorder, bounded-queue shedding, offline/crash
 * epochs, downlink push drops, and seed reproducibility.
 */
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "net/channel.h"
#include "net/fault.h"
#include "sim/cloud.h"

namespace nazar::net {
namespace {

struct Delivery
{
    size_t device;
    uint64_t seq;
    int payload;

    bool
    operator==(const Delivery &o) const
    {
        return device == o.device && seq == o.seq && payload == o.payload;
    }
};

std::vector<Delivery>
drain(Channel<int> &channel)
{
    std::vector<Delivery> out;
    channel.deliver([&](size_t device, uint64_t seq, int &&payload) {
        out.push_back({device, seq, payload});
    });
    return out;
}

TEST(FaultConfig, BackoffIsCappedExponential)
{
    FaultConfig c;
    c.backoffBase = 1.0;
    c.backoffCap = 8.0;
    EXPECT_DOUBLE_EQ(c.backoffBeforeRetry(1), 1.0);
    EXPECT_DOUBLE_EQ(c.backoffBeforeRetry(2), 2.0);
    EXPECT_DOUBLE_EQ(c.backoffBeforeRetry(3), 4.0);
    EXPECT_DOUBLE_EQ(c.backoffBeforeRetry(4), 8.0);
    EXPECT_DOUBLE_EQ(c.backoffBeforeRetry(5), 8.0); // capped
}

TEST(Channel, PassThroughPreservesSendOrderAndSeqs)
{
    Channel<int> channel(FaultConfig{}, 2);
    channel.beginEpoch(); // no-op in pass-through mode
    channel.send(0, 10);
    channel.send(1, 11);
    channel.send(0, 12);
    channel.send(1, 13);
    std::vector<Delivery> got = drain(channel);
    std::vector<Delivery> want = {
        {0, 0, 10}, {1, 0, 11}, {0, 1, 12}, {1, 1, 13}};
    EXPECT_EQ(got, want);
    EXPECT_EQ(channel.stats().sent, 4u);
    EXPECT_EQ(channel.stats().delivered, 4u);
    EXPECT_EQ(channel.stats().dropped, 0u);
    EXPECT_TRUE(channel.deliverPush(0)); // pushes always land
    EXPECT_TRUE(drain(channel).empty()); // nothing left
}

TEST(Channel, DropRetriesThenGivesUpAtAttemptCap)
{
    FaultConfig config;
    config.dropProb = 1.0;
    config.maxAttempts = 3;
    config.timeoutTicks = 1000.0;
    Channel<int> channel(config, 1);
    for (int i = 0; i < 5; ++i)
        channel.send(0, i);
    EXPECT_TRUE(drain(channel).empty());
    EXPECT_EQ(channel.stats().gaveUp, 5u);
    EXPECT_EQ(channel.stats().dropped, 15u); // 3 attempts per message
    EXPECT_EQ(channel.stats().retries, 10u); // 2 retries per message
    EXPECT_EQ(channel.stats().delivered, 0u);
}

TEST(Channel, TimeoutGivesUpBeforeAttemptCap)
{
    FaultConfig config;
    config.dropProb = 1.0;
    config.maxAttempts = 100;
    config.backoffBase = 1.0;
    config.timeoutTicks = 2.0; // 1 + 2 > 2 after the second failure
    Channel<int> channel(config, 1);
    channel.send(0, 7);
    EXPECT_TRUE(drain(channel).empty());
    EXPECT_EQ(channel.stats().gaveUp, 1u);
    EXPECT_EQ(channel.stats().dropped, 2u);
    EXPECT_EQ(channel.stats().retries, 1u);
}

TEST(Channel, DuplicateDeliversTheSameSeqTwice)
{
    FaultConfig config;
    config.dupProb = 1.0;
    Channel<int> channel(config, 1);
    for (int i = 0; i < 3; ++i)
        channel.send(0, i);
    std::vector<Delivery> got = drain(channel);
    ASSERT_EQ(got.size(), 6u);
    std::map<uint64_t, int> per_seq;
    for (const auto &d : got)
        ++per_seq[d.seq];
    for (const auto &[seq, count] : per_seq)
        EXPECT_EQ(count, 2) << "seq " << seq;
    EXPECT_EQ(channel.stats().duplicates, 3u);
}

TEST(Channel, DelayedMessagesArriveNextRound)
{
    FaultConfig config;
    config.delayProb = 1.0;
    Channel<int> channel(config, 1);
    channel.send(0, 1);
    channel.send(0, 2);
    EXPECT_TRUE(drain(channel).empty());
    EXPECT_EQ(channel.stats().delayed, 2u);
    std::vector<Delivery> second = drain(channel);
    EXPECT_EQ(second.size(), 2u);
    EXPECT_EQ(channel.stats().delivered, 2u);
}

TEST(Channel, BoundedQueueShedsOldestFirst)
{
    FaultConfig config;
    config.queueCapacity = 2;
    Channel<int> channel(config, 1);
    for (int i = 0; i < 5; ++i)
        channel.send(0, i);
    std::vector<Delivery> got = drain(channel);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].seq, 3u); // oldest (0,1,2) were shed
    EXPECT_EQ(got[1].seq, 4u);
    EXPECT_EQ(channel.stats().shed, 3u);
}

TEST(Channel, OfflineEpochHoldsQueueAndMissesPushes)
{
    FaultConfig config;
    config.offlineProb = 1.0;
    Channel<int> channel(config, 1);
    channel.beginEpoch();
    EXPECT_TRUE(channel.offline(0));
    channel.send(0, 5);
    EXPECT_TRUE(drain(channel).empty());
    EXPECT_FALSE(channel.deliverPush(0));
    EXPECT_GE(channel.stats().offlineEpochs, 1u);
    EXPECT_GE(channel.stats().pushDropped, 1u);
    EXPECT_EQ(channel.pendingCount(), 1u);
    channel.shutdown();
    EXPECT_EQ(channel.stats().undelivered, 1u);
}

TEST(Channel, CrashRestartLosesTheQueue)
{
    FaultConfig config;
    config.crashProb = 1.0;
    Channel<int> channel(config, 1);
    channel.send(0, 1);
    channel.send(0, 2);
    channel.beginEpoch(); // crash fires here
    EXPECT_GE(channel.stats().crashRestarts, 1u);
    // Crash-wiped messages are their own failure mode, not queue
    // pressure: they count as crashLost, never as shed.
    EXPECT_EQ(channel.stats().crashLost, 2u);
    EXPECT_EQ(channel.stats().shed, 0u);
    EXPECT_TRUE(drain(channel).empty());
}

TEST(Channel, OriginalPrecedesItsDuplicateOnATieKey)
{
    // A duplicated message and its copy share an identical
    // (latency, sendIndex) sort key; the original must win the tie so
    // a receiver's dedup window rejects the copy, not the original.
    FaultConfig config;
    config.dupProb = 1.0;
    config.reorderProb = 1.0; // jitter everything; ties must still hold
    Channel<int> channel(config, 1);
    for (int i = 0; i < 16; ++i)
        channel.send(0, i);
    struct Arrival
    {
        uint64_t seq;
        bool isDup;
    };
    std::vector<Arrival> got;
    channel.deliver(
        [&](size_t, uint64_t seq, int &&, bool is_dup) {
            got.push_back({seq, is_dup});
        });
    ASSERT_EQ(got.size(), 32u);
    std::set<uint64_t> seen;
    for (const auto &a : got) {
        if (seen.insert(a.seq).second)
            EXPECT_FALSE(a.isDup) << "first arrival of seq " << a.seq
                                  << " was the duplicate";
        else
            EXPECT_TRUE(a.isDup) << "second arrival of seq " << a.seq
                                 << " was not the duplicate";
    }
    EXPECT_EQ(seen.size(), 16u);
}

TEST(Channel, CloudIngestAcceptsTheOriginalOnADupDraw)
{
    // End-to-end form of the tie-break regression: drive a real
    // Cloud's idempotent ingest off the faulted channel and check the
    // dedup window always admits the original and rejects the copy.
    FaultConfig config;
    config.dupProb = 1.0;
    Channel<driftlog::DriftLogEntry> channel(config, 1);
    nn::Classifier base(nn::Architecture::kResNet18, 8, 4, 1);
    sim::Cloud cloud(sim::CloudConfig{}, base);
    for (int i = 0; i < 6; ++i) {
        driftlog::DriftLogEntry entry;
        entry.time = SimDate(i, 0);
        entry.deviceId = "dev-0";
        entry.location = "park";
        channel.send(0, std::move(entry));
    }
    channel.deliver([&](size_t device, uint64_t seq,
                        driftlog::DriftLogEntry &&entry, bool is_dup) {
        std::vector<persist::IngestRecord> one;
        one.push_back(persist::IngestRecord{static_cast<int64_t>(device),
                                            seq, std::move(entry),
                                            std::nullopt});
        bool accepted = cloud.ingestBatchFrom(std::move(one))[0];
        EXPECT_EQ(accepted, !is_dup)
            << "seq " << seq << ": dedup admitted the duplicate";
    });
    EXPECT_EQ(cloud.totalIngested(), 6u);
    EXPECT_EQ(cloud.dedupHits(), 6u);
}

TEST(Channel, ShutdownCountsQueuedDelayedAndReadyAsUndelivered)
{
    // Fault-free: sends sit in the device queue until delivered.
    Channel<int> ready_only(FaultConfig{}, 1);
    ready_only.send(0, 1);
    ready_only.send(0, 2);
    ready_only.send(0, 3);
    EXPECT_EQ(ready_only.pendingCount(), 3u);
    ready_only.shutdown();
    EXPECT_EQ(ready_only.stats().undelivered, 3u);
    EXPECT_EQ(ready_only.pendingCount(), 0u);

    // Delayed: held arrivals past the last round are undelivered too.
    FaultConfig delay;
    delay.delayProb = 1.0;
    Channel<int> delayed(delay, 1);
    delayed.send(0, 1);
    delayed.send(0, 2);
    EXPECT_TRUE(drain(delayed).empty());
    EXPECT_EQ(delayed.pendingCount(), 2u);
    delayed.shutdown();
    EXPECT_EQ(delayed.stats().undelivered, 2u);

    // Offline device queue: never flushed before the run ends.
    FaultConfig off;
    off.offlineProb = 1.0;
    Channel<int> queued(off, 1);
    queued.beginEpoch();
    queued.send(0, 9);
    EXPECT_TRUE(drain(queued).empty());
    EXPECT_EQ(queued.pendingCount(), 1u);
    queued.shutdown();
    EXPECT_EQ(queued.stats().undelivered, 1u);
    // Shutdown is terminal for the queues, not cumulative.
    queued.shutdown();
    EXPECT_EQ(queued.stats().undelivered, 1u);
}

TEST(Channel, ReorderStillDeliversEverythingExactlyOnce)
{
    FaultConfig config;
    config.reorderProb = 1.0;
    Channel<int> channel(config, 2);
    for (int i = 0; i < 25; ++i) {
        channel.send(0, i);
        channel.send(1, i);
    }
    std::vector<Delivery> got = drain(channel);
    ASSERT_EQ(got.size(), 50u);
    std::set<std::pair<size_t, uint64_t>> seen;
    for (const auto &d : got)
        seen.insert({d.device, d.seq});
    EXPECT_EQ(seen.size(), 50u); // every (device, seq) exactly once
    EXPECT_EQ(channel.stats().gaveUp, 0u);
}

/** Run a fully faulted two-epoch exchange and record what arrived. */
std::vector<Delivery>
faultedExchange(uint64_t seed)
{
    FaultConfig config;
    config.dropProb = 0.3;
    config.dupProb = 0.2;
    config.delayProb = 0.2;
    config.reorderProb = 0.5;
    config.offlineProb = 0.1;
    config.crashProb = 0.05;
    config.pushDropProb = 0.2;
    config.queueCapacity = 8;
    config.seed = seed;
    Channel<int> channel(config, 4);
    std::vector<Delivery> all;
    int payload = 0;
    for (int epoch = 0; epoch < 3; ++epoch) {
        channel.beginEpoch();
        for (int i = 0; i < 20; ++i)
            channel.send(static_cast<size_t>(i % 4), payload++);
        channel.deliver([&](size_t device, uint64_t seq, int &&p) {
            all.push_back({device, seq, p});
        });
        for (size_t d = 0; d < 4; ++d)
            all.push_back(
                {d, channel.deliverPush(d) ? 1u : 0u, -1});
    }
    return all;
}

TEST(Channel, ReproducibleFromTheFaultSeed)
{
    std::vector<Delivery> a = faultedExchange(41);
    std::vector<Delivery> b = faultedExchange(41);
    EXPECT_EQ(a, b);
    std::vector<Delivery> c = faultedExchange(42);
    EXPECT_NE(a, c); // 60 messages: a collision is astronomically rare
}

} // namespace
} // namespace nazar::net
