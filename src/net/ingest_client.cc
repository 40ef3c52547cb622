#include "net/ingest_client.h"

#include <algorithm>
#include <thread>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace nazar::net {

namespace {

/**
 * Thrown when reconnectAndResume exhausts ReconnectPolicy::maxAttempts.
 * Distinct so the retry wrappers can tell "the outage outlasted the
 * policy" (propagate) from "the connection just died" (resume again);
 * still a NazarError so callers outside this file see a normal
 * connection failure.
 */
class ReconnectFailed : public NazarError
{
  public:
    explicit ReconnectFailed(const std::string &what) : NazarError(what)
    {
    }
};

void
sleepMs(double ms)
{
    if (ms > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(ms));
}

} // namespace

IngestClient::IngestClient(uint16_t port, const FaultConfig &chaos,
                           const std::string &client_name,
                           const ReconnectPolicy &reconnect)
    : chaos_(chaos),
      chaosOn_(chaos.dropProb > 0.0 || chaos.dupProb > 0.0),
      rng_(chaos.seed), port_(port), clientName_(client_name),
      policy_(reconnect), sessionOn_(reconnect.enabled)
{
    int attempt = 0;
    for (;;) {
        try {
            stream_ = TcpStream::connect(port_);
            if (policy_.recvTimeoutMs > 0)
                stream_.setRecvTimeout(policy_.recvTimeoutMs);
            handshake(false);
            return;
        } catch (const NazarError &) {
            stream_ = TcpStream();
            if (!sessionOn_ || ++attempt >= policy_.maxAttempts)
                throw;
            sleepMs(policy_.backoffBeforeAttemptMs(attempt));
        }
    }
}

void
IngestClient::handshake(bool want_resume)
{
    WireHello hello;
    hello.clientName = clientName_;
    hello.wantResume = want_resume;
    NAZAR_CHECK(stream_.sendFrame(MsgType::kHello, encodeHello(hello)),
                "ingest client: server closed during handshake");
    Frame reply = expectFrame();
    NAZAR_CHECK(reply.type == MsgType::kHelloAck,
                "ingest client: expected kHelloAck, got type " +
                    std::to_string(static_cast<int>(reply.type)));
    helloAck_ = decodeHelloAck(reply.payload);
    NAZAR_CHECK(helloAck_.protoVersion == kProtocolVersion,
                "ingest client: protocol version mismatch (server " +
                    std::to_string(helloAck_.protoVersion) + ", client " +
                    std::to_string(kProtocolVersion) + ")");
}

bool
IngestClient::sendIngest(const persist::IngestRecord &m)
{
    if (chaosOn_ && chaos_.dropProb > 0.0) {
        // A "lost send": retry up to the attempt cap, then give up —
        // same shape as Channel::transmit, but over a real socket the
        // only observable outcome is sent vs never-sent.
        int attempt = 1;
        while (rng_.bernoulli(chaos_.dropProb)) {
            if (attempt >= chaos_.maxAttempts) {
                ++stats_.gaveUp;
                obs::Registry::global()
                    .counter("net.client.gave_up")
                    .add(1);
                return false;
            }
            ++attempt;
            ++stats_.retries;
        }
    }
    // The duplicate draw happens HERE, before any send: the chaos RNG
    // must consume the same draws in the same order whether or not a
    // send throws mid-message (a crashed-server run and an uncrashed
    // run then give up / duplicate the exact same messages, which is
    // what lets tests compare a crash run against an oracle). No RNG
    // is consumed between this draw and the sends, so the wire bytes
    // of a fault-free run are unchanged.
    bool dup = chaosOn_ && chaos_.dupProb > 0.0 &&
               rng_.bernoulli(chaos_.dupProb);
    if (dup)
        ++stats_.duplicates;
    Pending *pending = nullptr;
    if (sessionOn_) {
        // Remember the decoded message before touching the wire: if
        // the send fails mid-frame the resume path retransmits from
        // here. An already-present key is an upstream (channel-level)
        // re-delivery of the same (device, seq) — the server will
        // dedup-reject it, so it owes one more rejected ack.
        auto [it, inserted] =
            pending_.try_emplace({m.device, m.seq}, Pending{});
        pending = &it->second;
        if (inserted) {
            pending->msg = m;
            pending->order = nextPendingOrder_++;
        } else {
            ++pending->targetRejects;
        }
        if (dup) {
            // Register the duplicate's owed rejection up front: even
            // if the copy never reaches the wire (crash mid-message),
            // the resume path materializes it as an owed-reject copy,
            // keeping acksRejected == duplicates across restarts.
            ++pending->targetRejects;
        }
        ++stats_.sent;
    }
    try {
        std::string payload;
        if (obs::enabled() && obs::tracing()) {
            // Mint this upload's root context; its ids ride the wire so
            // the server's stage spans join the same trace. The root
            // span itself is recorded when the ack closes it (onAck).
            obs::TraceContext ctx = obs::newTraceContext();
            static obs::SpanSite encodeSite("net.client.encode");
            auto t0 = std::chrono::steady_clock::now();
            payload = encodeIngest(m, ctx);
            obs::recordSpan(encodeSite, t0,
                            std::chrono::steady_clock::now(), ctx);
            pendingTraces_[{m.device, m.seq}] = {ctx.traceId,
                                                 ctx.spanId, t0};
        } else {
            payload = encodeIngest(m);
        }
        std::string frame = encodeFrame(MsgType::kIngest, payload);
        NAZAR_CHECK(stream_.sendBytes(frame),
                    "ingest client: server closed during send");
        if (!sessionOn_)
            ++stats_.sent;
        ++stats_.framesSent;
        ++outstanding_;
        if (pending)
            ++pending->copies;
        if (dup) {
            // Retransmission whose ack was lost: byte-identical copy;
            // the server must dedup it (its ack comes back rejected).
            NAZAR_CHECK(stream_.sendBytes(frame),
                        "ingest client: server closed during send");
            ++stats_.framesSent;
            ++outstanding_;
            if (pending)
                ++pending->copies;
        }
        pumpAcks();
    } catch (const ReconnectFailed &) {
        throw;
    } catch (const NazarError &) {
        if (!sessionOn_)
            throw;
        reconnectAndResume();
    }
    return true;
}

void
IngestClient::onAck(const Frame &frame)
{
    if (frame.type == MsgType::kBusy) {
        // Advisory only: the reader has stopped draining; TCP flow
        // control is already pushing back. Tally and move on.
        ++stats_.busySeen;
        return;
    }
    NAZAR_CHECK(frame.type == MsgType::kAck,
                "ingest client: expected kAck, got type " +
                    std::to_string(static_cast<int>(frame.type)));
    WireAck ack = decodeAck(frame.payload);
    NAZAR_CHECK(outstanding_ > 0,
                "ingest client: unsolicited ack for device " +
                    std::to_string(ack.device));
    --outstanding_;
    if (!sessionOn_) {
        if (ack.accepted)
            ++stats_.acksAccepted;
        else
            ++stats_.acksRejected;
    } else {
        auto it = pending_.find({ack.device, ack.seq});
        if (it == pending_.end()) {
            // Ack for an entry already settled via resume — absorb.
            ++stats_.resentRejected;
        } else {
            Pending &p = it->second;
            --p.copies;
            if (!p.acceptedCredited) {
                // First settlement is the accepted credit even when
                // the wire flag says rejected: a rejected first ack
                // means the ingest landed on a path whose ack was
                // lost (crash, or the old connection's queue draining
                // past the resume snapshot).
                p.acceptedCredited = true;
                ++stats_.acksAccepted;
            } else if (!ack.accepted &&
                       p.rejectsCredited < p.targetRejects) {
                ++p.rejectsCredited;
                ++stats_.acksRejected;
            } else {
                ++stats_.resentRejected;
            }
            if (p.copies <= 0 && p.acceptedCredited &&
                p.rejectsCredited >= p.targetRejects)
                pending_.erase(it);
        }
    }
    if (!pendingTraces_.empty()) {
        auto it = pendingTraces_.find({ack.device, ack.seq});
        if (it != pendingTraces_.end()) {
            // Close the upload's root span: send → ack, with the id
            // the wire carried so server-side children parent to it.
            // (A duplicate's second ack finds no entry and is skipped.)
            static obs::SpanSite rootSite("net.client.ingest");
            obs::recordSpan(
                rootSite, it->second.start,
                std::chrono::steady_clock::now(),
                obs::TraceContext{it->second.traceId, 0},
                it->second.spanId);
            pendingTraces_.erase(it);
        }
    }
    if (ackObserver_)
        ackObserver_(ack);
}

void
IngestClient::pumpAcks()
{
    while (outstanding_ > 0) {
        auto frame = stream_.tryRecvFrame();
        if (!frame.has_value())
            return;
        onAck(*frame);
    }
}

void
IngestClient::drainAcks()
{
    while (outstanding_ > 0) {
        try {
            auto frame = stream_.recvFrame();
            NAZAR_CHECK(frame.has_value(),
                        "ingest client: EOF with " +
                            std::to_string(outstanding_) +
                            " acks outstanding");
            onAck(*frame);
        } catch (const ReconnectFailed &) {
            throw;
        } catch (const NazarError &) {
            if (!sessionOn_)
                throw;
            reconnectAndResume();
        }
    }
}

Frame
IngestClient::expectFrame()
{
    for (;;) {
        auto frame = stream_.recvFrame();
        NAZAR_CHECK(frame.has_value(),
                    "ingest client: unexpected EOF from server");
        if (frame->type == MsgType::kBusy) {
            ++stats_.busySeen;
            continue;
        }
        return std::move(*frame);
    }
}

void
IngestClient::reconnectAndResume()
{
    NAZAR_ASSERT(sessionOn_,
                 "reconnectAndResume without a reconnect policy");
    for (int attempt = 1;; ++attempt) {
        if (attempt > policy_.maxAttempts)
            throw ReconnectFailed(
                "ingest client: reconnect gave up after " +
                std::to_string(policy_.maxAttempts) + " attempts");
        sleepMs(policy_.backoffBeforeAttemptMs(attempt));
        try {
            stream_ = TcpStream::connect(port_);
            if (policy_.recvTimeoutMs > 0)
                stream_.setRecvTimeout(policy_.recvTimeoutMs);
            handshake(true);
            // The old connection's acks are gone; what landed is
            // re-derived from the resume block, so outstanding
            // bookkeeping restarts from the retransmits alone.
            pendingTraces_.clear();
            outstanding_ = 0;
            settleAndRetransmit();
            ++stats_.reconnects;
            obs::Registry::global()
                .counter("net.client.reconnects")
                .add(1);
            return;
        } catch (const NazarError &) {
            stream_ = TcpStream();
        }
    }
}

void
IngestClient::settleAndRetransmit()
{
    std::map<int64_t, uint64_t> high;
    for (const auto &[device, hw] : helloAck_.resumeHighWater)
        high[device] = hw;
    // Pass 1: settle everything the server already accounts for. A
    // seq at or below the device's high water landed (or was dedup-
    // rejected) before the crash; any rejections still owed for its
    // duplicate copies are credited here — the acks for them died
    // with the old connection.
    for (auto it = pending_.begin(); it != pending_.end();) {
        const auto &[device, seq] = it->first;
        Pending &p = it->second;
        auto hit = high.find(device);
        if (hit != high.end() && seq <= hit->second) {
            if (!p.acceptedCredited) {
                p.acceptedCredited = true;
                ++stats_.acksAccepted;
                ++stats_.resumedLanded;
            }
            stats_.acksRejected +=
                static_cast<uint64_t>(p.targetRejects -
                                      p.rejectsCredited);
            it = pending_.erase(it);
        } else {
            ++it;
        }
    }
    // Pass 2: retransmit the rest in ORIGINAL SEND ORDER (the server
    // commits FIFO, so the surviving entries are a contiguous suffix
    // of the send order; replaying them in that order reproduces the
    // exact global arrival sequence the uncrashed run would have had,
    // which keeps a remote Runner's recovered state row-identical to
    // the in-process one). One copy earns the accepted credit (or a
    // dedup rejection if the old connection's queue landed it after
    // the resume snapshot — onAck treats a rejected first ack as the
    // accepted credit), plus one copy per rejection still owed to a
    // duplicate.
    std::vector<Pending *> rest;
    rest.reserve(pending_.size());
    for (auto &[key, p] : pending_)
        rest.push_back(&p);
    std::sort(rest.begin(), rest.end(),
              [](const Pending *a, const Pending *b) {
                  return a->order < b->order;
              });
    uint64_t resentHere = 0;
    for (Pending *p : rest) {
        int copies = (p->acceptedCredited ? 0 : 1) +
                     (p->targetRejects - p->rejectsCredited);
        p->copies = copies;
        if (copies == 0)
            continue;
        std::string frame =
            encodeFrame(MsgType::kIngest, encodeIngest(p->msg));
        for (int i = 0; i < copies; ++i) {
            NAZAR_CHECK(stream_.sendBytes(frame),
                        "ingest client: server closed during resume");
            ++outstanding_;
            ++resentHere;
        }
    }
    stats_.resent += resentHere;
    if (resentHere > 0)
        obs::Registry::global()
            .counter("net.client.resent")
            .add(static_cast<double>(resentHere));
}

RemoteCycle
IngestClient::requestCycle(const std::string &clean_patch_text)
{
    for (;;) {
        try {
            if (sessionOn_) {
                // Settle ingest acks before the request goes out: if
                // a resume fires inside this drain, the new server
                // must still receive the cycle request afterwards.
                drainAcks();
            }
            NAZAR_CHECK(
                stream_.sendFrame(MsgType::kCycleRequest,
                                  clean_patch_text),
                "ingest client: server closed during cycle request");
            // The committer processes this connection's frames in
            // order, so every ack for the ingests above arrives
            // before kCycleDone.
            drainAcks();
            Frame frame = expectFrame();
            NAZAR_CHECK(
                frame.type == MsgType::kCycleDone,
                "ingest client: expected kCycleDone, got type " +
                    std::to_string(static_cast<int>(frame.type)));
            RemoteCycle cycle;
            cycle.done = decodeCycleDone(frame.payload);
            cycle.versionTexts.reserve(cycle.done.versionCount);
            for (uint32_t i = 0; i < cycle.done.versionCount; ++i) {
                Frame push = expectFrame();
                NAZAR_CHECK(
                    push.type == MsgType::kVersionPush,
                    "ingest client: expected kVersionPush, got type " +
                        std::to_string(static_cast<int>(push.type)));
                cycle.versionTexts.push_back(std::move(push.payload));
            }
            return cycle;
        } catch (const ReconnectFailed &) {
            throw;
        } catch (const NazarError &) {
            if (!sessionOn_)
                throw;
            // At-least-once: a crash between the server committing
            // the cycle and the reply landing makes the retry run a
            // second cycle (see the header note).
            reconnectAndResume();
        }
    }
}

void
IngestClient::requestFlush()
{
    for (;;) {
        try {
            if (sessionOn_)
                drainAcks();
            NAZAR_CHECK(
                stream_.sendFrame(MsgType::kFlushRequest,
                                  std::string()),
                "ingest client: server closed during flush request");
            drainAcks();
            Frame frame = expectFrame();
            NAZAR_CHECK(
                frame.type == MsgType::kFlushDone,
                "ingest client: expected kFlushDone, got type " +
                    std::to_string(static_cast<int>(frame.type)));
            return;
        } catch (const ReconnectFailed &) {
            throw;
        } catch (const NazarError &) {
            if (!sessionOn_)
                throw;
            reconnectAndResume();
        }
    }
}

WireByeAck
IngestClient::bye()
{
    for (;;) {
        try {
            if (sessionOn_)
                drainAcks();
            NAZAR_CHECK(stream_.sendFrame(MsgType::kBye, std::string()),
                        "ingest client: server closed during bye");
            drainAcks();
            Frame frame = expectFrame();
            NAZAR_CHECK(frame.type == MsgType::kByeAck,
                        "ingest client: expected kByeAck, got type " +
                            std::to_string(static_cast<int>(frame.type)));
            WireByeAck ack = decodeByeAck(frame.payload);
            stream_.shutdownWrite();
            auto eof = stream_.recvFrame();
            NAZAR_CHECK(!eof.has_value(),
                        "ingest client: unexpected frame after kByeAck");
            return ack;
        } catch (const ReconnectFailed &) {
            throw;
        } catch (const NazarError &) {
            if (!sessionOn_)
                throw;
            reconnectAndResume();
        }
    }
}

} // namespace nazar::net
