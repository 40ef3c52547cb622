#include "server/ingest_server.h"

#include <sys/socket.h>

#include <algorithm>
#include <sstream>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace nazar::server {

using net::Frame;
using net::MsgType;

namespace {

/** The trace context a kIngest frame carried (invalid when the
 *  client was untraced — stage spans then become standalone roots,
 *  recorded into the histograms either way). */
obs::TraceContext
ingestContext(const persist::IngestRecord &m)
{
    return {m.traceId, m.spanId};
}

/** The `server.queue_depth` gauge, looked up once. */
obs::Gauge &
queueDepth()
{
    static obs::Gauge &gauge =
        obs::Registry::global().gauge("server.queue_depth");
    return gauge;
}

} // namespace

IngestServer::IngestServer(sim::Cloud &cloud, ServerConfig config)
    : cloud_(cloud), config_(config)
{
    NAZAR_CHECK(config_.maxBatch >= 1,
                "ingest server: maxBatch must be >= 1");
}

IngestServer::~IngestServer() { stop(); }

void
IngestServer::start()
{
    NAZAR_CHECK(!running_, "ingest server: already started");
    listener_.listen(config_.port);
    running_ = true;
    acceptThread_ = std::thread([this] { acceptLoop(); });
    committerThread_ = std::thread([this] { committerLoop(); });
    obs::Registry::global().counter("server.starts").add(1);
}

void
IngestServer::stop()
{
    if (!running_)
        return;
    // Order matters: stop accepting first (no new readers), then wake
    // and join the readers (no new work items), then let the
    // committer drain what is queued, then release the sockets.
    listener_.stop();
    if (acceptThread_.joinable())
        acceptThread_.join();
    {
        std::lock_guard<std::mutex> lk(connMutex_);
        for (auto &conn : conns_) {
            if (conn->stream.valid())
                ::shutdown(conn->stream.fd(), SHUT_RDWR);
        }
    }
    // A reader blocked in a bounded enqueue is not watching its
    // socket; wake it so the join below cannot deadlock with a dead
    // committer (post-crash stop) or a full queue.
    {
        std::lock_guard<std::mutex> lk(queueMutex_);
        shuttingDown_ = true;
    }
    queueSpaceCv_.notify_all();
    {
        std::lock_guard<std::mutex> lk(connMutex_);
        for (auto &conn : conns_) {
            if (conn->reader.joinable())
                conn->reader.join();
        }
    }
    {
        std::lock_guard<std::mutex> lk(queueMutex_);
        stopping_ = true;
    }
    queueCv_.notify_all();
    if (committerThread_.joinable())
        committerThread_.join();
    {
        std::lock_guard<std::mutex> lk(connMutex_);
        conns_.clear(); // closes the fds
    }
    running_ = false;
}

ServerStats
IngestServer::stats() const
{
    std::lock_guard<std::mutex> lk(statsMutex_);
    return stats_;
}

bool
IngestServer::crashed() const
{
    std::lock_guard<std::mutex> lk(crashMutex_);
    return crashed_;
}

bool
IngestServer::waitCrashed(std::chrono::milliseconds timeout)
{
    std::unique_lock<std::mutex> lk(crashMutex_);
    return crashCv_.wait_for(lk, timeout,
                             [this] { return crashed_; });
}

std::string
IngestServer::crashSite() const
{
    std::lock_guard<std::mutex> lk(crashMutex_);
    return crashSite_;
}

bool
IngestServer::diskFaulted() const
{
    std::lock_guard<std::mutex> lk(crashMutex_);
    return diskFaulted_;
}

bool
IngestServer::waitDiskFaulted(std::chrono::milliseconds timeout)
{
    std::unique_lock<std::mutex> lk(crashMutex_);
    return crashCv_.wait_for(lk, timeout,
                             [this] { return diskFaulted_; });
}

std::string
IngestServer::diskFaultSite() const
{
    std::lock_guard<std::mutex> lk(crashMutex_);
    return diskFaultSite_;
}

void
IngestServer::onDiskFault(const persist::DiskFault &e)
{
    // The disk under the WAL failed. The durability layer's fsync
    // gate is latched, so every further commit would throw the same
    // fault — but unlike a crash the process is healthy: latch the
    // degraded mode and keep serving. The item being committed was
    // never acked, so its sender retransmits it to the restarted
    // incarnation (the harness clears the fault by rebuilding the
    // cloud from the state directory).
    {
        std::lock_guard<std::mutex> lk(crashMutex_);
        if (!diskFaulted_) {
            diskFaulted_ = true;
            diskFaultSite_ = e.site();
        }
    }
    crashCv_.notify_all();
    {
        std::lock_guard<std::mutex> lk(statsMutex_);
        ++stats_.diskFaults;
    }
    obs::Registry::global().counter("server.disk_faults").add(1);
}

void
IngestServer::adviseDiskBusy(const std::shared_ptr<Conn> &conn)
{
    if (conn->diskBusyAdvised)
        return;
    conn->diskBusyAdvised = true;
    net::WireBusy busy;
    busy.queueDepth = 0;
    {
        std::lock_guard<std::mutex> wl(conn->writeMutex);
        conn->stream.sendFrame(MsgType::kBusy, net::encodeBusy(busy));
    }
    {
        std::lock_guard<std::mutex> lk(statsMutex_);
        ++stats_.busySent;
    }
    obs::Registry::global().counter("server.busy_sent").add(1);
}

void
IngestServer::onCommitterCrash(const persist::CrashInjected &e)
{
    // The committer thread is dying: make the whole server look dead
    // to the outside, the way a SIGKILL would. No reply for the item
    // that crashed, no more accepts, every connection severed so
    // clients see a reset and enter their reconnect path.
    {
        std::lock_guard<std::mutex> lk(crashMutex_);
        crashed_ = true;
        crashSite_ = e.site();
    }
    crashCv_.notify_all();
    {
        std::lock_guard<std::mutex> lk(queueMutex_);
        shuttingDown_ = true;
    }
    queueSpaceCv_.notify_all();
    listener_.stop();
    {
        std::lock_guard<std::mutex> lk(connMutex_);
        for (auto &conn : conns_) {
            if (conn->stream.valid())
                ::shutdown(conn->stream.fd(), SHUT_RDWR);
        }
    }
    obs::Registry::global().counter("server.crashes").add(1);
}

void
IngestServer::acceptLoop()
{
    for (;;) {
        net::TcpStream stream = listener_.accept();
        if (!stream.valid())
            return; // listener stopped
        auto conn = std::make_shared<Conn>();
        conn->stream = std::move(stream);
        {
            std::lock_guard<std::mutex> lk(connMutex_);
            conn->id = nextConnId_++;
            conns_.push_back(conn);
        }
        {
            std::lock_guard<std::mutex> lk(statsMutex_);
            ++stats_.connections;
        }
        obs::Registry::global().counter("server.connections").add(1);
        conn->reader = std::thread([this, conn] { readerLoop(conn); });
    }
}

void
IngestServer::readerLoop(std::shared_ptr<Conn> conn)
{
    obs::setThreadName("server.reader." + std::to_string(conn->id));
    if (config_.readTimeoutMs > 0)
        conn->stream.setRecvTimeout(config_.readTimeoutMs);
    try {
        // Handshake. The reader writes kHelloAck itself before
        // enqueuing anything; after that the committer writes the
        // replies and the reader only ever adds kBusy advisories
        // (both under the connection's write mutex).
        auto first = conn->stream.recvFrame();
        if (!first.has_value())
            return; // connected and left
        NAZAR_CHECK(first->type == MsgType::kHello,
                    "server: expected kHello, got type " +
                        std::to_string(static_cast<int>(first->type)));
        net::WireHello hello = net::decodeHello(first->payload);
        NAZAR_CHECK(hello.protoVersion == net::kProtocolVersion,
                    "server: protocol version mismatch (client " +
                        std::to_string(hello.protoVersion) + ")");
        net::WireHelloAck ack;
        if (cloud_.recoveredCleanPatch().has_value()) {
            std::ostringstream out;
            cloud_.recoveredCleanPatch()->save(out);
            ack.cleanPatchText = out.str();
            ack.cleanPatchTime = cloud_.recoveredCleanPatchTime();
        }
        if (hello.wantResume) {
            // A reconnecting client reconciles against the dedup
            // windows as they stand right now — recovered state plus
            // anything committed since — so retransmits of ingests
            // that landed are dedup-rejected, never double-applied.
            for (const auto &[device, window] : cloud_.dedupSnapshot())
                ack.resumeHighWater.emplace_back(device,
                                                 window.highWater());
        }
        {
            std::lock_guard<std::mutex> wl(conn->writeMutex);
            conn->stream.sendFrame(MsgType::kHelloAck,
                                   net::encodeHelloAck(ack));
        }

        for (;;) {
            auto frame = conn->stream.recvFrame();
            if (!frame.has_value())
                return; // orderly EOF
            WorkItem item;
            item.conn = conn;
            switch (frame->type) {
              case MsgType::kIngest: {
                item.kind = WorkItem::Kind::kIngest;
                static obs::SpanSite decodeSite("server.read.decode");
                auto t0 = std::chrono::steady_clock::now();
                item.ingest =
                    net::decodeIngest(frame->payload, conn->dict);
                obs::recordSpan(decodeSite, t0,
                                std::chrono::steady_clock::now(),
                                ingestContext(item.ingest));
                break;
              }
              case MsgType::kCycleRequest:
                item.kind = WorkItem::Kind::kCycle;
                item.cleanPatchText = std::move(frame->payload);
                break;
              case MsgType::kFlushRequest:
                item.kind = WorkItem::Kind::kFlush;
                break;
              case MsgType::kBye:
                item.kind = WorkItem::Kind::kBye;
                break;
              default:
                throw NazarError(
                    "server: unexpected message type " +
                    std::to_string(static_cast<int>(frame->type)));
            }
            item.enqueueTime = std::chrono::steady_clock::now();
            if (!enqueue(std::move(item)))
                return; // shutting down (or crashed)
        }
    } catch (const net::TcpTimeout &) {
        // Silent peer past the receive deadline: reap the connection.
        {
            std::lock_guard<std::mutex> lk(statsMutex_);
            ++stats_.readTimeouts;
        }
        obs::Registry::global().counter("server.read_timeouts").add(1);
        if (conn->stream.valid())
            ::shutdown(conn->stream.fd(), SHUT_RDWR);
    } catch (const NazarError &) {
        // Corrupt frame or protocol violation: this connection is
        // done, the server is not. Shut the socket both ways so the
        // peer notices; the committer's writes to it fail gracefully.
        // During shutdown/crash the server severed the socket itself —
        // the resulting recv error is not the peer's fault.
        bool expected;
        {
            std::lock_guard<std::mutex> lk(queueMutex_);
            expected = shuttingDown_;
        }
        if (!expected) {
            {
                std::lock_guard<std::mutex> lk(statsMutex_);
                ++stats_.protocolErrors;
            }
            obs::Registry::global()
                .counter("server.protocol_errors")
                .add(1);
        }
        if (conn->stream.valid())
            ::shutdown(conn->stream.fd(), SHUT_RDWR);
    }
}

bool
IngestServer::enqueue(WorkItem item)
{
    std::shared_ptr<Conn> conn = item.conn;
    std::unique_lock<std::mutex> lk(queueMutex_);
    if (config_.maxQueue > 0) {
        if (queue_.size() >= config_.maxQueue && !shuttingDown_ &&
            !conn->busyAdvised) {
            // Advise once per full-queue episode, then block — the
            // reader stops draining its socket and TCP flow control
            // pushes back to the senders. The advisory is written
            // outside the queue lock (the committer needs it to make
            // space) but under the connection's write mutex so it
            // cannot interleave with a committer reply frame.
            conn->busyAdvised = true;
            net::WireBusy busy;
            busy.queueDepth = static_cast<uint32_t>(queue_.size());
            lk.unlock();
            {
                std::lock_guard<std::mutex> wl(conn->writeMutex);
                conn->stream.sendFrame(MsgType::kBusy,
                                       net::encodeBusy(busy));
            }
            {
                std::lock_guard<std::mutex> sl(statsMutex_);
                ++stats_.busySent;
            }
            obs::Registry::global().counter("server.busy_sent").add(1);
            lk.lock();
        }
        queueSpaceCv_.wait(lk, [this] {
            return shuttingDown_ || queue_.size() < config_.maxQueue;
        });
        conn->busyAdvised = false;
    }
    if (shuttingDown_)
        return false;
    queue_.push_back(std::move(item));
    queueDepth().set(static_cast<double>(queue_.size()));
    lk.unlock();
    queueCv_.notify_one();
    return true;
}

void
IngestServer::committerLoop()
{
    obs::setThreadName("server.committer");
    for (;;) {
        std::unique_lock<std::mutex> lk(queueMutex_);
        queueCv_.wait(lk,
                      [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) {
            if (stopping_)
                return; // drained
            continue;
        }
        try {
            if (queue_.front().kind == WorkItem::Kind::kIngest) {
                // Greedy batch: take the consecutive ingests already
                // queued (across connections), up to maxBatch. Never
                // waits for more — latency under light load stays one
                // record, batches grow only when the queue is deep.
                std::vector<WorkItem> batch;
                while (!queue_.empty() &&
                       queue_.front().kind == WorkItem::Kind::kIngest &&
                       batch.size() < config_.maxBatch) {
                    batch.push_back(std::move(queue_.front()));
                    queue_.pop_front();
                }
                if (config_.maxQueue > 0)
                    queueDepth().set(static_cast<double>(queue_.size()));
                lk.unlock();
                queueSpaceCv_.notify_all();
                commitBatch(batch);
            } else {
                WorkItem item = std::move(queue_.front());
                queue_.pop_front();
                if (config_.maxQueue > 0)
                    queueDepth().set(static_cast<double>(queue_.size()));
                lk.unlock();
                queueSpaceCv_.notify_all();
                switch (item.kind) {
                  case WorkItem::Kind::kCycle:
                    handleCycle(item);
                    break;
                  case WorkItem::Kind::kFlush:
                    handleFlush(item);
                    break;
                  case WorkItem::Kind::kBye:
                    handleBye(item);
                    break;
                  case WorkItem::Kind::kIngest:
                    break; // unreachable
                }
            }
        } catch (const persist::CrashInjected &e) {
            onCommitterCrash(e);
            return; // the committer "process" is dead
        } catch (const persist::DiskFault &e) {
            onDiskFault(e);
            // Stay alive: the loop keeps draining the queue, but the
            // degraded checks in commitBatch/handleCycle/handleFlush
            // stop all cloud writes and all acks.
        }
    }
}

void
IngestServer::commitBatch(std::vector<WorkItem> &batch)
{
    // Stage sites for the per-item latency decomposition. The
    // batch-level commit interval is observed once per item: every
    // item in a group commit waits for the whole batch, so the batch
    // interval IS that item's stage latency.
    static obs::SpanSite queueWaitSite("server.queue_wait");
    static obs::SpanSite commitSite("server.commit");
    static obs::SpanSite ackSite("server.ack");
    static obs::Counter &ingested =
        obs::Registry::global().counter("server.ingest");
    static obs::Counter &acks =
        obs::Registry::global().counter("server.acks");
    static obs::Counter &batches =
        obs::Registry::global().counter("server.batches");

    if (diskFaulted()) {
        // Degraded mode: nothing is durable, so nothing is acked —
        // the senders retransmit after the restart. One advisory per
        // connection tells them to back off meanwhile.
        for (const auto &item : batch)
            adviseDiskBusy(item.conn);
        return;
    }

    if (config_.commitDelayUs > 0)
        std::this_thread::sleep_for(
            std::chrono::microseconds(config_.commitDelayUs));

    auto tDequeue = std::chrono::steady_clock::now();
    for (const auto &item : batch)
        obs::recordSpan(queueWaitSite, item.enqueueTime, tDequeue,
                        ingestContext(item.ingest));

    // Each record moves into the cloud whole. Device, seq and the
    // trace ids are scalars, so the moved-from items still carry what
    // the acks and spans need.
    std::vector<persist::IngestRecord> records;
    records.reserve(batch.size());
    for (auto &item : batch)
        records.push_back(std::move(item.ingest));
    std::vector<bool> accepted =
        cloud_.ingestBatchFrom(std::move(records));
    auto tCommitted = std::chrono::steady_clock::now();
    for (const auto &item : batch)
        obs::recordSpan(commitSite, tDequeue, tCommitted,
                        ingestContext(item.ingest));

    // One write per connection: each connection's acks, in batch
    // order, go out as one buffer. The queue is FIFO and the committer
    // alone, so every connection's byte stream is exactly the frames
    // it would get from one write per ack.
    struct Reply
    {
        Conn *conn;
        std::string bytes;
        std::vector<size_t> items;
    };
    std::vector<Reply> replies;
    for (size_t i = 0; i < batch.size(); ++i) {
        Conn *conn = batch[i].conn.get();
        auto it = std::find_if(replies.begin(), replies.end(),
                               [conn](const Reply &r) {
                                   return r.conn == conn;
                               });
        if (it == replies.end())
            it = replies.insert(replies.end(), Reply{conn, {}, {}});
        net::WireAck ack;
        ack.device = batch[i].ingest.device;
        ack.seq = batch[i].ingest.seq;
        ack.accepted = accepted[i];
        it->bytes += net::encodeFrame(MsgType::kAck, net::encodeAck(ack));
        it->items.push_back(i);
    }
    for (const Reply &reply : replies) {
        {
            std::lock_guard<std::mutex> wl(reply.conn->writeMutex);
            // A false return means the peer vanished; its loss.
            reply.conn->stream.sendBytes(reply.bytes);
        }
        // Each item's ack stage: commit end to the end of the write
        // that carried its ack.
        auto tWritten = std::chrono::steady_clock::now();
        for (size_t i : reply.items)
            obs::recordSpan(ackSite, tCommitted, tWritten,
                            ingestContext(batch[i].ingest));
    }
    {
        std::lock_guard<std::mutex> lk(statsMutex_);
        stats_.ingestMessages += batch.size();
        stats_.acksSent += batch.size();
        stats_.ackWrites += replies.size();
        ++stats_.batches;
    }
    ingested.add(batch.size());
    acks.add(batch.size());
    batches.add(1);
}

void
IngestServer::handleCycle(const WorkItem &item)
{
    if (diskFaulted()) {
        adviseDiskBusy(item.conn);
        return;
    }
    std::istringstream in(item.cleanPatchText);
    nn::BnPatch clean = nn::BnPatch::load(in);
    sim::CycleResult cycle = cloud_.runCycle(clean);
    net::WireCycleDone done;
    done.versionCount = static_cast<uint32_t>(cycle.newVersions.size());
    done.rootCauses =
        static_cast<uint32_t>(cycle.analysis.rootCauses.size());
    done.skippedCauses = static_cast<uint32_t>(cycle.skippedCauses);
    done.adaptedSampleCount = cycle.adaptedSampleCount;
    if (cycle.newCleanPatch.has_value()) {
        std::ostringstream out;
        cycle.newCleanPatch->save(out);
        done.cleanPatchText = out.str();
    }
    {
        std::lock_guard<std::mutex> wl(item.conn->writeMutex);
        item.conn->stream.sendFrame(MsgType::kCycleDone,
                                    net::encodeCycleDone(done));
        for (const auto &version : cycle.newVersions) {
            std::ostringstream out;
            version.save(out);
            item.conn->stream.sendFrame(MsgType::kVersionPush,
                                        out.str());
        }
    }
    {
        std::lock_guard<std::mutex> lk(statsMutex_);
        ++stats_.cycles;
    }
    obs::Registry::global().counter("server.cycles").add(1);
}

void
IngestServer::handleFlush(const WorkItem &item)
{
    if (diskFaulted()) {
        adviseDiskBusy(item.conn);
        return;
    }
    cloud_.flush();
    {
        std::lock_guard<std::mutex> wl(item.conn->writeMutex);
        item.conn->stream.sendFrame(MsgType::kFlushDone, std::string());
    }
    {
        std::lock_guard<std::mutex> lk(statsMutex_);
        ++stats_.flushes;
    }
    obs::Registry::global().counter("server.flushes").add(1);
}

void
IngestServer::handleBye(const WorkItem &item)
{
    net::WireByeAck ack;
    ack.totalIngested = cloud_.totalIngested();
    ack.dedupHits = cloud_.dedupHits();
    {
        std::lock_guard<std::mutex> wl(item.conn->writeMutex);
        item.conn->stream.sendFrame(MsgType::kByeAck,
                                    net::encodeByeAck(ack));
        // EOF for the client's final recv; its reader thread on our
        // side exits when the client closes its half.
        item.conn->stream.shutdownWrite();
    }
}

} // namespace nazar::server
