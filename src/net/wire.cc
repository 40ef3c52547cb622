#include "net/wire.h"

#include <limits>

#include "common/error.h"
#include "persist/cloud_persist.h"

namespace nazar::net {

using persist::Reader;
using persist::Writer;

namespace {

bool
knownType(uint8_t t)
{
    return t >= static_cast<uint8_t>(MsgType::kHello) &&
           t <= static_cast<uint8_t>(MsgType::kBusy);
}

} // namespace

std::string
encodeFrame(MsgType type, const std::string &payload)
{
    Writer frame = persist::writeFrame(1 + payload.size(), [&](Writer &w) {
        w.putU8(static_cast<uint8_t>(type));
        w.putBytes(payload.data(), payload.size());
    });
    return frame.take();
}

void
FrameParser::feed(const char *data, size_t len)
{
    // Compact once the consumed prefix dominates, so a long-lived
    // connection doesn't grow the buffer without bound.
    if (pos_ > 0 && pos_ >= buf_.size() / 2) {
        buf_.erase(0, pos_);
        pos_ = 0;
    }
    buf_.append(data, len);
}

std::optional<Frame>
FrameParser::next()
{
    if (buf_.size() - pos_ < 8)
        return std::nullopt;
    Reader head(buf_.data() + pos_, 8);
    uint32_t len = head.getU32();
    uint32_t crc = head.getU32();
    NAZAR_CHECK(len >= 1 && len <= kMaxFrameBytes,
                "wire: frame length " + std::to_string(len) +
                    " out of range");
    if (buf_.size() - pos_ - 8 < len)
        return std::nullopt;
    const char *body = buf_.data() + pos_ + 8;
    NAZAR_CHECK(persist::crc32(body, len) == crc,
                "wire: frame CRC mismatch");
    uint8_t type = static_cast<uint8_t>(body[0]);
    NAZAR_CHECK(knownType(type),
                "wire: unknown message type " + std::to_string(type));
    Frame frame;
    frame.type = static_cast<MsgType>(type);
    frame.payload.assign(body + 1, len - 1);
    pos_ += 8 + len;
    return frame;
}

std::string
encodeIngest(const persist::IngestRecord &m, obs::TraceContext ctx)
{
    Writer w;
    w.putU64(ctx.traceId);
    w.putU64(ctx.spanId);
    persist::putIngest(w, m);
    return w.take();
}

persist::IngestRecord
decodeIngest(std::string_view payload)
{
    Reader r(payload);
    const uint64_t trace_id = r.getU64();
    const uint64_t span_id = r.getU64();
    persist::IngestRecord m =
        persist::getIngest(payload.substr(kTraceContextBytes));
    NAZAR_CHECK(m.device >= 0 &&
                    m.device <= std::numeric_limits<int>::max(),
                "wire: device id out of range");
    m.traceId = trace_id;
    m.spanId = span_id;
    return m;
}

std::string
encodeAck(const WireAck &a)
{
    Writer w;
    w.putI64(a.device);
    w.putU64(a.seq);
    w.putBool(a.accepted);
    return w.take();
}

WireAck
decodeAck(const std::string &payload)
{
    Reader r(payload);
    WireAck a;
    a.device = r.getI64();
    a.seq = r.getU64();
    a.accepted = r.getBool();
    NAZAR_CHECK(r.atEnd(), "wire: trailing bytes in kAck payload");
    return a;
}

std::string
encodeHello(const WireHello &h)
{
    Writer w;
    w.putU32(h.protoVersion);
    w.putString(h.clientName);
    w.putBool(h.wantResume);
    return w.take();
}

WireHello
decodeHello(const std::string &payload)
{
    Reader r(payload);
    WireHello h;
    h.protoVersion = r.getU32();
    h.clientName = r.getString();
    h.wantResume = r.getBool();
    NAZAR_CHECK(r.atEnd(), "wire: trailing bytes in kHello payload");
    return h;
}

std::string
encodeHelloAck(const WireHelloAck &h)
{
    Writer w;
    w.putU32(h.protoVersion);
    w.putBool(h.cleanPatchText.has_value());
    if (h.cleanPatchText.has_value()) {
        w.putString(*h.cleanPatchText);
        w.putI64(h.cleanPatchTime);
    }
    w.putU32(static_cast<uint32_t>(h.resumeHighWater.size()));
    for (const auto &[device, highWater] : h.resumeHighWater) {
        w.putI64(device);
        w.putU64(highWater);
    }
    return w.take();
}

WireHelloAck
decodeHelloAck(const std::string &payload)
{
    Reader r(payload);
    WireHelloAck h;
    h.protoVersion = r.getU32();
    if (r.getBool()) {
        h.cleanPatchText = r.getString();
        h.cleanPatchTime = r.getI64();
    }
    uint32_t n = r.getU32();
    NAZAR_CHECK(n <= r.remaining() / 16,
                "wire: resume block count exceeds frame");
    h.resumeHighWater.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
        int64_t device = r.getI64();
        uint64_t highWater = r.getU64();
        h.resumeHighWater.emplace_back(device, highWater);
    }
    NAZAR_CHECK(r.atEnd(), "wire: trailing bytes in kHelloAck payload");
    return h;
}

std::string
encodeCycleDone(const WireCycleDone &c)
{
    Writer w;
    w.putU32(c.versionCount);
    w.putU32(c.rootCauses);
    w.putU32(c.skippedCauses);
    w.putU64(c.adaptedSampleCount);
    w.putBool(c.cleanPatchText.has_value());
    if (c.cleanPatchText.has_value())
        w.putString(*c.cleanPatchText);
    return w.take();
}

WireCycleDone
decodeCycleDone(const std::string &payload)
{
    Reader r(payload);
    WireCycleDone c;
    c.versionCount = r.getU32();
    c.rootCauses = r.getU32();
    c.skippedCauses = r.getU32();
    c.adaptedSampleCount = r.getU64();
    if (r.getBool())
        c.cleanPatchText = r.getString();
    NAZAR_CHECK(r.atEnd(), "wire: trailing bytes in kCycleDone payload");
    return c;
}

std::string
encodeByeAck(const WireByeAck &b)
{
    Writer w;
    w.putU64(b.totalIngested);
    w.putU64(b.dedupHits);
    return w.take();
}

WireByeAck
decodeByeAck(const std::string &payload)
{
    Reader r(payload);
    WireByeAck b;
    b.totalIngested = r.getU64();
    b.dedupHits = r.getU64();
    NAZAR_CHECK(r.atEnd(), "wire: trailing bytes in kByeAck payload");
    return b;
}

std::string
encodeBusy(const WireBusy &b)
{
    Writer w;
    w.putU32(b.queueDepth);
    return w.take();
}

WireBusy
decodeBusy(const std::string &payload)
{
    Reader r(payload);
    WireBusy b;
    b.queueDepth = r.getU32();
    NAZAR_CHECK(r.atEnd(), "wire: trailing bytes in kBusy payload");
    return b;
}

} // namespace nazar::net
