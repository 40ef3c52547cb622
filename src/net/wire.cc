#include "net/wire.h"

#include <cstring>
#include <limits>

#include "common/error.h"

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

/** Tagged driftlog::Value with dict-encoded strings. */
void
putValueInterned(Writer &w, const driftlog::Value &v, StringDict &dict)
{
    w.putU8(static_cast<uint8_t>(v.type()));
    switch (v.type()) {
      case driftlog::ValueType::kNull:
        break;
      case driftlog::ValueType::kInt:
        w.putI64(v.asInt());
        break;
      case driftlog::ValueType::kDouble:
        w.putF64(v.asDouble());
        break;
      case driftlog::ValueType::kBool:
        w.putBool(v.asBool());
        break;
      case driftlog::ValueType::kString:
        dict.encode(w, v.asString());
        break;
    }
}

driftlog::Value
getValueInterned(Reader &r, StringDict &dict)
{
    auto type = static_cast<driftlog::ValueType>(r.getU8());
    switch (type) {
      case driftlog::ValueType::kNull:
        return driftlog::Value();
      case driftlog::ValueType::kInt:
        return driftlog::Value(r.getI64());
      case driftlog::ValueType::kDouble:
        return driftlog::Value(r.getF64());
      case driftlog::ValueType::kBool:
        return driftlog::Value(r.getBool());
      case driftlog::ValueType::kString:
        return driftlog::Value(dict.decode(r));
    }
    throw NazarError("wire: unknown Value type tag " +
                     std::to_string(static_cast<int>(type)));
}

void
putAttributeSetInterned(Writer &w, const rca::AttributeSet &attrs,
                        StringDict &dict)
{
    w.putU32(static_cast<uint32_t>(attrs.size()));
    for (const auto &attr : attrs.attributes()) {
        dict.encode(w, attr.column);
        putValueInterned(w, attr.value, dict);
    }
}

rca::AttributeSet
getAttributeSetInterned(Reader &r, StringDict &dict)
{
    uint32_t n = r.getU32();
    // Each attribute needs at least a dict id (4 bytes) plus a value
    // tag; bound the count before reserving so a corrupt frame with a
    // recomputed CRC can't trigger a huge allocation.
    NAZAR_CHECK(static_cast<uint64_t>(n) * 5 <= r.remaining(),
                "wire: attribute count exceeds frame");
    std::vector<rca::Attribute> attrs;
    attrs.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
        rca::Attribute attr;
        attr.column = dict.decode(r);
        attr.value = getValueInterned(r, dict);
        attrs.push_back(std::move(attr));
    }
    return rca::AttributeSet(std::move(attrs));
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

void
StringDict::encode(Writer &w, const std::string &s)
{
    auto it = ids_.find(s);
    if (it != ids_.end()) {
        w.putU32(it->second);
        ++hits_;
        return;
    }
    uint32_t id = static_cast<uint32_t>(strings_.size());
    NAZAR_CHECK(id != kNewString, "wire: string dictionary full");
    ids_.emplace(s, id);
    strings_.push_back(s);
    w.putU32(kNewString);
    w.putString(s);
}

std::string
StringDict::decode(Reader &r)
{
    uint32_t id = r.getU32();
    if (id == kNewString) {
        std::string s = r.getString();
        // Idempotent define: a retransmitted (duplicated) frame
        // replays its definition bytes, and re-adding would desync
        // the decoder's ids from the encoder's.
        if (ids_.find(s) == ids_.end()) {
            ids_.emplace(s, static_cast<uint32_t>(strings_.size()));
            strings_.push_back(s);
        }
        return s;
    }
    NAZAR_CHECK(id < strings_.size(),
                "wire: string id " + std::to_string(id) +
                    " out of range");
    return strings_[id];
}

std::string
encodeIngest(const persist::IngestRecord &m, StringDict &dict)
{
    Writer w;
    w.putI64(m.device);
    w.putU64(m.seq);
    w.putU32(static_cast<uint32_t>(m.entry.time.dayIndex()));
    w.putU32(static_cast<uint32_t>(m.entry.time.secondOfDay()));
    dict.encode(w, m.entry.deviceId);
    dict.encode(w, m.entry.deviceModel);
    dict.encode(w, m.entry.location);
    dict.encode(w, m.entry.weather);
    w.putI64(m.entry.modelVersion);
    w.putBool(m.entry.drift);
    w.putBool(m.upload.has_value());
    if (m.upload.has_value()) {
        w.putU64(m.upload->features.size());
        for (double f : m.upload->features)
            w.putF64(f);
        putAttributeSetInterned(w, m.upload->context, dict);
        w.putBool(m.upload->driftFlag);
    }
    if (m.traceId != 0) {
        w.putU8(1); // Extension count.
        w.putU8(kExtTraceContext);
        w.putU32(16);
        w.putU64(m.traceId);
        w.putU64(m.spanId);
    }
    return w.take();
}

persist::IngestRecord
decodeIngest(const std::string &payload, StringDict &dict)
{
    Reader r(payload);
    persist::IngestRecord m;
    m.device = r.getI64();
    // A negative id would be ingested without dedup; every sender's
    // device ids fit an int.
    NAZAR_CHECK(m.device >= 0 &&
                    m.device <= std::numeric_limits<int>::max(),
                "wire: device id out of range");
    m.seq = r.getU64();
    int day = static_cast<int>(r.getU32());
    int second = static_cast<int>(r.getU32());
    m.entry.time = SimDate(day, second);
    m.entry.deviceId = dict.decode(r);
    m.entry.deviceModel = dict.decode(r);
    m.entry.location = dict.decode(r);
    m.entry.weather = dict.decode(r);
    m.entry.modelVersion = r.getI64();
    m.entry.drift = r.getBool();
    if (r.getBool()) {
        persist::UploadRecord up;
        uint64_t n = r.getU64();
        NAZAR_CHECK(n * 8 <= r.remaining(),
                    "wire: upload feature count exceeds frame");
        up.features.reserve(static_cast<size_t>(n));
        for (uint64_t i = 0; i < n; ++i)
            up.features.push_back(r.getF64());
        up.context = getAttributeSetInterned(r, dict);
        up.driftFlag = r.getBool();
        m.upload = std::move(up);
    }
    if (!r.atEnd()) {
        uint8_t extCount = r.getU8();
        for (uint8_t i = 0; i < extCount; ++i) {
            uint8_t tag = r.getU8();
            uint32_t len = r.getU32();
            NAZAR_CHECK(len <= r.remaining(),
                        "wire: extension length exceeds frame");
            if (tag == kExtTraceContext && len == 16) {
                m.traceId = r.getU64();
                m.spanId = r.getU64();
            } else {
                r.skip(len); // Unknown tag: skipped by length.
            }
        }
    }
    NAZAR_CHECK(r.atEnd(), "wire: trailing bytes in kIngest payload");
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
    // Trailing optional: only reconnect handshakes carry the flag, so
    // a fresh session's kHello stays byte-identical to the pre-resume
    // protocol.
    if (h.wantResume)
        w.putBool(true);
    return w.take();
}

WireHello
decodeHello(const std::string &payload)
{
    Reader r(payload);
    WireHello h;
    h.protoVersion = r.getU32();
    h.clientName = r.getString();
    if (!r.atEnd())
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
    // Trailing optional resume block (answers kHello.wantResume).
    if (!h.resumeHighWater.empty()) {
        w.putU32(static_cast<uint32_t>(h.resumeHighWater.size()));
        for (const auto &[device, highWater] : h.resumeHighWater) {
            w.putI64(device);
            w.putU64(highWater);
        }
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
    if (!r.atEnd()) {
        uint32_t n = r.getU32();
        NAZAR_CHECK(static_cast<uint64_t>(n) * 16 <= r.remaining(),
                    "wire: resume block count exceeds frame");
        h.resumeHighWater.reserve(n);
        for (uint32_t i = 0; i < n; ++i) {
            int64_t device = r.getI64();
            uint64_t highWater = r.getU64();
            h.resumeHighWater.emplace_back(device, highWater);
        }
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
