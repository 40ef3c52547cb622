/**
 * @file
 * The Nazar ingest wire protocol: length-prefixed, CRC-checked binary
 * frames over a byte stream (TCP), reusing the persist::serial codec
 * the WAL records are built from.
 *
 * Frame layout (mirrors a WAL record, so a torn or corrupt frame is
 * detected the same way a torn WAL tail is):
 *
 *     [u32 bodyLen][u32 crc32(body)][body]
 *     body = [u8 msgType][payload...]
 *
 * Message set:
 *
 *     kHello        client→server  protoVersion, client name
 *     kHelloAck     server→client  protoVersion, recovered clean
 *                                  patch (optional) + its logical time
 *     kIngest       client→server  one sequenced ingest attempt
 *                                  (interned strings, see StringDict)
 *     kAck          server→client  (device, seq, accepted) — false
 *                                  means the dedup window rejected it
 *     kCycleRequest client→server  clean BN patch (BnPatch::save text)
 *     kCycleDone    server→client  cycle summary + clean patch, the
 *                                  published versions follow as
 *                                  kVersionPush frames
 *     kVersionPush  server→client  one ModelVersion::save text blob
 *     kFlushRequest client→server  archive buffers without analysis
 *     kFlushDone    server→client
 *     kBye          client→server  end of session
 *     kByeAck       server→client  final server tallies
 *     kBusy         server→client  advisory: committer queue full, the
 *                                  reader has stopped draining; sent
 *                                  at most once per blocking episode
 *
 * Extensions: a kIngest payload may end with an optional extension
 * block — [u8 extCount] then per extension [u8 tag][u32 len][bytes].
 * Decoders skip unknown tags by length, and an absent block adds no
 * bytes. Tag 1 (kExtTraceContext) carries the obs trace context (u64
 * traceId + u64 spanId) so a device upload's causal trace continues
 * across the process boundary into the server's reader and committer
 * threads.
 *
 * kHello/kHelloAck use the same trailing-optional pattern for session
 * resume: a reconnecting client appends a `wantResume` bool to its
 * kHello, and the server answers with a resume block of recovered
 * per-device high-water seqs on the kHelloAck. Both are encoded only
 * when present (fresh sessions never carry them), so fault-free runs
 * put the same bytes on the wire as a protocol without resume.
 *
 * Every decoder rejects a payload with bytes left over after its last
 * (trailing-optional) field: the protocol has only ever had one
 * version, so an unknown suffix is a malformed frame, not a newer
 * peer.
 *
 * String interning: device ids, locations, weather strings and
 * attribute columns repeat in almost every kIngest payload, so each
 * connection direction carries a StringDict. The first occurrence of
 * a string is sent as [u32 kNewString][string] and assigned the next
 * id; later occurrences are just [u32 id]. Encoder and decoder stay
 * in lockstep because both assign ids in arrival order; a duplicated
 * (retransmitted) frame replays its definition bytes, so defines are
 * idempotent on the decode side.
 *
 * This header lives in net (not server) so the client side — used by
 * sim::Runner's remote mode — stays free of a dependency on sim.
 */
#ifndef NAZAR_NET_WIRE_H
#define NAZAR_NET_WIRE_H

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "driftlog/drift_log.h"
#include "persist/serial.h"

namespace nazar::net {

/** Protocol revision carried in kHello/kHelloAck. */
inline constexpr uint32_t kProtocolVersion = 1;

/** Upper bound on one frame's body; larger lengths are corruption. */
inline constexpr uint32_t kMaxFrameBytes = 1u << 26;

enum class MsgType : uint8_t {
    kHello = 1,
    kHelloAck = 2,
    kIngest = 3,
    kAck = 4,
    kCycleRequest = 5,
    kCycleDone = 6,
    kVersionPush = 7,
    kFlushRequest = 8,
    kFlushDone = 9,
    kBye = 10,
    kByeAck = 11,
    kBusy = 12,
};

/** One decoded frame. */
struct Frame
{
    MsgType type;
    std::string payload;
};

/** Serialize one frame (header + CRC + body). */
std::string encodeFrame(MsgType type, const std::string &payload);

/**
 * Incremental frame decoder over an arbitrary chunking of the byte
 * stream. feed() appends bytes; next() yields complete frames and
 * throws NazarError on a corrupt one (CRC mismatch, oversized length,
 * unknown message type) — a wire peer, unlike the WAL scan, cannot
 * "truncate the tail" and must drop the connection instead.
 */
class FrameParser
{
  public:
    void feed(const char *data, size_t len);

    /** Next complete frame, or nullopt when more bytes are needed. */
    std::optional<Frame> next();

    /** Bytes buffered but not yet consumed by next(). */
    size_t buffered() const { return buf_.size() - pos_; }

  private:
    std::string buf_;
    size_t pos_ = 0;
};

/**
 * Per-direction string interning table. Symmetric: the encoder and
 * the decoder each hold one and assign ids in the same order.
 */
class StringDict
{
  public:
    /** Sentinel id introducing a not-yet-interned string. */
    static constexpr uint32_t kNewString = 0xFFFFFFFFu;

    /** Encode @p s as an id, defining it first when unknown. */
    void encode(persist::Writer &w, const std::string &s);

    /** Decode one dict-encoded string, learning new definitions. */
    std::string decode(persist::Reader &r);

    /** Distinct strings interned so far. */
    size_t size() const { return strings_.size(); }

    /** Occurrences encoded as a bare id (the bytes-saving case). */
    uint64_t hits() const { return hits_; }

  private:
    std::unordered_map<std::string, uint32_t> ids_;
    std::vector<std::string> strings_;
    uint64_t hits_ = 0;
};

/** kIngest extension tags (see the extension-block format above). */
inline constexpr uint8_t kExtTraceContext = 1;

/** Old name of persist::IngestRecord, kept only because nazarbench/ is
 *  frozen (its runs stay comparable across commits) and still uses it. */
using WireIngest = persist::IngestRecord;

/**
 * One kIngest payload. The trace ids are encoded only when
 * traceId != 0, so an untraced payload is byte-identical to the
 * extension-free format.
 */
std::string encodeIngest(const persist::IngestRecord &m, StringDict &dict);
persist::IngestRecord decodeIngest(const std::string &payload,
                                   StringDict &dict);

/** One kAck payload. */
struct WireAck
{
    int64_t device = 0;
    uint64_t seq = 0;
    bool accepted = false;
};

std::string encodeAck(const WireAck &a);
WireAck decodeAck(const std::string &payload);

/** kHello payload. */
struct WireHello
{
    uint32_t protoVersion = kProtocolVersion;
    std::string clientName;
    /** Set on a reconnect handshake: asks the server for its dedup
     *  high-water seqs so the client can reconcile what landed.
     *  Encoded only when true (trailing optional — see above). */
    bool wantResume = false;
};

std::string encodeHello(const WireHello &h);
WireHello decodeHello(const std::string &payload);

/** kHelloAck payload. */
struct WireHelloAck
{
    uint32_t protoVersion = kProtocolVersion;
    /** Clean patch recovered from the server's state dir, when any. */
    std::optional<std::string> cleanPatchText;
    int64_t cleanPatchTime = 0;
    /**
     * Resume block: (device, highest seq the dedup window accounts
     * for) per device the server knows about, from a live
     * dedupSnapshot(). With per-device monotone send order on an
     * ordered connection, seq <= highWater means that ingest landed.
     * Encoded only when non-empty — answers to kHello.wantResume.
     */
    std::vector<std::pair<int64_t, uint64_t>> resumeHighWater;
};

std::string encodeHelloAck(const WireHelloAck &h);
WireHelloAck decodeHelloAck(const std::string &payload);

/** kCycleDone payload (kVersionPush frames follow, one per version). */
struct WireCycleDone
{
    uint32_t versionCount = 0;
    uint32_t rootCauses = 0;
    uint32_t skippedCauses = 0;
    uint64_t adaptedSampleCount = 0;
    std::optional<std::string> cleanPatchText;
};

std::string encodeCycleDone(const WireCycleDone &c);
WireCycleDone decodeCycleDone(const std::string &payload);

/** kByeAck payload: the server's final tallies for reconciliation. */
struct WireByeAck
{
    uint64_t totalIngested = 0;
    uint64_t dedupHits = 0;
};

std::string encodeByeAck(const WireByeAck &b);
WireByeAck decodeByeAck(const std::string &payload);

/** kBusy payload: committer queue depth when the advisory fired. */
struct WireBusy
{
    uint32_t queueDepth = 0;
};

std::string encodeBusy(const WireBusy &b);
WireBusy decodeBusy(const std::string &payload);

} // namespace nazar::net

#endif // NAZAR_NET_WIRE_H
