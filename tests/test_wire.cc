/**
 * @file
 * Tests for the ingest wire protocol: frame encode/parse round-trips
 * under arbitrary chunking, corrupt-frame rejection (truncation, CRC,
 * oversize, unknown type), the kIngest payload (trace context plus the
 * WAL's record bytes), and payload decoders that either decode or
 * throw NazarError on any input.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <exception>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "net/wire.h"
#include "persist/cloud_persist.h"

namespace nazar::net {
namespace {

/** Feed @p bytes to a parser in chunks of @p chunk and collect. */
std::vector<Frame>
parseChunked(const std::string &bytes, size_t chunk)
{
    FrameParser parser;
    std::vector<Frame> frames;
    for (size_t i = 0; i < bytes.size(); i += chunk) {
        parser.feed(bytes.data() + i,
                    std::min(chunk, bytes.size() - i));
        while (auto frame = parser.next())
            frames.push_back(std::move(*frame));
    }
    return frames;
}

TEST(FrameParser, RoundTripsAtEveryChunking)
{
    std::string stream = encodeFrame(MsgType::kHello, "alpha") +
                         encodeFrame(MsgType::kAck, std::string()) +
                         encodeFrame(MsgType::kIngest,
                                     std::string("\x00\x01\x02", 3));
    for (size_t chunk : {size_t(1), size_t(3), size_t(7), stream.size()}) {
        std::vector<Frame> frames = parseChunked(stream, chunk);
        ASSERT_EQ(frames.size(), 3u) << "chunk " << chunk;
        EXPECT_EQ(frames[0].type, MsgType::kHello);
        EXPECT_EQ(frames[0].payload, "alpha");
        EXPECT_EQ(frames[1].type, MsgType::kAck);
        EXPECT_TRUE(frames[1].payload.empty());
        EXPECT_EQ(frames[2].type, MsgType::kIngest);
        EXPECT_EQ(frames[2].payload.size(), 3u);
    }
}

TEST(FrameParser, EncodeFrameBytesArePinned)
{
    // [u32 LE body length][u32 LE crc32(body)][u8 type][payload], with
    // the CRC-32 (reflected 0xEDB88320) of each body computed offline.
    EXPECT_EQ(encodeFrame(MsgType::kHello, "alpha"),
              std::string("\x06\x00\x00\x00\x71\xbc\x5c\x6c"
                          "\x01"
                          "alpha",
                          14));
    EXPECT_EQ(encodeFrame(MsgType::kAck, std::string()),
              std::string("\x01\x00\x00\x00\x94\x2b\x6f\xd5\x04", 9));
}

TEST(FrameParser, TruncatedFrameWaitsForMoreBytes)
{
    std::string frame = encodeFrame(MsgType::kHello, "payload");
    FrameParser parser;
    parser.feed(frame.data(), frame.size() - 1);
    EXPECT_FALSE(parser.next().has_value());
    EXPECT_EQ(parser.buffered(), frame.size() - 1);
    parser.feed(frame.data() + frame.size() - 1, 1);
    auto out = parser.next();
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->payload, "payload");
    EXPECT_EQ(parser.buffered(), 0u);
}

TEST(FrameParser, CorruptBodyFailsTheCrc)
{
    std::string frame = encodeFrame(MsgType::kHello, "payload");
    frame[frame.size() - 1] ^= 0x40; // flip a bit in the body
    FrameParser parser;
    parser.feed(frame.data(), frame.size());
    EXPECT_THROW(parser.next(), NazarError);
}

TEST(FrameParser, OversizedLengthIsRejectedBeforeBuffering)
{
    // A corrupt length field must throw immediately, not make the
    // parser wait for 2^31 bytes that will never come.
    persist::Writer w;
    w.putU32(kMaxFrameBytes + 1);
    w.putU32(0);
    std::string head = w.take();
    FrameParser parser;
    parser.feed(head.data(), head.size());
    EXPECT_THROW(parser.next(), NazarError);

    persist::Writer zero;
    zero.putU32(0); // length 0 cannot even hold the type byte
    zero.putU32(0);
    std::string zhead = zero.take();
    FrameParser zparser;
    zparser.feed(zhead.data(), zhead.size());
    EXPECT_THROW(zparser.next(), NazarError);
}

TEST(FrameParser, UnknownMessageTypeIsRejected)
{
    persist::Writer body;
    body.putU8(99); // no such MsgType
    persist::Writer frame;
    frame.putU32(1);
    frame.putU32(persist::crc32(body.bytes().data(), body.size()));
    frame.putBytes(body.bytes().data(), body.size());
    std::string bytes = frame.take();
    FrameParser parser;
    parser.feed(bytes.data(), bytes.size());
    EXPECT_THROW(parser.next(), NazarError);
}

persist::IngestRecord
sampleIngest(bool with_upload)
{
    persist::IngestRecord m;
    m.device = 42;
    m.seq = 7;
    m.entry.time = SimDate(33, 4521);
    m.entry.deviceId = "android_42";
    m.entry.deviceModel = "pixel-4";
    m.entry.location = "harbor";
    m.entry.weather = "snow";
    m.entry.modelVersion = 3;
    m.entry.drift = true;
    if (with_upload) {
        persist::UploadRecord up;
        up.features = {0.25, -1.5, std::nan(""), 3.25};
        up.context = rca::AttributeSet(
            {{"location", driftlog::Value(std::string("harbor"))},
             {"weather", driftlog::Value(std::string("snow"))}});
        up.driftFlag = true;
        m.upload = std::move(up);
    }
    return m;
}

TEST(WireIngest, RoundTripsIncludingNaN)
{
    for (bool with_upload : {true, false}) {
        persist::IngestRecord in = sampleIngest(with_upload);
        persist::IngestRecord out = decodeIngest(encodeIngest(in));
        EXPECT_EQ(out.device, in.device);
        EXPECT_EQ(out.seq, in.seq);
        EXPECT_EQ(out.entry.time.dayIndex(), 33);
        EXPECT_EQ(out.entry.time.secondOfDay(), 4521);
        EXPECT_EQ(out.entry.deviceId, "android_42");
        EXPECT_EQ(out.entry.deviceModel, "pixel-4");
        EXPECT_EQ(out.entry.location, "harbor");
        EXPECT_EQ(out.entry.weather, "snow");
        EXPECT_EQ(out.entry.modelVersion, 3);
        EXPECT_TRUE(out.entry.drift);
        EXPECT_EQ(out.traceId, 0u);
        EXPECT_EQ(out.spanId, 0u);
        ASSERT_EQ(out.upload.has_value(), with_upload);
        if (with_upload) {
            ASSERT_EQ(out.upload->features.size(), 4u);
            EXPECT_DOUBLE_EQ(out.upload->features[0], 0.25);
            EXPECT_TRUE(std::isnan(out.upload->features[2]));
            EXPECT_EQ(out.upload->context, in.upload->context);
            EXPECT_TRUE(out.upload->driftFlag);
        }
    }
}

TEST(WireIngest, RecordBytesAreTheWalPayload)
{
    // [u64 traceId][u64 spanId] then exactly what the WAL stores for
    // the record, traced or not; the record's own trace fields are
    // never encoded.
    for (bool with_upload : {true, false}) {
        persist::IngestRecord in = sampleIngest(with_upload);
        const std::string wal = persist::CloudPersistence::encodeIngest(in);
        in.traceId = 77;
        in.spanId = 78;
        for (obs::TraceContext ctx :
             {obs::TraceContext{}, obs::TraceContext{0x1122334455667788u,
                                                      0x99}}) {
            const std::string bytes = encodeIngest(in, ctx);
            ASSERT_EQ(bytes.size(), kTraceContextBytes + wal.size());
            EXPECT_EQ(bytes.substr(kTraceContextBytes), wal);
            persist::Reader r(bytes);
            EXPECT_EQ(r.getU64(), ctx.traceId);
            EXPECT_EQ(r.getU64(), ctx.spanId);
        }
    }
}

TEST(WireIngest, TraceContextRoundTrips)
{
    persist::IngestRecord in = sampleIngest(true);
    persist::IngestRecord out =
        decodeIngest(encodeIngest(in, {0xDEADBEEFCAFEF00DULL, 42}));
    EXPECT_EQ(out.traceId, 0xDEADBEEFCAFEF00DULL);
    EXPECT_EQ(out.spanId, 42u);
    EXPECT_EQ(out.device, in.device);
    EXPECT_EQ(out.seq, in.seq);
}

TEST(WireIngest, DeviceIdOutsideTheDedupKeyRangeIsRejected)
{
    for (int64_t device : {int64_t{-1}, int64_t{1} << 40}) {
        persist::IngestRecord in = sampleIngest(false);
        in.device = device;
        EXPECT_THROW(decodeIngest(encodeIngest(in)), NazarError)
            << "device " << device;
    }
}

TEST(WireIngest, TrailingBytesAndTruncationAreRejected)
{
    std::string bytes = encodeIngest(sampleIngest(true));
    EXPECT_THROW(decodeIngest(bytes + "x"), NazarError);
    // Truncating mid-upload leaves a feature count larger than the
    // remaining bytes; the guard must catch it before allocating.
    EXPECT_THROW(decodeIngest(bytes.substr(0, bytes.size() - 9)),
                 NazarError);
    // Shorter than the trace context.
    EXPECT_THROW(decodeIngest(bytes.substr(0, kTraceContextBytes - 1)),
                 NazarError);
}

TEST(WireIngest, OverflowingFeatureCountThrowsNazarError)
{
    // A feature count whose byte size wraps around 2^64 (2^61 + 1
    // features of 8 bytes "need" 8 bytes) must be refused as a
    // malformed payload, not reach a vector reserve that throws
    // std::length_error past the server's NazarError handler.
    persist::IngestRecord in = sampleIngest(false);
    persist::Writer w;
    w.putU64(0);
    w.putU64(0);
    w.putU8(3); // has upload, from device
    w.putI64(in.device);
    w.putU64(in.seq);
    persist::putEntry(w, in.entry);
    w.putU64((uint64_t{1} << 61) + 1);
    w.putF64(1.0);
    w.putF64(2.0);
    EXPECT_THROW(decodeIngest(w.take()), NazarError);
}

TEST(WireMessages, ControlPayloadsRoundTrip)
{
    WireHello hello;
    hello.clientName = "runner";
    WireHello hello2 = decodeHello(encodeHello(hello));
    EXPECT_EQ(hello2.protoVersion, kProtocolVersion);
    EXPECT_EQ(hello2.clientName, "runner");

    WireHelloAck hack;
    hack.cleanPatchText = "patch-blob";
    hack.cleanPatchTime = 5;
    WireHelloAck hack2 = decodeHelloAck(encodeHelloAck(hack));
    ASSERT_TRUE(hack2.cleanPatchText.has_value());
    EXPECT_EQ(*hack2.cleanPatchText, "patch-blob");
    EXPECT_EQ(hack2.cleanPatchTime, 5);
    WireHelloAck none = decodeHelloAck(encodeHelloAck(WireHelloAck{}));
    EXPECT_FALSE(none.cleanPatchText.has_value());

    WireAck ack{42, 7, true};
    WireAck ack2 = decodeAck(encodeAck(ack));
    EXPECT_EQ(ack2.device, 42);
    EXPECT_EQ(ack2.seq, 7u);
    EXPECT_TRUE(ack2.accepted);

    WireCycleDone done;
    done.versionCount = 2;
    done.rootCauses = 3;
    done.skippedCauses = 1;
    done.adaptedSampleCount = 640;
    done.cleanPatchText = "clean";
    WireCycleDone done2 = decodeCycleDone(encodeCycleDone(done));
    EXPECT_EQ(done2.versionCount, 2u);
    EXPECT_EQ(done2.rootCauses, 3u);
    EXPECT_EQ(done2.skippedCauses, 1u);
    EXPECT_EQ(done2.adaptedSampleCount, 640u);
    ASSERT_TRUE(done2.cleanPatchText.has_value());
    EXPECT_EQ(*done2.cleanPatchText, "clean");

    WireByeAck bye{100, 4};
    WireByeAck bye2 = decodeByeAck(encodeByeAck(bye));
    EXPECT_EQ(bye2.totalIngested, 100u);
    EXPECT_EQ(bye2.dedupHits, 4u);
}

TEST(WireMessages, ResumeFieldsRoundTripInAFixedLayout)
{
    // wantResume is always one byte, so the flag changes no offset.
    WireHello plain;
    plain.clientName = "runner";
    WireHello resume = plain;
    resume.wantResume = true;
    std::string plain_bytes = encodeHello(plain);
    std::string resume_bytes = encodeHello(resume);
    EXPECT_EQ(plain_bytes.size(), resume_bytes.size());
    EXPECT_FALSE(decodeHello(plain_bytes).wantResume);
    EXPECT_TRUE(decodeHello(resume_bytes).wantResume);

    // The kHelloAck resume block: round trip, and an empty block is a
    // count of 0.
    WireHelloAck ack;
    ack.cleanPatchText = "patch";
    WireHelloAck with = ack;
    with.resumeHighWater = {{1000, 57}, {-3, 9}};
    std::string ack_bytes = encodeHelloAck(ack);
    std::string with_bytes = encodeHelloAck(with);
    EXPECT_EQ(with_bytes.size(), ack_bytes.size() + 2 * 16);
    EXPECT_EQ(ack_bytes.substr(ack_bytes.size() - 4),
              std::string(4, '\0'));
    WireHelloAck out = decodeHelloAck(with_bytes);
    ASSERT_EQ(out.resumeHighWater.size(), 2u);
    EXPECT_EQ(out.resumeHighWater[0],
              (std::pair<int64_t, uint64_t>(1000, 57)));
    EXPECT_EQ(out.resumeHighWater[1],
              (std::pair<int64_t, uint64_t>(-3, 9)));
    EXPECT_TRUE(decodeHelloAck(ack_bytes).resumeHighWater.empty());
    // Without the count the payload is truncated, not resume-free.
    EXPECT_THROW(decodeHelloAck(ack_bytes.substr(0, ack_bytes.size() - 4)),
                 NazarError);

    // A resume-block count larger than the frame must throw, not
    // reserve gigabytes.
    persist::Writer bad;
    bad.putBytes(ack_bytes.data(), ack_bytes.size() - 4);
    bad.putU32(0x00FFFFFFu); // claims ~16M entries, no bytes follow
    EXPECT_THROW(decodeHelloAck(bad.take()), NazarError);

    // kBusy round trip.
    WireBusy busy{17};
    EXPECT_EQ(decodeBusy(encodeBusy(busy)).queueDepth, 17u);
}

// Every decoder rejects one byte appended after its last field; each
// message is encoded with its optional fields present.
TEST(WireMessages, HelloRejectsTrailingBytes)
{
    WireHello hello;
    hello.clientName = "runner";
    hello.wantResume = true;
    std::string bytes = encodeHello(hello);
    EXPECT_TRUE(decodeHello(bytes).wantResume);
    EXPECT_THROW(decodeHello(bytes + "x"), NazarError);
}

TEST(WireMessages, HelloAckRejectsTrailingBytes)
{
    WireHelloAck ack;
    ack.cleanPatchText = "patch";
    ack.cleanPatchTime = 3;
    ack.resumeHighWater = {{7, 12}};
    std::string bytes = encodeHelloAck(ack);
    EXPECT_EQ(decodeHelloAck(bytes).resumeHighWater.size(), 1u);
    EXPECT_THROW(decodeHelloAck(bytes + "x"), NazarError);
}

TEST(WireMessages, CycleDoneRejectsTrailingBytes)
{
    WireCycleDone done;
    done.versionCount = 1;
    done.cleanPatchText = "clean";
    std::string bytes = encodeCycleDone(done);
    EXPECT_EQ(decodeCycleDone(bytes).versionCount, 1u);
    EXPECT_THROW(decodeCycleDone(bytes + "x"), NazarError);
}

TEST(WireMessages, ByeAckRejectsTrailingBytes)
{
    std::string bytes = encodeByeAck(WireByeAck{100, 4});
    EXPECT_EQ(decodeByeAck(bytes).totalIngested, 100u);
    EXPECT_THROW(decodeByeAck(bytes + "x"), NazarError);
}

TEST(FrameParser, FuzzRegressionThrowsButNeverCrashesOrHangs)
{
    // Seed-deterministic fuzz corpus. Under the ASAN ctest leg this
    // is the memory-safety regression net for the frame parser and
    // the typed payload decoders: every input either parses or throws
    // NazarError — never a crash, an out-of-bounds read, or an
    // unbounded wait (all feeds are finite, so "waiting for more
    // bytes" terminates the drive loop).
    Rng rng(0xF0221u);
    auto randomBytes = [&rng](size_t n) {
        std::string s(n, '\0');
        for (char &c : s)
            c = static_cast<char>(rng.uniformInt(0, 255));
        return s;
    };
    // Feed bytes at one chunking; count frames until a throw or the
    // end of input. Only NazarError is an acceptable exit — anything
    // else propagates and fails the test.
    auto drive = [](const std::string &bytes, size_t chunk) {
        FrameParser parser;
        size_t frames = 0;
        try {
            for (size_t i = 0; i < bytes.size(); i += chunk) {
                parser.feed(bytes.data() + i,
                            std::min(chunk, bytes.size() - i));
                while (parser.next().has_value())
                    ++frames;
            }
        } catch (const NazarError &) {
        }
        return frames;
    };

    // 1. Pure random garbage at random chunkings.
    for (int round = 0; round < 64; ++round) {
        std::string junk = randomBytes(
            static_cast<size_t>(rng.uniformInt(1, 512)));
        drive(junk, static_cast<size_t>(rng.uniformInt(1, 64)));
    }

    // 2. A valid three-frame stream with one random bit flipped —
    // corruption in the length, the CRC, the type, or the body.
    WireHello hello;
    hello.clientName = "fuzz";
    std::string stream =
        encodeFrame(MsgType::kHello, encodeHello(hello)) +
        encodeFrame(MsgType::kIngest, encodeIngest(sampleIngest(true))) +
        encodeFrame(MsgType::kAck, encodeAck(WireAck{1, 2, true}));
    for (int round = 0; round < 256; ++round) {
        std::string flipped = stream;
        size_t bit = static_cast<size_t>(
            rng.uniformInt(0,
                           static_cast<int64_t>(flipped.size()) * 8 -
                               1));
        flipped[bit / 8] ^=
            static_cast<char>(1u << (bit % 8));
        drive(flipped,
              static_cast<size_t>(rng.uniformInt(1, 32)));
    }

    // 3. Every truncation point of the valid stream: a cut stream is
    // an incomplete frame, never a corrupt one — whole frames before
    // the cut still parse.
    for (size_t cut = 0; cut <= stream.size(); ++cut) {
        FrameParser parser;
        parser.feed(stream.data(), cut);
        size_t frames = 0;
        while (parser.next().has_value())
            ++frames;
        EXPECT_LE(frames, 3u);
        if (cut == stream.size()) {
            EXPECT_EQ(frames, 3u);
        }
    }

    // 4. Random garbage straight into the typed decoders (what a
    // CRC-colliding or malicious body would hit).
    for (int round = 0; round < 128; ++round) {
        std::string payload = randomBytes(
            static_cast<size_t>(rng.uniformInt(0, 200)));
        try {
            decodeIngest(payload);
        } catch (const NazarError &) {
        }
        try {
            decodeHello(payload);
        } catch (const NazarError &) {
        }
        try {
            decodeHelloAck(payload);
        } catch (const NazarError &) {
        }
        try {
            decodeAck(payload);
        } catch (const NazarError &) {
        }
        try {
            decodeCycleDone(payload);
        } catch (const NazarError &) {
        }
        try {
            decodeByeAck(payload);
        } catch (const NazarError &) {
        }
        try {
            decodeBusy(payload);
        } catch (const NazarError &) {
        }
    }
}

/**
 * Run @p decode on @p bytes; true when it decoded, false when it threw
 * NazarError. Any other exception fails the test with @p what.
 */
template <typename Decode>
bool
decodesOrThrowsNazarError(Decode &&decode, const std::string &bytes,
                          const std::string &what)
{
    try {
        decode(bytes);
        return true;
    } catch (const NazarError &) {
        return false;
    } catch (const std::exception &e) {
        ADD_FAILURE() << what << ": " << e.what();
        return false;
    }
}

TEST(WireDecoders, EveryPrefixAndByteOverwriteDecodesOrThrowsNazarError)
{
    // A kIngest with an upload (a NaN feature, a two-attribute
    // context) and a kHelloAck with a resume block: every proper
    // prefix is refused (fixed layouts have no optional tail), and
    // every single byte overwritten with 0x00 or 0xFF either decodes
    // or throws NazarError, never another exception type.
    WireHelloAck ack;
    ack.cleanPatchText = "patch";
    ack.cleanPatchTime = 9;
    ack.resumeHighWater = {{1000, 57}, {3, 9}};
    using Decode = void (*)(const std::string &);
    const std::vector<std::tuple<const char *, std::string, Decode>>
        cases = {
            {"kIngest", encodeIngest(sampleIngest(true), {5, 6}),
             [](const std::string &b) { (void)decodeIngest(b); }},
            {"kHelloAck", encodeHelloAck(ack),
             [](const std::string &b) { (void)decodeHelloAck(b); }},
        };
    for (const auto &[name, bytes, decode] : cases) {
        SCOPED_TRACE(name);
        ASSERT_TRUE(decodesOrThrowsNazarError(decode, bytes, "valid"));
        for (size_t n = 0; n < bytes.size(); ++n)
            EXPECT_FALSE(decodesOrThrowsNazarError(
                decode, bytes.substr(0, n),
                "prefix " + std::to_string(n)));
        for (size_t at = 0; at < bytes.size(); ++at) {
            for (char value : {'\x00', '\xff'}) {
                std::string mutant = bytes;
                mutant[at] = value;
                decodesOrThrowsNazarError(
                    decode, mutant,
                    "byte " + std::to_string(at) + " = " +
                        std::to_string(static_cast<uint8_t>(value)));
            }
        }
    }
}

} // namespace
} // namespace nazar::net
