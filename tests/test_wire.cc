/**
 * @file
 * Tests for the ingest wire protocol: frame encode/parse round-trips
 * under arbitrary chunking, corrupt-frame rejection (truncation, CRC,
 * oversize, unknown type), string-dictionary lockstep and idempotent
 * re-defines, and the interned kIngest payload codec.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "net/wire.h"

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

TEST(StringDict, EncoderAndDecoderStayInLockstep)
{
    StringDict enc, dec;
    std::vector<std::string> sends = {"park", "rain", "park", "fog",
                                      "rain", "park"};
    for (const auto &s : sends) {
        persist::Writer w;
        enc.encode(w, s);
        std::string bytes = w.take();
        persist::Reader r(bytes);
        EXPECT_EQ(dec.decode(r), s);
    }
    EXPECT_EQ(enc.size(), 3u);
    EXPECT_EQ(dec.size(), 3u);
    EXPECT_EQ(enc.hits(), 3u); // the three repeats went as bare ids
}

TEST(StringDict, RedefineIsIdempotentSoDuplicatedFramesCannotDesync)
{
    // A chaos-duplicated frame replays its kNewString definition
    // bytes. The decoder must not intern the string twice, or every
    // id assigned afterwards would be off by one from the encoder's.
    StringDict enc, dec;
    persist::Writer w1;
    enc.encode(w1, "park"); // defines id 0
    std::string define = w1.take();
    for (int replay = 0; replay < 2; ++replay) {
        persist::Reader r(define);
        EXPECT_EQ(dec.decode(r), "park");
    }
    EXPECT_EQ(dec.size(), 1u);
    // The next definition must land on the same id on both sides.
    persist::Writer w2;
    enc.encode(w2, "fog"); // defines id 1
    std::string define_fog = w2.take();
    persist::Reader r2(define_fog);
    EXPECT_EQ(dec.decode(r2), "fog");
    persist::Writer w3;
    enc.encode(w3, "fog"); // bare id 1
    std::string bare = w3.take();
    persist::Reader r3(bare);
    EXPECT_EQ(dec.decode(r3), "fog");
    EXPECT_EQ(bare.size(), 4u); // just the u32 id
}

TEST(StringDict, OutOfRangeIdIsRejected)
{
    StringDict dec;
    persist::Writer w;
    w.putU32(5); // no strings interned yet
    std::string bytes = w.take();
    persist::Reader r(bytes);
    EXPECT_THROW(dec.decode(r), NazarError);
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

TEST(WireIngest, RoundTripsThroughTheDictIncludingNaN)
{
    StringDict enc, dec;
    for (bool with_upload : {true, false}) {
        persist::IngestRecord in = sampleIngest(with_upload);
        std::string bytes = encodeIngest(in, enc);
        persist::IngestRecord out = decodeIngest(bytes, dec);
        EXPECT_EQ(out.device, in.device);
        EXPECT_EQ(out.seq, in.seq);
        EXPECT_EQ(out.entry.time.dayIndex(), 33);
        EXPECT_EQ(out.entry.time.secondOfDay(), 4521);
        EXPECT_EQ(out.entry.deviceId, "android_42");
        EXPECT_EQ(out.entry.weather, "snow");
        EXPECT_EQ(out.entry.modelVersion, 3);
        EXPECT_TRUE(out.entry.drift);
        ASSERT_EQ(out.upload.has_value(), with_upload);
        if (with_upload) {
            ASSERT_EQ(out.upload->features.size(), 4u);
            EXPECT_DOUBLE_EQ(out.upload->features[0], 0.25);
            EXPECT_TRUE(std::isnan(out.upload->features[2]));
            EXPECT_EQ(out.upload->context.size(), 2u);
            EXPECT_TRUE(out.upload->driftFlag);
        }
    }
    // Second encode of the same strings is all bare ids: smaller.
    StringDict enc2;
    std::string first = encodeIngest(sampleIngest(true), enc2);
    std::string second = encodeIngest(sampleIngest(true), enc2);
    EXPECT_LT(second.size(), first.size());
}

TEST(WireIngest, TraceContextRoundTripsAndZeroIdsStayByteIdentical)
{
    // With a trace context, the ids survive the round trip.
    StringDict enc, dec;
    persist::IngestRecord in = sampleIngest(true);
    in.traceId = 0xDEADBEEFCAFEF00DULL;
    in.spanId = 42;
    std::string bytes = encodeIngest(in, enc);
    persist::IngestRecord out = decodeIngest(bytes, dec);
    EXPECT_EQ(out.traceId, in.traceId);
    EXPECT_EQ(out.spanId, in.spanId);
    EXPECT_EQ(out.device, in.device);
    EXPECT_EQ(out.seq, in.seq);

    // With no context (traceId == 0) the encoding is byte-identical
    // to the pre-extension format — tracing off cannot change what
    // goes on the wire — and decodes with zero ids.
    StringDict enc2, enc3, dec2;
    std::string plain = encodeIngest(sampleIngest(true), enc2);
    persist::IngestRecord zero = sampleIngest(true);
    zero.traceId = 0;
    zero.spanId = 99; // ignored without a trace id
    EXPECT_EQ(encodeIngest(zero, enc3), plain);
    persist::IngestRecord plain_out = decodeIngest(plain, dec2);
    EXPECT_EQ(plain_out.traceId, 0u);
    EXPECT_EQ(plain_out.spanId, 0u);
}

TEST(WireIngest, UnknownExtensionTagsAreSkippedForwardCompatibly)
{
    // A newer peer may append extension tags this build has never
    // heard of; the decoder must skip them by length and still pick
    // out the trace context.
    StringDict enc, dec;
    std::string base = encodeIngest(sampleIngest(false), enc);
    persist::Writer w;
    w.putBytes(base.data(), base.size());
    w.putU8(2); // two extensions
    w.putU8(7); // unknown tag
    w.putU32(3);
    w.putBytes("abc", 3);
    w.putU8(kExtTraceContext);
    w.putU32(16);
    w.putU64(1234);
    w.putU64(5678);
    persist::IngestRecord out = decodeIngest(w.take(), dec);
    EXPECT_EQ(out.device, 42);
    EXPECT_EQ(out.traceId, 1234u);
    EXPECT_EQ(out.spanId, 5678u);

    // An extension length pointing past the frame end must throw, not
    // read out of bounds.
    StringDict enc2, dec2;
    std::string base2 = encodeIngest(sampleIngest(false), enc2);
    persist::Writer bad;
    bad.putBytes(base2.data(), base2.size());
    bad.putU8(1);
    bad.putU8(7);
    bad.putU32(1000); // but no bytes follow
    EXPECT_THROW(decodeIngest(bad.take(), dec2), NazarError);
}

TEST(WireIngest, DeviceIdOutsideTheDedupKeyRangeIsRejected)
{
    for (int64_t device : {int64_t{-1}, int64_t{1} << 40}) {
        persist::IngestRecord in = sampleIngest(false);
        in.device = device;
        StringDict enc;
        StringDict dec;
        EXPECT_THROW(decodeIngest(encodeIngest(in, enc), dec), NazarError)
            << "device " << device;
    }
}

TEST(WireIngest, TrailingBytesAndTruncationAreRejected)
{
    StringDict enc;
    std::string bytes = encodeIngest(sampleIngest(true), enc);
    {
        StringDict dec;
        std::string trailing = bytes + "x";
        EXPECT_THROW(decodeIngest(trailing, dec), NazarError);
    }
    {
        // Truncating mid-upload leaves a feature count larger than the
        // remaining bytes; the guard must catch it before allocating.
        StringDict dec;
        std::string cut = bytes.substr(0, bytes.size() - 9);
        EXPECT_THROW(decodeIngest(cut, dec), NazarError);
    }
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

TEST(WireMessages, ResumeFieldsRoundTripAndAddNoBytesWhenAbsent)
{
    // wantResume survives the round trip; absent it costs zero bytes
    // (trailing optional: a fresh session's kHello is byte-identical
    // to the pre-resume protocol).
    WireHello plain;
    plain.clientName = "runner";
    WireHello resume = plain;
    resume.wantResume = true;
    std::string plain_bytes = encodeHello(plain);
    std::string resume_bytes = encodeHello(resume);
    EXPECT_EQ(plain_bytes.size() + 1, resume_bytes.size());
    EXPECT_EQ(resume_bytes.substr(0, plain_bytes.size()), plain_bytes);
    EXPECT_FALSE(decodeHello(plain_bytes).wantResume);
    EXPECT_TRUE(decodeHello(resume_bytes).wantResume);

    // The kHelloAck resume block: round trip, and empty == absent.
    WireHelloAck ack;
    ack.cleanPatchText = "patch";
    WireHelloAck with = ack;
    with.resumeHighWater = {{1000, 57}, {-3, 9}};
    std::string ack_bytes = encodeHelloAck(ack);
    std::string with_bytes = encodeHelloAck(with);
    EXPECT_EQ(with_bytes.substr(0, ack_bytes.size()), ack_bytes);
    WireHelloAck out = decodeHelloAck(with_bytes);
    ASSERT_EQ(out.resumeHighWater.size(), 2u);
    EXPECT_EQ(out.resumeHighWater[0],
              (std::pair<int64_t, uint64_t>(1000, 57)));
    EXPECT_EQ(out.resumeHighWater[1],
              (std::pair<int64_t, uint64_t>(-3, 9)));
    EXPECT_TRUE(decodeHelloAck(ack_bytes).resumeHighWater.empty());

    // A resume-block count larger than the frame must throw, not
    // reserve gigabytes.
    persist::Writer bad;
    bad.putBytes(ack_bytes.data(), ack_bytes.size());
    bad.putU32(0x00FFFFFFu); // claims ~16M entries, no bytes follow
    EXPECT_THROW(decodeHelloAck(bad.take()), NazarError);

    // kBusy round trip.
    WireBusy busy{17};
    EXPECT_EQ(decodeBusy(encodeBusy(busy)).queueDepth, 17u);
}

// Every decoder rejects one byte appended after its last field; each
// message is encoded with all its trailing optionals present, so the
// extra byte cannot read as one of them.
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
    StringDict enc;
    WireHello hello;
    hello.clientName = "fuzz";
    std::string stream =
        encodeFrame(MsgType::kHello, encodeHello(hello)) +
        encodeFrame(MsgType::kIngest,
                    encodeIngest(sampleIngest(true), enc)) +
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
        StringDict dict;
        try {
            decodeIngest(payload, dict);
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

} // namespace
} // namespace nazar::net
