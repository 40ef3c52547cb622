/**
 * @file
 * Tests for the durability layer: serialization, WAL torn-tail
 * handling, snapshot atomicity, the Env's crash fault, and the
 * headline property — an exhaustive sweep that crashes the cloud at
 * every Env operation of a scripted scenario, reopens the state
 * directory, and asserts recovery matches a never-crashed oracle.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "common/error.h"
#include "common/logging.h"
#include "cloud_script.h"
#include "common/rng.h"
#include "driftlog/csv.h"
#include "persist/cloud_persist.h"
#include "persist/env.h"
#include "persist/serial.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "persist_oracle.h"
#include "sim/cloud.h"

namespace nazar::persist {
namespace {

namespace fs = std::filesystem;

/** Unique scratch directory under the test's CWD, removed on exit. */
struct TempDir
{
    fs::path path;

    explicit TempDir(const std::string &tag)
    {
        static int counter = 0;
        path = fs::current_path() /
               ("persist_test_" + tag + "_" + std::to_string(counter++));
        fs::remove_all(path);
        fs::create_directories(path);
    }

    ~TempDir() { fs::remove_all(path); }
};

struct QuietLogs : ::testing::Test
{
    QuietLogs() { setLogLevel(LogLevel::kSilent); }
    ~QuietLogs() override { setLogLevel(LogLevel::kInfo); }
};

std::string
readBytes(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
writeBytes(const fs::path &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---- serial ---------------------------------------------------------

TEST(Serial, Crc32KnownVector)
{
    // The standard check value for reflected 0xEDB88320.
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    uint32_t inc = crc32Update(0, "1234", 4);
    inc = crc32Update(inc, "56789", 5);
    EXPECT_EQ(inc, 0xCBF43926u);
}

TEST(Serial, Crc32HostVariants)
{
    const auto &variants = crc_kernel::hostVariants();
    ASSERT_FALSE(variants.empty());
    EXPECT_STREQ(variants.back().isa, "baseline");
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("pclmul") &&
        __builtin_cpu_supports("sse4.1")) {
        EXPECT_STREQ(variants.front().isa, "pclmul");
    }
#endif
}

TEST(Serial, Crc32MatchesBitwiseOracle)
{
    Rng rng(77);
    std::vector<unsigned char> buf((1u << 20) + 16);
    for (auto &b : buf)
        b = static_cast<unsigned char>(rng.index(256));
    for (const crc_kernel::Variant &variant : crc_kernel::hostVariants()) {
        SCOPED_TRACE(variant.isa);
        crc_kernel::ScopedVariant pin(variant);
        // Every alignment of a 16-byte lane, every length up to and
        // well past the folding kernel's minimum, so both the folded
        // prefix and every tail length run.
        for (size_t off = 0; off < 16; ++off)
            for (size_t len = 0; len <= 1024; ++len)
                ASSERT_EQ(crc32(buf.data() + off, len),
                          oracle::crc32Bitwise(buf.data() + off, len))
                    << "offset " << off << " length " << len;
        // Chunked updates agree with one pass at every split point.
        const uint32_t whole = oracle::crc32Bitwise(buf.data(), 64);
        for (size_t split = 0; split <= 64; ++split) {
            uint32_t crc = crc32Update(0, buf.data(), split);
            crc = crc32Update(crc, buf.data() + split, 64 - split);
            ASSERT_EQ(crc, whole) << "split " << split;
        }
        EXPECT_EQ(crc32(buf.data(), 1u << 20),
                  oracle::crc32Bitwise(buf.data(), 1u << 20));
    }
}

TEST(Serial, ScalarRoundTrip)
{
    Writer w;
    w.putU8(200);
    w.putBool(true);
    w.putU32(0xDEADBEEFu);
    w.putU64(0x0123456789ABCDEFull);
    w.putI64(-42);
    w.putF64(-0.1);
    w.putString(std::string("hello\0world", 11)); // embedded NUL survives
    Reader r(w.bytes());
    EXPECT_EQ(r.getU8(), 200);
    EXPECT_TRUE(r.getBool());
    EXPECT_EQ(r.getU32(), 0xDEADBEEFu);
    EXPECT_EQ(r.getU64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.getI64(), -42);
    EXPECT_EQ(r.getF64(), -0.1);
    EXPECT_EQ(r.getString(), std::string("hello\0world", 11));
    EXPECT_TRUE(r.atEnd());
}

TEST(Serial, DoubleBitPatternsSurvive)
{
    const double values[] = {
        0.0, -0.0, 1.0 / 3.0,
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::denorm_min(),
    };
    Writer w;
    for (double v : values)
        w.putF64(v);
    Reader r(w.bytes());
    for (double v : values) {
        double got = r.getF64();
        uint64_t a, b;
        std::memcpy(&a, &v, 8);
        std::memcpy(&b, &got, 8);
        EXPECT_EQ(a, b);
    }
}

TEST(Serial, ReaderThrowsOnUnderrun)
{
    Writer w;
    w.putU32(7);
    Reader r(w.bytes());
    EXPECT_EQ(r.getU32(), 7u);
    EXPECT_THROW(r.getU32(), NazarError);
    // A declared string length past the end must not allocate blindly.
    Writer w2;
    w2.putU64(1ull << 40);
    Reader r2(w2.bytes());
    EXPECT_THROW(r2.getString(), NazarError);
}

TEST(Serial, ValueAndAttributeSetRoundTrip)
{
    Writer w;
    putValue(w, driftlog::Value());
    putValue(w, driftlog::Value(static_cast<int64_t>(-5)));
    putValue(w, driftlog::Value(2.5));
    putValue(w, driftlog::Value(true));
    putValue(w, driftlog::Value(std::string("snow")));
    rca::AttributeSet attrs({
        {"weather", driftlog::Value(std::string("snow"))},
        {"device_id", driftlog::Value(std::string("android_3"))},
    });
    putAttributeSet(w, attrs);

    Reader r(w.bytes());
    EXPECT_TRUE(getValue(r).isNull());
    EXPECT_EQ(getValue(r).asInt(), -5);
    EXPECT_EQ(getValue(r).asDouble(), 2.5);
    EXPECT_EQ(getValue(r).asBool(), true);
    EXPECT_EQ(getValue(r).asString(), "snow");
    EXPECT_EQ(getAttributeSet(r), attrs);
    EXPECT_TRUE(r.atEnd());
}

TEST(Serial, EntryAndUploadRoundTrip)
{
    driftlog::DriftLogEntry e;
    e.time = SimDate(5, 12345);
    e.deviceId = "android_7";
    e.deviceModel = "pixel_6";
    e.location = "tibet";
    e.weather = "snow";
    e.modelVersion = 42;
    e.drift = true;
    UploadRecord u;
    u.features = {1.0, -2.5, 0.0};
    u.context = rca::AttributeSet(
        {{"weather", driftlog::Value(std::string("snow"))}});
    u.driftFlag = true;

    Writer w;
    putEntry(w, e);
    putUpload(w, u);
    Reader r(w.bytes());
    driftlog::DriftLogEntry e2 = getEntry(r);
    EXPECT_EQ(e2.time.dayIndex(), e.time.dayIndex());
    EXPECT_EQ(e2.time.toDateTimeString(), e.time.toDateTimeString());
    EXPECT_EQ(e2.deviceId, e.deviceId);
    EXPECT_EQ(e2.deviceModel, e.deviceModel);
    EXPECT_EQ(e2.location, e.location);
    EXPECT_EQ(e2.weather, e.weather);
    EXPECT_EQ(e2.modelVersion, e.modelVersion);
    EXPECT_EQ(e2.drift, e.drift);
    UploadRecord u2 = getUpload(r);
    EXPECT_EQ(u2.features, u.features);
    EXPECT_EQ(u2.context, u.context);
    EXPECT_EQ(u2.driftFlag, u.driftFlag);
    EXPECT_TRUE(r.atEnd());
}

// ---- WAL ------------------------------------------------------------

TEST(WalTest, AppendScanRoundTrip)
{
    TempDir dir("wal_rt");
    fs::path log = dir.path / "wal.log";
    {
        Wal wal(log);
        EXPECT_EQ(wal.append(WalRecordType::kIngest, "alpha"), 1u);
        EXPECT_EQ(wal.append(WalRecordType::kCycleCommit, "beta"), 2u);
        EXPECT_EQ(wal.append(WalRecordType::kFlush, ""), 3u);
        EXPECT_EQ(wal.lastSeq(), 3u);
    }
    WalScan scan = Wal::scan(log);
    EXPECT_TRUE(scan.validHeader);
    EXPECT_EQ(scan.truncatedBytes, 0u);
    ASSERT_EQ(scan.records.size(), 3u);
    EXPECT_EQ(scan.records[0].type, WalRecordType::kIngest);
    EXPECT_EQ(scan.records[0].payload, "alpha");
    EXPECT_EQ(scan.records[2].seq, 3u);

    // Reopening resumes the sequence counter after the existing tail.
    Wal wal(log);
    EXPECT_EQ(wal.records().size(), 3u);
    EXPECT_EQ(wal.append(WalRecordType::kIngest, "gamma"), 4u);
}

TEST(WalTest, TornTailIsTruncatedOnOpen)
{
    TempDir dir("wal_torn");
    fs::path log = dir.path / "wal.log";
    {
        Wal wal(log);
        wal.append(WalRecordType::kIngest, "good record");
    }
    uintmax_t good_size = fs::file_size(log);
    {
        // Simulate a crash mid-append: a frame header promising more
        // bytes than the file holds.
        std::ofstream torn(log, std::ios::binary | std::ios::app);
        const char garbage[] = "\xFF\xFF\x00\x00partial";
        torn.write(garbage, sizeof(garbage) - 1);
    }
    Wal wal(log);
    EXPECT_GT(wal.truncatedBytes(), 0u);
    ASSERT_EQ(wal.records().size(), 1u);
    EXPECT_EQ(wal.records()[0].payload, "good record");
    EXPECT_EQ(fs::file_size(log), good_size);
    // The log stays appendable after truncation.
    EXPECT_EQ(wal.append(WalRecordType::kFlush, ""), 2u);
}

TEST(WalTest, CorruptRecordMarksTear)
{
    TempDir dir("wal_corrupt");
    fs::path log = dir.path / "wal.log";
    {
        Wal wal(log);
        wal.append(WalRecordType::kIngest, "first");
        wal.append(WalRecordType::kIngest, "second");
    }
    // Flip one byte in the last record's payload: its CRC fails, so
    // the scan keeps only the records before it.
    uintmax_t size = fs::file_size(log);
    {
        std::fstream f(log,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(static_cast<std::streamoff>(size) - 1);
        f.put('X');
    }
    WalScan scan = Wal::scan(log);
    ASSERT_EQ(scan.records.size(), 1u);
    EXPECT_EQ(scan.records[0].payload, "first");
    EXPECT_GT(scan.truncatedBytes, 0u);
}

TEST(WalTest, TruncateAllKeepsSeqCounting)
{
    TempDir dir("wal_trunc");
    fs::path log = dir.path / "wal.log";
    Wal wal(log);
    wal.append(WalRecordType::kIngest, "a");
    wal.append(WalRecordType::kIngest, "b");
    wal.truncateAll();
    EXPECT_EQ(Wal::scan(log).records.size(), 0u);
    // Seqs keep counting: snapshots rely on uniqueness across history.
    EXPECT_EQ(wal.append(WalRecordType::kIngest, "c"), 3u);
}

TEST(WalTest, ScanOfMissingFileIsInvalid)
{
    TempDir dir("wal_missing");
    WalScan scan = Wal::scan(dir.path / "absent.log");
    EXPECT_FALSE(scan.validHeader);
    EXPECT_TRUE(scan.records.empty());
    EXPECT_FALSE(scan.unreadable); // not-exists is a fresh start
}

TEST(WalTest, RefusesToClobberAnUnreadablePath)
{
    // A WAL path that exists but cannot be read (here: it is a
    // directory, which fopen()s but fails the first fread) must never
    // be silently overwritten — that would destroy the only copy of
    // the state it cannot parse.
    TempDir dir("wal_unreadable");
    fs::path log = dir.path / "wal.log";
    fs::create_directories(log);
    WalScan scan = Wal::scan(log);
    EXPECT_TRUE(scan.unreadable);
    EXPECT_THROW(Wal{log}, NazarError);
    EXPECT_TRUE(fs::exists(log)); // still there, untouched
}

TEST(WalTest, AppendBufferedPlusSyncEqualsPerRecordAppends)
{
    TempDir dir("wal_group");
    fs::path grouped_log = dir.path / "grouped.log";
    fs::path single_log = dir.path / "single.log";
    {
        Wal grouped(grouped_log);
        EXPECT_EQ(grouped.appendBuffered(WalRecordType::kIngest, "a"),
                  1u);
        EXPECT_EQ(grouped.appendBuffered(WalRecordType::kIngest, "b"),
                  2u);
        EXPECT_EQ(grouped.appendBuffered(WalRecordType::kIngest, "c"),
                  3u);
        grouped.sync(); // one flush for the whole batch
    }
    {
        Wal single(single_log);
        single.append(WalRecordType::kIngest, "a");
        single.append(WalRecordType::kIngest, "b");
        single.append(WalRecordType::kIngest, "c");
    }
    // Same bytes on disk: group commit changes durability timing, not
    // the log's contents.
    std::ifstream g(grouped_log, std::ios::binary);
    std::ifstream s(single_log, std::ios::binary);
    std::string gb((std::istreambuf_iterator<char>(g)),
                   std::istreambuf_iterator<char>());
    std::string sb((std::istreambuf_iterator<char>(s)),
                   std::istreambuf_iterator<char>());
    EXPECT_EQ(gb, sb);
    WalScan scan = Wal::scan(grouped_log);
    ASSERT_EQ(scan.records.size(), 3u);
    EXPECT_EQ(scan.records[2].payload, "c");
}

TEST(WalTest, FdatasyncModeAppendsAndReplays)
{
    TempDir dir("wal_fsync");
    fs::path log = dir.path / "wal.log";
    {
        Wal wal(log, SyncMode::kFdatasync);
        EXPECT_EQ(wal.syncMode(), SyncMode::kFdatasync);
        wal.append(WalRecordType::kIngest, "durable");
        wal.appendBuffered(WalRecordType::kIngest, "batched");
        wal.sync();
    }
    WalScan scan = Wal::scan(log);
    ASSERT_EQ(scan.records.size(), 2u);
    EXPECT_EQ(scan.records[0].payload, "durable");
    EXPECT_EQ(scan.records[1].payload, "batched");
}

TEST(WalTest, SyncModeNamesRoundTrip)
{
    for (SyncMode mode :
         {SyncMode::kFlush, SyncMode::kFdatasync, SyncMode::kFsync})
        EXPECT_EQ(syncModeFromString(syncModeName(mode)), mode);
    EXPECT_THROW(syncModeFromString("bogus"), NazarError);
}

// ---- snapshots ------------------------------------------------------

std::string
logCsv(const driftlog::DriftLog &log)
{
    std::ostringstream csv;
    driftlog::writeCsv(log.table(), csv);
    return csv.str();
}

SnapshotData
sampleSnapshot()
{
    SnapshotData data;
    data.lastWalSeq = 17;
    data.logicalTime = 3;
    data.nextVersionId = 9;
    data.totalIngested = 123;
    data.dedupHits = 4;
    driftlog::DriftLog log;
    driftlog::DriftLogEntry e;
    e.time = SimDate(2, 777);
    e.deviceId = "android_1";
    e.deviceModel = "pixel_6";
    e.location = "tibet";
    e.weather = "snow";
    e.drift = true;
    log.add(e);
    e.deviceId = "android_2";
    log.add(e);
    data.driftLog = log;
    UploadRecord u;
    u.features = {0.5, -1.0};
    u.context = rca::AttributeSet(
        {{"weather", driftlog::Value(std::string("snow"))}});
    u.driftFlag = true;
    data.uploads.push_back(u);
    data.dedup[3] = DedupWindow{2, {5, 6, 9}};
    data.blobs.emplace_back("versions/1/meta", "meta-bytes");
    data.blobs.emplace_back("versions/1/patch", "patch-bytes");
    data.cleanPatchText = "fake patch text";
    data.cleanPatchTime = 2;
    return data;
}

void
expectSnapshotEq(const SnapshotData &a, const SnapshotData &b)
{
    EXPECT_EQ(a.lastWalSeq, b.lastWalSeq);
    EXPECT_EQ(a.logicalTime, b.logicalTime);
    EXPECT_EQ(a.nextVersionId, b.nextVersionId);
    EXPECT_EQ(a.totalIngested, b.totalIngested);
    EXPECT_EQ(a.dedupHits, b.dedupHits);
    EXPECT_EQ(logCsv(a.driftLog), logCsv(b.driftLog));
    ASSERT_EQ(a.uploads.size(), b.uploads.size());
    for (size_t i = 0; i < a.uploads.size(); ++i) {
        EXPECT_EQ(a.uploads[i].features, b.uploads[i].features);
        EXPECT_EQ(a.uploads[i].context, b.uploads[i].context);
        EXPECT_EQ(a.uploads[i].driftFlag, b.uploads[i].driftFlag);
    }
    EXPECT_EQ(a.dedup, b.dedup);
    EXPECT_EQ(a.blobs, b.blobs);
    EXPECT_EQ(a.cleanPatchText, b.cleanPatchText);
    EXPECT_EQ(a.cleanPatchTime, b.cleanPatchTime);
}

TEST(SnapshotTest, EncodeDecodeRoundTrip)
{
    SnapshotData data = sampleSnapshot();
    SnapshotData back = decodeSnapshot(encodeSnapshot(data));
    expectSnapshotEq(data, back);
}

TEST(SnapshotTest, DecodeRejectsTruncatedPayload)
{
    std::string payload = encodeSnapshot(sampleSnapshot());
    payload.resize(payload.size() / 2);
    EXPECT_THROW(decodeSnapshot(payload), NazarError);
}

// ---- drift-log column codec ----------------------------------------

/** A log with NULL cells and repeated values in every column. */
driftlog::DriftLog
mixedLog(size_t rows)
{
    driftlog::Table table(driftlog::DriftLog::canonicalSchema());
    const char *weathers[] = {"snow", "rain", "clear-day"};
    for (size_t i = 0; i < rows; ++i) {
        driftlog::Value null;
        auto n = static_cast<int64_t>(i);
        SimDate time(static_cast<int>(i % 4), static_cast<int>(i % 2));
        table.append({i % 5 == 4 ? null : driftlog::Value(n % 3),
                      time.toDateTimeString(),
                      "android_" + std::to_string(i % 7),
                      i % 3 == 1 ? null : driftlog::Value("pixel_6"),
                      "tibet", weathers[i % 3],
                      driftlog::Value(n % 2),
                      i % 6 == 5 ? null : driftlog::Value(i % 2 == 0)});
    }
    return driftlog::DriftLog::fromTable(std::move(table));
}

std::string
encodeLog(const driftlog::DriftLog &log)
{
    Writer w;
    putDriftLog(w, log);
    return w.take();
}

driftlog::DriftLog
decodeLog(const std::string &bytes)
{
    Reader r(bytes);
    driftlog::DriftLog log = getDriftLog(r);
    NAZAR_CHECK(r.atEnd(), "trailing bytes after the drift log");
    return log;
}

TEST(DriftLogColumns, RoundTripIsExact)
{
    for (size_t rows : {0, 1, 2, 37}) {
        driftlog::DriftLog log = mixedLog(rows);
        std::string bytes = encodeLog(log);
        driftlog::DriftLog back = decodeLog(bytes);
        ASSERT_EQ(back.size(), rows);
        EXPECT_EQ(logCsv(back), logCsv(log)) << rows << " rows";
        EXPECT_EQ(encodeLog(back), bytes) << rows << " rows";
        for (size_t c = 0; c < log.table().schema().columnCount(); ++c) {
            const auto &want = log.table().column(c);
            const auto &got = back.table().column(c);
            EXPECT_EQ(got.dictionary(), want.dictionary());
            EXPECT_EQ(got.ids(), want.ids());
            EXPECT_EQ(got.nullCount(), want.nullCount());
            for (const auto &v : want.dictionary())
                EXPECT_EQ(got.idOf(v), want.idOf(v));
        }
        // The adopted columns keep accepting rows like the original.
        driftlog::DriftLogEntry e;
        e.time = SimDate(9, 5);
        e.deviceId = "android_0"; // an existing dictionary entry
        e.deviceModel = "aaa";    // a new entry below every other
        e.location = "zzz";       // a new entry above every other
        e.weather = "snow";
        log.add(e);
        back.add(e);
        EXPECT_EQ(encodeLog(back), encodeLog(log)) << rows << " rows";
    }
}

/** One column's encoded parts, editable to build malformed input. */
struct ColumnParts
{
    uint8_t type;
    std::vector<driftlog::Value> dict;
    std::vector<uint32_t> ids;
};

std::vector<ColumnParts>
partsOf(const driftlog::DriftLog &log)
{
    std::vector<ColumnParts> parts;
    for (size_t c = 0; c < log.table().schema().columnCount(); ++c) {
        const driftlog::Column &col = log.table().column(c);
        parts.push_back({static_cast<uint8_t>(col.type()),
                         col.dictionary(), col.ids()});
    }
    return parts;
}

std::string
encodeParts(const std::vector<ColumnParts> &parts)
{
    Writer w;
    w.putU32(static_cast<uint32_t>(parts.size()));
    for (const ColumnParts &p : parts) {
        w.putU8(p.type);
        w.putU64(p.dict.size());
        for (const auto &v : p.dict)
            putValue(w, v);
        w.putU64(p.ids.size());
        for (uint32_t id : p.ids)
            w.putU32(id);
    }
    return w.take();
}

TEST(DriftLogColumns, DecodeRejectsEveryInvariantViolation)
{
    const std::vector<ColumnParts> good = partsOf(mixedLog(12));
    ASSERT_EQ(encodeParts(good), encodeLog(mixedLog(12)));
    ASSERT_NO_THROW(decodeLog(encodeParts(good)));
    const size_t device = 2; // device_id: string, 7 distinct values
    ASSERT_GE(good[device].dict.size(), 3u);
    auto rejects = [](const std::vector<ColumnParts> &parts) {
        EXPECT_THROW(decodeLog(encodeParts(parts)), NazarError);
    };

    auto bad = good; // canonical column count
    bad.pop_back();
    rejects(bad);
    bad = good; // canonical column type
    bad[0].type = static_cast<uint8_t>(driftlog::ValueType::kString);
    rejects(bad);
    bad = good; // strictly ascending: two entries swapped
    std::swap(bad[device].dict[0], bad[device].dict[1]);
    rejects(bad);
    bad = good; // strictly ascending: a repeated entry
    bad[device].dict[1] = bad[device].dict[0];
    rejects(bad);
    bad = good; // a cell neither NULL nor the column's type (an int
                // sorts below every string, so the order still holds)
    bad[device].dict[0] = driftlog::Value(int64_t{5});
    rejects(bad);
    bad = good; // every id below the dictionary size
    bad[device].ids[3] = static_cast<uint32_t>(bad[device].dict.size());
    rejects(bad);
    bad = good; // every dictionary entry referenced
    bad[device].dict.push_back(driftlog::Value("zzz_unused"));
    rejects(bad);
    bad = good; // all columns the same length
    bad[device].ids.push_back(0);
    rejects(bad);
    // And a torn buffer.
    std::string torn = encodeParts(good);
    torn.resize(torn.size() - 3);
    EXPECT_THROW(decodeLog(torn), NazarError);
}

TEST(DriftLogColumns, CsvCarryingFullSnapshotIsRefused)
{
    // The retired full-snapshot payload carried the drift log as one
    // CSV string where the columns now start. It must fail to decode,
    // so recovery refuses the dir instead of skipping the snapshot.
    Writer w;
    for (int i = 0; i < 5; ++i)
        w.putU64(0);
    w.putString(logCsv(mixedLog(3)));
    w.putU64(0); // uploads
    w.putU64(0); // dedup windows
    w.putU64(0); // blobs
    w.putBool(false);
    EXPECT_THROW(decodeSnapshot(w.bytes()), NazarError);

    TempDir dir("csv_full");
    Env env;
    ChainHeader header;
    header.kind = ChainKind::kFull;
    header.id = 1;
    writeChainFile(dir.path, header, w.bytes(), env);
    EXPECT_THROW(recoverDir(dir.path), NazarError);
    PersistConfig config;
    config.dir = dir.path.string();
    EXPECT_THROW(CloudPersistence(config, 8), NazarError);
    EXPECT_FALSE(scrubStateDir(dir.path).ok);
}

TEST(SnapshotTest, DedupWindowOutOfOrderIsRefused)
{
    // The live window binary-searches `seen`, so a full snapshot whose
    // window is not strictly ascending at or above its floor must be
    // refused, even when the chain file's CRC is valid.
    const std::vector<DedupWindow> bad = {
        DedupWindow{2, {9, 5}},  // descending
        DedupWindow{2, {5, 5}},  // repeated
        DedupWindow{10, {5, 12}}, // below the floor
    };
    for (size_t i = 0; i < bad.size(); ++i) {
        SnapshotData data = sampleSnapshot();
        data.dedup[3] = bad[i];
        std::string payload = encodeSnapshot(data);
        EXPECT_THROW(decodeSnapshot(payload), NazarError) << i;

        TempDir dir("unsorted_dedup_" + std::to_string(i));
        Env env;
        ChainHeader header;
        header.kind = ChainKind::kFull;
        header.id = 1;
        writeChainFile(dir.path, header, payload, env);
        ASSERT_TRUE(loadChainFile(dir.path / chainFileName(
                                              1, ChainKind::kFull))
                        .has_value())
            << "the CRC must be valid: the window is what is refused";
        EXPECT_THROW(recoverDir(dir.path), NazarError) << i;
        PersistConfig config;
        config.dir = dir.path.string();
        EXPECT_THROW(CloudPersistence(config, 8), NazarError) << i;
    }
}

// ---- the dedup window ---------------------------------------------

/**
 * A seeded stream of seqs mixing in-order, reordered (jumps ahead,
 * filled in later), duplicated (recently sent again) and stale (far
 * below the newest, often under the floor) arrivals.
 */
std::vector<uint64_t>
dedupStream(uint64_t seed, size_t length)
{
    Rng rng(seed);
    std::vector<uint64_t> out;
    uint64_t next = 0;
    for (size_t i = 0; i < length; ++i) {
        double r = rng.uniform();
        if (r < 0.5 || out.empty()) {
            out.push_back(next++);
        } else if (r < 0.7) {
            out.push_back(next + rng.index(8)); // ahead of order
        } else if (r < 0.85) {
            size_t back = std::min<size_t>(out.size(), 16);
            out.push_back(out[out.size() - 1 - rng.index(back)]);
        } else {
            out.push_back(rng.index(static_cast<size_t>(next) + 1));
        }
    }
    return out;
}

TEST(DedupWindowDifferential, AcceptMatchesTheSetModel)
{
    for (size_t capacity : {size_t{1}, size_t{4}, size_t{4096}}) {
        for (uint64_t seed = 1; seed <= 4; ++seed) {
            DedupWindow window;
            oracle::SetDedupWindow model;
            size_t steps = capacity == 4096 ? 12000 : 2000;
            std::vector<uint64_t> stream = dedupStream(seed, steps);
            size_t accepted = 0;
            for (size_t i = 0; i < stream.size(); ++i) {
                uint64_t seq = stream[i];
                bool got = window.accept(seq, capacity);
                bool want = model.accept(seq, capacity);
                accepted += want ? 1 : 0;
                ASSERT_EQ(got, want) << "capacity " << capacity
                                     << " seed " << seed << " step " << i
                                     << " seq " << seq;
                ASSERT_EQ(window.floor, model.floor) << "step " << i;
                ASSERT_EQ(window.highWater(), model.highWater())
                    << "step " << i;
                ASSERT_TRUE(std::equal(window.seen.begin(),
                                       window.seen.end(),
                                       model.seen.begin(),
                                       model.seen.end()))
                    << "capacity " << capacity << " seed " << seed
                    << " step " << i;
            }
            // Every kind of verdict happened, and the window filled.
            EXPECT_GT(accepted, 0u);
            EXPECT_LT(accepted, stream.size());
            EXPECT_GT(window.floor, 0u) << "capacity " << capacity;
        }
    }
}

// ---- crash faults ---------------------------------------------------

TEST(EnvCrashTest, TornWriteLeavesExactlyHalfTheBytes)
{
    TempDir dir("crash_write");
    Env env(DiskFaultPlan{"site.write", 2, FaultKind::kCrash});
    Env::File *f = env.open("site.open", dir.path / "f", "wb");
    env.write("site.write", f, "abcd", 4); // hit 1: not the armed one
    try {
        env.write("site.write", f, "efghijkl", 8);
        FAIL() << "expected CrashInjected";
    } catch (const CrashInjected &e) {
        EXPECT_EQ(e.site(), "site.write");
        EXPECT_EQ(e.hit(), 2u);
    }
    env.close(f);
    EXPECT_TRUE(env.faulted());
    EXPECT_EQ(readBytes(dir.path / "f"), "abcdefgh");
}

TEST(EnvCrashTest, EveryOtherOpTakesEffectBeforeTheThrow)
{
    TempDir dir("crash_ops");
    const DiskFaultPlan plan{"op", 1, FaultKind::kCrash};
    {
        Env env(plan);
        EXPECT_THROW(env.open("op", dir.path / "opened", "wb"),
                     CrashInjected);
        EXPECT_TRUE(fs::exists(dir.path / "opened"));
        EXPECT_TRUE(env.faulted());
    }
    {
        Env env(plan);
        Env::File *f = env.open("open", dir.path / "synced", "wb");
        env.write("write", f, "payload", 7);
        EXPECT_THROW(env.sync("op", f, /*deep=*/1), CrashInjected);
        EXPECT_EQ(readBytes(dir.path / "synced"), "payload");
        env.close(f);
    }
    {
        Env env(plan);
        writeBytes(dir.path / "tmp", "renamed");
        EXPECT_THROW(
            env.rename("op", dir.path / "tmp", dir.path / "final"),
            CrashInjected);
        EXPECT_FALSE(fs::exists(dir.path / "tmp"));
        EXPECT_EQ(readBytes(dir.path / "final"), "renamed");
    }
    {
        Env env(plan);
        EXPECT_THROW(env.syncDir("op", dir.path), CrashInjected);
        EXPECT_EQ(env.hitCount("op"), 1u);
    }
    {
        Env env(plan);
        writeBytes(dir.path / "long", "abcdefgh");
        EXPECT_THROW(env.resize("op", dir.path / "long", 3),
                     CrashInjected);
        EXPECT_EQ(readBytes(dir.path / "long"), "abc");
    }
    {
        Env env(plan);
        writeBytes(dir.path / "victim", "x");
        EXPECT_THROW(env.remove("op", dir.path / "victim"),
                     CrashInjected);
        EXPECT_FALSE(fs::exists(dir.path / "victim"));
        EXPECT_TRUE(env.faulted());
    }
}

TEST(EnvCrashTest, DisarmedOrUnreachedPlanOnlyCounts)
{
    TempDir dir("crash_count");
    for (const DiskFaultPlan &plan :
         {DiskFaultPlan{}, DiskFaultPlan{"site.write", 3, FaultKind::kCrash},
          DiskFaultPlan{"site.other", 1, FaultKind::kCrash}}) {
        Env env(plan);
        Env::File *f = env.open("site.open", dir.path / "f", "wb");
        env.write("site.write", f, "abcd", 4);
        env.write("site.write", f, "efgh", 4);
        env.sync("site.sync", f, /*deep=*/0);
        env.close(f);
        EXPECT_FALSE(env.faulted());
        EXPECT_EQ(env.hitCount("site.write"), 2u);
        EXPECT_EQ(env.totalHits(), 4u);
        EXPECT_EQ(readBytes(dir.path / "f"), "abcdefgh");
    }
}

TEST(EnvCrashTest, ACrashedEnvDoesNoMoreIo)
{
    TempDir dir("crash_dead");
    Env env(DiskFaultPlan{"site.sync", 1, FaultKind::kCrash});
    Env::File *f = env.open("site.open", dir.path / "f", "wb");
    env.write("site.write", f, "abcd", 4);
    EXPECT_THROW(env.sync("site.sync", f, 0), CrashInjected);
    EXPECT_EQ(env.faultSite(), "site.sync");
    // The dead instance touches nothing: no write, no new file, no
    // rename, no resize, no unlink.
    EXPECT_THROW(env.write("site.write", f, "efgh", 4), DiskFault);
    env.close(f);
    EXPECT_THROW(env.open("site.open", dir.path / "g", "wb"), DiskFault);
    EXPECT_THROW(env.rename("site.rename", dir.path / "f",
                            dir.path / "h"),
                 DiskFault);
    EXPECT_THROW(env.resize("site.resize", dir.path / "f", 0), DiskFault);
    EXPECT_FALSE(env.remove("site.unlink", dir.path / "f"));
    EXPECT_EQ(readBytes(dir.path / "f"), "abcd");
    EXPECT_FALSE(fs::exists(dir.path / "g"));
    EXPECT_FALSE(fs::exists(dir.path / "h"));
}

// ---- scripted cloud scenario + crash sweep --------------------------

using script::CloudState;

class PersistCloudTest : public QuietLogs
{
};

TEST_F(PersistCloudTest, PersistedRunMatchesInMemoryRun)
{
    // Persistence on (no crash) must not change a single observable
    // output relative to a cloud without the persist layer.
    TempDir dir("equiv");
    CloudState oracle = script::capture(*script::drive("", {}));
    auto persisted = script::drive(dir.path.string(), {});
    script::expectStateEq(script::capture(*persisted), oracle,
                          "persisted");
    // A disarmed Env draws no randomness; it only counts.
    EXPECT_GT(persisted->persistence()->env().totalHits(), 0u);
}

TEST_F(PersistCloudTest, ReopenRestoresFullState)
{
    TempDir dir("reopen");
    CloudState before =
        script::capture(*script::drive(dir.path.string(), {}));
    // A brand-new cloud over the same directory recovers everything.
    sim::Cloud reopened(script::config(dir.path.string()),
                        script::base());
    script::expectStateEq(script::capture(reopened), before, "reopen");
}

TEST_F(PersistCloudTest, NonDedupIngestIsReplayedToo)
{
    TempDir dir("plain_ingest");
    {
        sim::Cloud cloud(script::config(dir.path.string()),
                         script::base());
        for (int i = 0; i < 5; ++i)
            cloud.ingestBatchFrom(script::batch(-1, 0, i));
    }
    sim::Cloud reopened(script::config(dir.path.string()),
                        script::base());
    EXPECT_EQ(reopened.driftLogSize(), 5u);
    EXPECT_EQ(reopened.totalIngested(), 5u);
    EXPECT_EQ(reopened.uploadCount(), 4u); // i=3 had no upload
    EXPECT_EQ(reopened.dedupHits(), 0u);
}

TEST_F(PersistCloudTest, ExhaustiveCrashSweepMatchesOracle)
{
    // The oracle: the same script against an in-memory cloud.
    CloudState oracle = script::capture(*script::drive("", {}));

    // Probe run: count every Env hit the scenario reaches, per site.
    std::map<std::string, uint64_t> reached;
    uint64_t total_hits = 0;
    {
        TempDir dir("probe");
        auto cloud = script::drive(dir.path.string(), {});
        Env &env = cloud->persistence()->env();
        for (const char *site : script::kEnvSites) {
            if (env.hitCount(site) > 0)
                reached[site] = env.hitCount(site);
        }
        total_hits = env.totalHits();
    }
    ASSERT_GT(total_hits, 0u);

    // Crash at every single Env operation, recover, finish the
    // script, and require the final state to match the oracle.
    uint64_t swept = 0;
    std::set<std::string> fired_sites;
    for (const auto &[site, hits] : reached) {
        for (uint64_t hit = 1; hit <= hits; ++hit) {
            SCOPED_TRACE(site + "/hit" + std::to_string(hit));
            ++swept;
            TempDir dir("sweep");
            size_t crashes = 0;
            std::vector<std::string> sites;
            auto cloud = script::drive(
                dir.path.string(),
                DiskFaultPlan{site, hit, FaultKind::kCrash}, &crashes,
                &sites);
            ASSERT_EQ(crashes, 1u) << "hit " << hit;
            fired_sites.insert(sites[0]);
            CloudState got = script::capture(*cloud);
            EXPECT_EQ(got.driftCsv, oracle.driftCsv) << "hit " << hit;
            EXPECT_EQ(got.uploadCount, oracle.uploadCount) << "hit " << hit;
            EXPECT_EQ(got.totalIngested, oracle.totalIngested)
                << "hit " << hit;
            EXPECT_EQ(got.nextVersionId, oracle.nextVersionId)
                << "hit " << hit;
            EXPECT_EQ(got.logicalTime, oracle.logicalTime) << "hit " << hit;
            EXPECT_EQ(got.versionIds, oracle.versionIds) << "hit " << hit;
            EXPECT_EQ(got.blobs, oracle.blobs) << "hit " << hit;
            EXPECT_EQ(got.dedup, oracle.dedup) << "hit " << hit;
            // A crash after the WAL append but before the in-memory apply
            // makes the client's retry a retransmission; the dedup window
            // absorbs it, at the cost of at most one extra dedup hit.
            EXPECT_GE(got.dedupHits, oracle.dedupHits) << "hit " << hit;
            EXPECT_LE(got.dedupHits, oracle.dedupHits + crashes)
                << "hit " << hit;
        }
    }
    EXPECT_EQ(swept, total_hits); // no site outside kEnvSites was hit
    // Every site the scenario reaches fired at least once in the sweep.
    std::set<std::string> reached_sites;
    for (const auto &[site, hits] : reached)
        reached_sites.insert(site);
    EXPECT_EQ(fired_sites, reached_sites);
}

TEST_F(PersistCloudTest, RecoverDirMatchesLiveState)
{
    TempDir dir("recover_dir");
    auto cloud = script::drive(dir.path.string(), {});
    CloudState live = script::capture(*cloud);
    // recoverDir() is read-only: it must see exactly what a reopened
    // cloud would adopt, and leave the files untouched.
    RecoveredState st =
        recoverDir(dir.path, /*dedup_window=*/8);
    std::ostringstream csv;
    driftlog::writeCsv(st.log.table(), csv);
    EXPECT_EQ(csv.str(), live.driftCsv);
    EXPECT_EQ(st.uploads.size(), live.uploadCount);
    EXPECT_EQ(st.totalIngested, live.totalIngested);
    EXPECT_EQ(st.nextVersionId, live.nextVersionId);
    EXPECT_EQ(st.logicalTime, live.logicalTime);
    EXPECT_EQ(st.dedup, live.dedup);
    RecoveredState again = recoverDir(dir.path, 8);
    EXPECT_EQ(again.totalIngested, st.totalIngested);
}

// ---- replay skip rule vs the plain replay oracle -------------------

constexpr size_t kWindow = 4; // small: exercises floor advancement

/**
 * A state dir written record by record through CloudPersistence, so a
 * test places every cycle commit, flush, snapshot and tear exactly.
 */
class ScriptedDir
{
  public:
    explicit ScriptedDir(const std::string &tag) : dir_(tag)
    {
        config_.dir = dir_.path.string();
        config_.snapshotEvery = 0; // snapshots only where scripted
        p_ = std::make_unique<CloudPersistence>(config_, kWindow);
    }

    const fs::path &path() const { return dir_.path; }
    const PersistConfig &config() const { return config_; }

    /** Entry @p i from device @p device (-1: the non-dedup path). */
    void
    ingest(int64_t device, uint64_t seq, int i)
    {
        p_->logIngestBatch({CloudPersistence::encodeIngest(
            {device, seq, script::entry(i), script::upload(i)})});
    }

    void
    commit()
    {
        ++time_;
        std::string id = std::to_string(nextId_);
        p_->logCycleCommit(time_, nextId_ + 1,
                           {VersionBlobs{nextId_, "meta-" + id,
                                         "patch-" + id}},
                           "clean@" + std::to_string(time_), time_);
        ++nextId_;
    }

    void flush() { p_->logFlush(); }
    void gc(int64_t min_version_id) { p_->logRegistryGc(min_version_id); }
    void delta() { p_->writeDeltaSnapshot(); }

    /** A full snapshot of the state written so far. */
    void
    full()
    {
        RecoveredState st = oracle::replayAll(dir_.path, kWindow);
        SnapshotData data;
        data.logicalTime = st.logicalTime;
        data.nextVersionId = st.nextVersionId;
        data.totalIngested = st.totalIngested;
        data.dedupHits = st.dedupHits;
        data.driftLog = std::move(st.log);
        data.uploads = std::move(st.uploads);
        data.dedup = std::move(st.dedup);
        data.blobs = std::move(st.blobs);
        data.cleanPatchText = std::move(st.cleanPatchText);
        data.cleanPatchTime = st.cleanPatchTime;
        p_->writeSnapshot(std::move(data));
    }

    /** Stop writing (closes the WAL). */
    void close() { p_.reset(); }

  private:
    TempDir dir_;
    PersistConfig config_;
    std::unique_ptr<CloudPersistence> p_;
    int64_t time_ = 0;
    int64_t nextId_ = 1;
};

std::string
uploadBytes(const std::vector<UploadRecord> &uploads)
{
    Writer w;
    for (const UploadRecord &u : uploads)
        putUpload(w, u);
    return w.take();
}

void
expectSameRecovery(const RecoveredState &got, const RecoveredState &want)
{
    EXPECT_EQ(logCsv(got.log), logCsv(want.log));
    EXPECT_EQ(encodeLog(got.log), encodeLog(want.log));
    EXPECT_EQ(uploadBytes(got.uploads), uploadBytes(want.uploads));
    EXPECT_EQ(got.dedup, want.dedup);
    EXPECT_EQ(got.dedupHits, want.dedupHits);
    EXPECT_EQ(got.totalIngested, want.totalIngested);
    EXPECT_EQ(got.nextVersionId, want.nextVersionId);
    EXPECT_EQ(got.logicalTime, want.logicalTime);
    EXPECT_EQ(got.blobs, want.blobs);
    EXPECT_EQ(got.cleanPatchText, want.cleanPatchText);
    EXPECT_EQ(got.cleanPatchTime, want.cleanPatchTime);
    EXPECT_EQ(got.lastWalSeq, want.lastWalSeq);
    EXPECT_EQ(got.snapshotLoaded, want.snapshotLoaded);
    EXPECT_EQ(got.replayedRecords, want.replayedRecords);
    EXPECT_EQ(got.truncatedBytes, want.truncatedBytes);
}

/**
 * Close @p sd, then require recoverDir and a reopened
 * CloudPersistence to equal the plain replay field by field, with
 * exactly @p elided rows left unmaterialized.
 */
void
expectMatchesOracle(ScriptedDir &sd, uint64_t elided)
{
    sd.close();
    RecoveredState want = oracle::replayAll(sd.path(), kWindow);
    RecoveredState got = recoverDir(sd.path(), kWindow);
    expectSameRecovery(got, want);
    EXPECT_EQ(got.elidedRows, elided);
    CloudPersistence reopened(sd.config(), kWindow);
    expectSameRecovery(reopened.recovered(), want);
    EXPECT_EQ(reopened.recovered().elidedRows, elided);
}

void
appendTornRecord(const fs::path &wal)
{
    // A record header promising more body bytes than follow.
    std::ofstream out(wal, std::ios::binary | std::ios::app);
    out.write("\x40\x00\x00\x00\x12\x34\x56\x78torn", 12);
}

class ReplaySkipTest : public QuietLogs
{
};

TEST_F(ReplaySkipTest, FlushInTheWalTail)
{
    ScriptedDir sd("skip_flush");
    for (int i = 0; i < 5; ++i)
        sd.ingest(i % 3, static_cast<uint64_t>(i / 3), i);
    sd.full(); // 5 rows inside the full snapshot
    for (int i = 5; i < 12; ++i)
        sd.ingest(i % 3, static_cast<uint64_t>(i / 3), i);
    sd.delta();
    for (int i = 12; i < 17; ++i)
        sd.ingest(i % 3, static_cast<uint64_t>(i / 3), i);
    sd.flush();
    for (int i = 17; i < 20; ++i)
        sd.ingest(i % 3, static_cast<uint64_t>(i / 3), i);
    expectMatchesOracle(sd, 12);
}

TEST_F(ReplaySkipTest, CycleCommitInsideADelta)
{
    ScriptedDir sd("skip_commit_delta");
    sd.full();
    for (int i = 0; i < 8; ++i)
        sd.ingest(i % 3, static_cast<uint64_t>(i / 3), i);
    sd.commit();
    for (int i = 8; i < 14; ++i)
        sd.ingest(i % 3, static_cast<uint64_t>(i / 3), i);
    sd.delta();
    for (int i = 14; i < 18; ++i)
        sd.ingest(i % 3, static_cast<uint64_t>(i / 3), i);
    sd.gc(1);
    expectMatchesOracle(sd, 8);
}

TEST_F(ReplaySkipTest, DuplicatesRejectedBeforeAClear)
{
    ScriptedDir sd("skip_dups");
    sd.full();
    for (int i = 0; i < 12; ++i)
        sd.ingest(0, static_cast<uint64_t>(i), i); // floor reaches 8
    sd.ingest(0, 2, 2);   // below the floor: dedup hit
    sd.ingest(0, 10, 10); // inside the window: dedup hit
    sd.ingest(-1, 0, 12); // the non-dedup path
    sd.delta();
    sd.ingest(1, 0, 13);
    sd.ingest(1, 0, 13); // retransmission: dedup hit
    sd.commit();
    sd.ingest(0, 11, 11); // still a hit after the clear
    sd.ingest(0, 12, 14);
    sd.ingest(1, 1, 15);
    expectMatchesOracle(sd, 14);
}

TEST_F(ReplaySkipTest, NoClearAtAll)
{
    ScriptedDir sd("skip_none");
    for (int i = 0; i < 6; ++i)
        sd.ingest(i % 3, static_cast<uint64_t>(i / 3), i);
    sd.full();
    for (int i = 6; i < 12; ++i)
        sd.ingest(i % 3, static_cast<uint64_t>(i / 3), i);
    sd.delta();
    sd.gc(3);
    for (int i = 12; i < 16; ++i)
        sd.ingest(i % 3, static_cast<uint64_t>(i / 3), i);
    sd.ingest(0, 1, 3); // retransmission
    expectMatchesOracle(sd, 0);
}

TEST_F(ReplaySkipTest, ClearIsTheVeryLastRecord)
{
    ScriptedDir sd("skip_last");
    sd.full();
    for (int i = 0; i < 6; ++i)
        sd.ingest(i % 3, static_cast<uint64_t>(i / 3), i);
    sd.delta();
    for (int i = 6; i < 10; ++i)
        sd.ingest(i % 3, static_cast<uint64_t>(i / 3), i);
    sd.commit();
    expectMatchesOracle(sd, 10);
}

TEST_F(ReplaySkipTest, TornTailAfterTheLastClear)
{
    ScriptedDir sd("skip_torn");
    sd.full();
    for (int i = 0; i < 6; ++i)
        sd.ingest(i % 3, static_cast<uint64_t>(i / 3), i);
    sd.delta();
    for (int i = 6; i < 10; ++i)
        sd.ingest(i % 3, static_cast<uint64_t>(i / 3), i);
    sd.commit();
    for (int i = 10; i < 13; ++i)
        sd.ingest(i % 3, static_cast<uint64_t>(i / 3), i);
    sd.close();
    appendTornRecord(sd.path() / "wal.log");
    ASSERT_GT(Wal::scan(sd.path() / "wal.log").truncatedBytes, 0u);
    expectMatchesOracle(sd, 10);
}

TEST_F(ReplaySkipTest, WalOnlyWithoutAChain)
{
    ScriptedDir sd("skip_wal_only");
    for (int i = 0; i < 7; ++i)
        sd.ingest(i % 3, static_cast<uint64_t>(i / 3), i);
    sd.commit();
    sd.flush();
    for (int i = 7; i < 9; ++i)
        sd.ingest(i % 3, static_cast<uint64_t>(i / 3), i);
    expectMatchesOracle(sd, 7);
}

TEST_F(ReplaySkipTest, BrokenChainIsRefusedAndTheWalLeftAlone)
{
    for (bool missing_base : {true, false}) {
        ScriptedDir sd(missing_base ? "broken_missing" : "broken_crc");
        for (int i = 0; i < 4; ++i)
            sd.ingest(i % 3, static_cast<uint64_t>(i / 3), i);
        sd.full();
        for (int i = 4; i < 8; ++i)
            sd.ingest(i % 3, static_cast<uint64_t>(i / 3), i);
        sd.delta();
        for (int i = 8; i < 10; ++i)
            sd.ingest(i % 3, static_cast<uint64_t>(i / 3), i);
        sd.close();
        fs::path base = sd.path() / chainFileName(1, ChainKind::kFull);
        ASSERT_TRUE(fs::exists(base));
        if (missing_base) {
            fs::remove(base);
        } else {
            // A valid full snapshot, but not the one the delta links.
                    Env env;
            ChainHeader header;
            header.id = 1;
            writeChainFile(sd.path(), header, encodeSnapshot({}), env);
        }
        fs::path wal = sd.path() / "wal.log";
        appendTornRecord(wal);
        const std::string before = readBytes(wal);
        EXPECT_THROW(recoverDir(sd.path(), kWindow), NazarError);
        EXPECT_THROW(CloudPersistence(sd.config(), kWindow), NazarError);
        EXPECT_EQ(readBytes(wal), before) << "missing " << missing_base;
    }
}

TEST_F(ReplaySkipTest, CorruptElidedRecordIsRefused)
{
    // Replay decodes an ingest record a later cycle commit clears in
    // place and builds nothing from it, but runs every check. A delta
    // whose elided record is corrupt, with the chain file's CRC
    // recomputed so it loads, must still be refused.
    for (int corruption = 0; corruption < 3; ++corruption) {
        SCOPED_TRACE("corruption " + std::to_string(corruption));
        ScriptedDir sd("elided_corrupt_" + std::to_string(corruption));
        sd.full();
        for (int i = 0; i < 6; ++i)
            sd.ingest(i % 3, static_cast<uint64_t>(i / 3), i);
        sd.commit();
        sd.delta();
        sd.ingest(0, 9, 6);
        sd.close();
        ASSERT_EQ(recoverDir(sd.path(), kWindow).elidedRows, 6u);

        const fs::path path =
            sd.path() / chainFileName(2, ChainKind::kDelta);
        std::optional<ChainFile> delta = loadChainFile(path);
        ASSERT_TRUE(delta.has_value());
        std::vector<WalRecord> records =
            decodeDeltaRecords(delta->payload);
        ASSERT_EQ(records[0].type, WalRecordType::kIngest);
        std::string bad(records[0].payload);
        const IngestRecord rec = oracle::decodeIngest(bad);
        ASSERT_TRUE(rec.upload.has_value());
        switch (corruption) {
          case 0: // the device flag disagrees with the device's sign
            bad[0] = static_cast<char>(bad[0] ^ 2);
            break;
          case 1: // the upload's last byte is gone
            bad.pop_back();
            break;
          default: { // the first context Value's tag is unknown
            // flags, device, seq, day, second, model version, drift,
            // feature count, features, attribute count, column.
            const UploadRecord &up = *rec.upload;
            size_t at = 1 + 8 + 8 + 4 + 4 + 8 + 1 + 8 +
                        8 * up.features.size() + 4 + 8 +
                        up.context.attributes()[0].column.size();
            for (const std::string *str :
                 {&rec.entry.deviceId, &rec.entry.deviceModel,
                  &rec.entry.location, &rec.entry.weather})
                at += 8 + str->size();
            ASSERT_EQ(bad[at],
                      static_cast<char>(driftlog::ValueType::kString));
            bad[at] = 9;
            break;
          }
        }
        EXPECT_THROW(oracle::decodeIngest(bad), NazarError);
        records[0].payload = bad;
        Env env;
        writeChainFile(sd.path(), delta->header,
                       encodeDeltaRecords(records), env);
        ASSERT_TRUE(loadChainFile(path).has_value())
            << "the CRC must be valid: the record is what is refused";
        EXPECT_THROW(recoverDir(sd.path(), kWindow), NazarError);
        EXPECT_THROW(CloudPersistence(sd.config(), kWindow), NazarError);
    }
}

} // namespace
} // namespace nazar::persist
