/**
 * @file
 * Binary serialization helpers for the durability layer.
 *
 * Everything the WAL and the snapshot write goes through this small
 * byte-buffer codec: little-endian fixed-width integers, bit-exact
 * doubles (memcpy of the IEEE-754 pattern, so NaN payloads survive a
 * round trip), length-prefixed strings, and composite encoders for
 * the domain types the cloud persists (driftlog::Value,
 * rca::AttributeSet, drift-log entries, uploads). A CRC32 (the usual
 * reflected 0xEDB88320 polynomial) guards every WAL record, chain file
 * and wire frame; no external compression/CRC library is used. It has
 * two kernels (crc_kernel): carry-less-multiply folding (PCLMULQDQ)
 * for long inputs where the CPU has it, and portable slicing-by-8
 * (eight table lookups per eight input bytes) everywhere else and for
 * short tails. Both compute the same values.
 *
 * Readers are bounds-checked: a short or corrupt buffer raises
 * NazarError, which the WAL open path converts into torn-tail
 * truncation and chain recovery into a refusal to adopt the state.
 * getStringView and getEntryView decode strings in place, and
 * skipUpload checks an upload without building it: they run the same
 * checks as getString/getUpload, copy nothing, and borrow the
 * Reader's buffer.
 */
#ifndef NAZAR_PERSIST_SERIAL_H
#define NAZAR_PERSIST_SERIAL_H

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/cpu_dispatch.h"
#include "driftlog/drift_log.h"
#include "driftlog/value.h"
#include "rca/attribute_set.h"

namespace nazar::persist {

/** CRC32 (reflected 0xEDB88320) over @p data. */
uint32_t crc32(const void *data, size_t len);

/** Incremental variant; start from 0 and feed chunks in order. */
uint32_t crc32Update(uint32_t crc, const void *data, size_t len);

namespace crc_kernel {

/**
 * Advance the raw CRC register (no pre/post inversion) over
 * [p, p + len).
 */
using Update = uint32_t (*)(uint32_t reg, const unsigned char *p,
                            size_t len);

/**
 * The CRC32 family, dispatched by common/cpu_dispatch.h; crc32 and
 * crc32Update use the active variant.
 */
struct Kernels
{
    Update update;
    /** The variants the host CPU runs, preferred first: `pclmul`,
     *  `baseline` (slicing-by-8, runs anywhere; crc32.cc). */
    static std::vector<cpu_dispatch::Variant<Kernels>> detect();
};

} // namespace crc_kernel

namespace detail {

/** @p v converted between native and little-endian byte order (the
 *  same swap either way; a no-op on little-endian hosts). */
template <typename T>
inline T
swapIfBigEndian(T v)
{
    static_assert(sizeof(T) == 4 || sizeof(T) == 8);
    if constexpr (std::endian::native == std::endian::big) {
        if constexpr (sizeof(T) == 4)
            return __builtin_bswap32(v);
        else
            return __builtin_bswap64(v);
    }
    return v;
}

/** Throws Reader's "truncated record" NazarError. */
[[noreturn]] void throwTruncated(size_t need, size_t have);

/** Throws the NazarError for a string length past the buffer. */
[[noreturn]] void throwStringOverrun();

} // namespace detail

/** Append-only byte buffer with typed little-endian writers. */
class Writer
{
  public:
    void putU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
    void putBool(bool v) { putU8(v ? 1 : 0); }
    void putU32(uint32_t v) { putLittleEndian(v); }
    void putU64(uint64_t v) { putLittleEndian(v); }
    void putI64(int64_t v) { putU64(static_cast<uint64_t>(v)); }
    /** Bit-exact: the IEEE-754 pattern is copied, NaN payloads intact. */
    void putF64(double v) { putU64(std::bit_cast<uint64_t>(v)); }
    void putBytes(const void *data, size_t len)
    {
        buf_.append(static_cast<const char *>(data), len);
    }
    /** u64 length prefix + raw bytes. */
    void putString(std::string_view s)
    {
        putU64(s.size());
        buf_.append(s);
    }

    /** Overwrite the 4 bytes at @p pos, already written, with @p v. */
    void patchU32(size_t pos, uint32_t v)
    {
        v = detail::swapIfBigEndian(v);
        std::memcpy(buf_.data() + pos, &v, sizeof(v));
    }
    void reserve(size_t n) { buf_.reserve(n); }

    const std::string &bytes() const { return buf_; }
    std::string take() { return std::move(buf_); }
    size_t size() const { return buf_.size(); }

  private:
    template <typename T>
    void putLittleEndian(T v)
    {
        v = detail::swapIfBigEndian(v);
        char bytes[sizeof(T)];
        std::memcpy(bytes, &v, sizeof(T));
        buf_.append(bytes, sizeof(T));
    }

    std::string buf_;
};

/**
 * One frame, [u32 body length][u32 crc32(body)][body], as every WAL
 * record and wire message is written: @p put_body writes the body
 * (about @p body_bytes) once, after a placeholder header that is then
 * patched. Parsing stays with each reader, since a WAL scan stops at a
 * torn tail where the wire throws.
 */
template <typename PutBody>
Writer
writeFrame(size_t body_bytes, PutBody &&put_body)
{
    constexpr size_t kHeader = 8;
    Writer frame;
    frame.reserve(kHeader + body_bytes);
    frame.putU32(0);
    frame.putU32(0);
    put_body(frame);
    const size_t body_len = frame.size() - kHeader;
    frame.patchU32(0, static_cast<uint32_t>(body_len));
    frame.patchU32(4, crc32(frame.bytes().data() + kHeader, body_len));
    return frame;
}

/**
 * Bounds-checked reader over a byte range; throws NazarError on
 * underrun. Every getter is one compare against the bytes left and
 * one little-endian load; the throw is out of line.
 */
class Reader
{
  public:
    Reader(const char *data, size_t len) : data_(data), len_(len) {}
    explicit Reader(std::string_view s) : Reader(s.data(), s.size()) {}

    uint8_t getU8() { return static_cast<uint8_t>(*need(1)); }
    bool getBool() { return getU8() != 0; }
    uint32_t getU32() { return getLittleEndian<uint32_t>(); }
    uint64_t getU64() { return getLittleEndian<uint64_t>(); }
    int64_t getI64() { return static_cast<int64_t>(getU64()); }
    double getF64() { return std::bit_cast<double>(getU64()); }
    std::string getString() { return std::string(getStringView()); }
    /** getString's bytes in place: a view into the Reader's buffer. */
    std::string_view getStringView()
    {
        uint64_t n = getU64();
        if (n > remaining()) [[unlikely]]
            detail::throwStringOverrun();
        return std::string_view(need(static_cast<size_t>(n)),
                                static_cast<size_t>(n));
    }

    /** Advance past @p n bytes without decoding them (bounds-checked). */
    void skip(size_t n) { need(n); }

    size_t remaining() const { return len_ - pos_; }
    bool atEnd() const { return pos_ == len_; }

  private:
    const char *need(size_t n)
    {
        if (len_ - pos_ < n) [[unlikely]]
            detail::throwTruncated(n, len_ - pos_);
        const char *p = data_ + pos_;
        pos_ += n;
        return p;
    }

    template <typename T>
    T getLittleEndian()
    {
        T v = 0;
        std::memcpy(&v, need(sizeof(T)), sizeof(T));
        return detail::swapIfBigEndian(v);
    }

    const char *data_;
    size_t len_;
    size_t pos_ = 0;
};

/** Tagged driftlog::Value (null / int / double / bool / string). */
void putValue(Writer &w, const driftlog::Value &v);
driftlog::Value getValue(Reader &r);

void putAttributeSet(Writer &w, const rca::AttributeSet &attrs);
rca::AttributeSet getAttributeSet(Reader &r);

/**
 * A drift-log entry plus the sub-day timestamp `DriftLog::entry()`
 * drops (the table only keeps the formatted time string, so the WAL
 * carries day + secondOfDay explicitly to rebuild rows losslessly).
 */
void putEntry(Writer &w, const driftlog::DriftLogEntry &e);
/** Decode what putEntry wrote; the strings view @p r's buffer. */
driftlog::DriftLogEntryView getEntryView(Reader &r);

/**
 * A drift log as its dictionary-encoded columns:
 *
 *     [u32 columnCount] then per column:
 *     [u8 ValueType][u64 dictSize][dictSize x putValue, ascending]
 *     [u64 rows][rows x u32 id]
 *
 * written straight from Column::dictionary()/ids(), so neither side
 * formats, parses or materializes a per-row Value. getDriftLog checks
 * the canonical column count and types, then hands each column to
 * Column's from-parts constructor (strictly ascending dictionary,
 * cells NULL or of the column's type, ids in range, every entry
 * referenced) and the columns to Table's (equal lengths); any
 * violation throws NazarError.
 */
void putDriftLog(Writer &w, const driftlog::DriftLog &log);
driftlog::DriftLog getDriftLog(Reader &r);

/**
 * Step past one encoded drift log, running every check getDriftLog
 * runs, the Column and Table from-parts checks included, in the same
 * order and with the same messages, and building no Value, column or
 * index: getDriftLog throws on these bytes exactly when skipDriftLog
 * does.
 */
void skipDriftLog(Reader &r);

/** A sampled raw input uploaded with a drift-log entry. */
struct UploadRecord
{
    std::vector<double> features;
    rca::AttributeSet context; ///< Device context at inference time.
    bool driftFlag = false;    ///< The on-device detector's verdict.
};

void putUpload(Writer &w, const UploadRecord &u);
UploadRecord getUpload(Reader &r);

/**
 * Step past one encoded upload, running every check getUpload runs
 * (feature count against the buffer, attribute strings, Value tags,
 * at most one value per attribute column) and materializing nothing:
 * getUpload throws on these bytes exactly when skipUpload does. Only
 * an attribute set written out of column order costs an allocation.
 */
void skipUpload(Reader &r);

/**
 * One ingest attempt, the same struct from device to disk: the
 * runner's uplink channel, the wire's kIngest payload, the server's
 * committer queue, Cloud::ingestBatchFrom and the WAL's kIngest
 * record. @p seq is the sender's per-device monotone sequence number;
 * a negative @p device marks a row exempt from dedup (an in-process
 * emitter with no retransmissions).
 */
struct IngestRecord
{
    int64_t device = 0;
    uint64_t seq = 0;
    driftlog::DriftLogEntry entry;
    std::optional<UploadRecord> upload;
    /** Causal trace context (obs::TraceContext ids; 0 = untraced):
     *  set by the server's kIngest decode, never written to the WAL. */
    uint64_t traceId = 0;
    uint64_t spanId = 0;
};

} // namespace nazar::persist

#endif // NAZAR_PERSIST_SERIAL_H
