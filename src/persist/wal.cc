#include "persist/wal.h"

#include <cstring>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "persist/serial.h"

namespace nazar::persist {

namespace fs = std::filesystem;

namespace {

/** Parse @p data; returns the scan plus the byte length of the good prefix. */
std::pair<WalScan, size_t>
parseWal(std::string_view data)
{
    WalScan scan;
    if (data.size() < sizeof(Wal::kMagic) ||
        std::memcmp(data.data(), Wal::kMagic, sizeof(Wal::kMagic)) != 0) {
        scan.truncatedBytes = data.size();
        return {std::move(scan), 0};
    }
    scan.validHeader = true;
    size_t pos = sizeof(Wal::kMagic);
    size_t good = pos;
    uint64_t last_seq = 0;
    while (data.size() - pos >= 8) {
        Reader head(data.data() + pos, 8);
        uint32_t len = head.getU32();
        uint32_t crc = head.getU32();
        if (data.size() - pos - 8 < len)
            break; // short body: torn tail
        const char *body = data.data() + pos + 8;
        if (crc32(body, len) != crc)
            break; // bit rot or torn rewrite
        if (len < 9)
            break; // body must hold at least type + seq
        Reader r(body, len);
        WalRecord rec;
        rec.type = static_cast<WalRecordType>(r.getU8());
        rec.seq = r.getU64();
        if (rec.type != WalRecordType::kIngest &&
            rec.type != WalRecordType::kCycleCommit &&
            rec.type != WalRecordType::kFlush &&
            rec.type != WalRecordType::kRegistryGc)
            break; // unknown type: treat as corruption
        if (rec.seq <= last_seq)
            break; // seqs are strictly increasing
        rec.payload = std::string_view(body + 9, len - 9);
        last_seq = rec.seq;
        scan.records.push_back(std::move(rec));
        pos += 8 + len;
        good = pos;
    }
    scan.truncatedBytes = data.size() - good;
    return {std::move(scan), good};
}

} // namespace

SyncMode
syncModeFromString(const std::string &name)
{
    if (name == "flush")
        return SyncMode::kFlush;
    if (name == "fdatasync")
        return SyncMode::kFdatasync;
    if (name == "fsync")
        return SyncMode::kFsync;
    throw NazarError("unknown sync mode '" + name +
                     "' (expected flush|fdatasync|fsync)");
}

const char *
syncModeName(SyncMode mode)
{
    switch (mode) {
    case SyncMode::kFlush:
        return "flush";
    case SyncMode::kFdatasync:
        return "fdatasync";
    case SyncMode::kFsync:
        return "fsync";
    }
    return "?";
}

WalScan
Wal::scan(const fs::path &path)
{
    FileBytes file = readFile(path);
    WalScan scan = parseWal(file.view()).first;
    scan.unreadable = file.unreadable;
    scan.bytes = std::move(file);
    return scan;
}

Wal::Wal(const fs::path &path, SyncMode sync, Env *env)
    : path_(path), sync_(sync)
{
    if (env == nullptr) {
        ownedEnv_ = std::make_unique<Env>();
        env = ownedEnv_.get();
    }
    env_ = env;
    recoveredBytes_ = readFile(path_);
    NAZAR_CHECK(!recoveredBytes_.unreadable,
                "Wal: " + path_.string() +
                    " exists but cannot be read; refusing to "
                    "overwrite it");
    const size_t size = recoveredBytes_.size;
    auto [scan, good] = parseWal(recoveredBytes_.view());
    truncatedBytes_ = scan.truncatedBytes;
    records_ = std::move(scan.records);
    if (!records_.empty())
        nextSeq_ = records_.back().seq + 1;
    if (!scan.validHeader) {
        // Absent or unrecognizable file: start fresh with a header,
        // made durable (file + directory entry) before any record
        // relies on it. A fault here throws out of the constructor,
        // which the destructor never sees, so close the file first.
        file_ = env_->open("env.wal.open", path_, "wb");
        try {
            env_->write("env.wal.write", file_, kMagic, sizeof(kMagic));
            env_->sync("env.wal.sync", file_, syncDepth());
            env_->syncDir("env.wal.dirsync", parentDir());
        } catch (...) {
            env_->close(file_);
            throw;
        }
        return;
    }
    if (good < size)
        env_->resize("env.wal.truncate", path_, good); // drop torn tail
    file_ = env_->open("env.wal.open", path_, "ab");
    if (truncatedBytes_ > 0)
        obs::Registry::global()
            .counter("persist.wal.torn_bytes")
            .add(truncatedBytes_);
}

Wal::~Wal()
{
    if (file_ != nullptr)
        env_->close(file_);
}

int
Wal::syncDepth() const
{
    switch (sync_) {
    case SyncMode::kFlush:
        return 0;
    case SyncMode::kFdatasync:
        return 1;
    case SyncMode::kFsync:
        return 2;
    }
    return 0;
}

fs::path
Wal::parentDir() const
{
    fs::path parent = path_.parent_path();
    return parent.empty() ? fs::path(".") : parent;
}

uint64_t
Wal::append(WalRecordType type, const std::string &payload)
{
    uint64_t seq = appendBuffered(type, payload);
    sync();
    return seq;
}

uint64_t
Wal::appendBuffered(WalRecordType type, const std::string &payload)
{
    // The frame's body is the type, the seq, then the payload.
    const Writer frame = writeFrame(9 + payload.size(), [&](Writer &w) {
        w.putU8(static_cast<uint8_t>(type));
        w.putU64(nextSeq_);
        w.putBytes(payload.data(), payload.size());
    });
    const std::string &bytes = frame.bytes();
    env_->write("env.wal.write", file_, bytes.data(), bytes.size());
    uint64_t seq = nextSeq_++;
    static obs::Counter &appends =
        obs::Registry::global().counter("persist.wal.appends");
    appends.add(1);
    return seq;
}

void
Wal::sync()
{
    static obs::Counter &syncs =
        obs::Registry::global().counter("persist.wal.syncs");
    {
        NAZAR_SPAN("persist.wal.sync");
        env_->sync("env.wal.sync", file_, syncDepth());
    }
    syncs.add(1);
}

void
Wal::truncateAll()
{
    env_->close(file_);
    file_ = nullptr;
    env_->resize("env.wal.truncate", path_, sizeof(kMagic));
    file_ = env_->open("env.wal.open", path_, "ab");
    env_->syncDir("env.wal.dirsync", parentDir());
    obs::Registry::global().counter("persist.wal.truncations").add(1);
}

void
Wal::bumpSeqPast(uint64_t last_seq)
{
    if (nextSeq_ <= last_seq)
        nextSeq_ = last_seq + 1;
}

} // namespace nazar::persist
