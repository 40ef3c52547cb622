/**
 * @file
 * Checksummed, length-prefixed write-ahead log.
 *
 * On-disk layout:
 *
 *     [8-byte magic "NZWAL1\0\0"]
 *     repeated records: [u32 bodyLen][u32 crc32(body)][body]
 *     body = [u8 recordType][u64 seq][payload...]
 *
 * Sequence numbers are strictly increasing across the WAL's lifetime
 * and keep counting across truncations, so a snapshot can record "I
 * contain everything up to seq S" and replay skips records <= S.
 *
 * Opening scans the file front to back; the first short read, CRC
 * mismatch, or non-monotonic seq marks the torn tail left by a crash
 * mid-append, and the file is truncated to the last good record.
 * Everything before the tear is valid by construction (each record is
 * independently checksummed), so a crash can only lose the operation
 * that was being written — which by WAL-first ordering was never
 * applied to memory either.
 */
#ifndef NAZAR_PERSIST_WAL_H
#define NAZAR_PERSIST_WAL_H

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "persist/env.h"

namespace nazar::persist {

/** Typed WAL records; the payload format is owned by cloud_persist. */
enum class WalRecordType : uint8_t {
    kIngest = 1,      ///< One drift-log ingest (+ optional upload/dedup).
    kCycleCommit = 2, ///< One completed runCycle: publishes + counters.
    kFlush = 3,       ///< Baseline window flush: buffers cleared.
    kRegistryGc = 4,  ///< Registry eviction of versions below a floor.
};

/**
 * One decoded record, as returned by scan() / replay. The payload is
 * a view into its owner's bytes, never a copy: a WalScan's `bytes`, a
 * Wal's recovered file until dropRecords(), or a loaded chain file
 * (decodeDeltaRecords). It is valid while that owner is.
 */
struct WalRecord
{
    WalRecordType type;
    uint64_t seq = 0;
    std::string_view payload;
};

/** Result of scanning a WAL file without opening it for append. */
struct WalScan
{
    /** The file as read; `records` view into it (move-only, and a
     *  move keeps the views valid). */
    FileBytes bytes;
    std::vector<WalRecord> records;
    uint64_t truncatedBytes = 0; ///< Torn-tail bytes dropped (0 = clean).
    bool validHeader = false;
    /**
     * The file exists but could not be read (open failure other than
     * ENOENT, or a read error such as EISDIR/EIO). The scan result is
     * then meaningless and the file must not be overwritten.
     */
    bool unreadable = false;
};

/**
 * How append() makes a record durable.
 *
 * kFlush (the default) only pushes stdio buffers into the page cache —
 * enough for the process-kill fault model (FaultKind::kCrash), but
 * not for power loss. kFdatasync/kFsync add a real
 * fdatasync(2)/fsync(2) per sync() call; group commit (see
 * appendBuffered) amortizes that cost over a batch.
 */
enum class SyncMode : uint8_t {
    kFlush = 0,
    kFdatasync = 1,
    kFsync = 2,
};

/** Parse "flush" / "fdatasync" / "fsync"; throws NazarError otherwise. */
SyncMode syncModeFromString(const std::string &name);

/** Name for a SyncMode (inverse of syncModeFromString). */
const char *syncModeName(SyncMode mode);

/** Append-only WAL file handle. */
class Wal
{
  public:
    /**
     * Open (creating if absent) the WAL at @p path. Scans existing
     * records, truncates any torn tail, and positions for append.
     * Recovered records are available via records() until
     * dropRecords() frees them. An *unreadable* existing file (open
     * or read failure that isn't ENOENT) throws NazarError instead of
     * being clobbered with a fresh header.
     *
     * All file I/O is routed through @p env (sites "env.wal.open",
     * "env.wal.write", "env.wal.sync", "env.wal.truncate",
     * "env.wal.dirsync"); when null the Wal owns a fault-free Env.
     */
    explicit Wal(const std::filesystem::path &path,
                 SyncMode sync = SyncMode::kFlush, Env *env = nullptr);
    ~Wal();

    Wal(const Wal &) = delete;
    Wal &operator=(const Wal &) = delete;

    /**
     * Append one record durably (write + sync) and return its seq. A
     * crash at "env.wal.write" leaves a torn prefix of the record (the
     * operation is NOT durable); one at "env.wal.sync" fires after the
     * full record is on disk (the operation IS durable, the in-memory
     * apply was lost).
     */
    uint64_t append(WalRecordType type, const std::string &payload);

    /**
     * Group commit: append one record into the stdio buffer WITHOUT
     * syncing, and return its seq. The record is not durable until
     * the next sync(); a crash in between leaves at most a torn tail,
     * which the open-time scan truncates.
     */
    uint64_t appendBuffered(WalRecordType type, const std::string &payload);

    /**
     * Make every buffered append durable: one flush (plus one
     * fdatasync/fsync when the mode asks for it) for the whole batch.
     * append() is exactly appendBuffered() + sync().
     */
    void sync();

    SyncMode syncMode() const { return sync_; }

    /**
     * Drop all records: truncate the file back to the bare header.
     * The seq counter keeps counting — snapshots rely on seq being
     * unique across the whole history. A crash at "env.wal.dirsync"
     * fires after the truncation took effect.
     */
    void truncateAll();

    /** Records recovered at open time (seq > any snapshot's cut);
     *  their payloads view the file bytes read at open. */
    const std::vector<WalRecord> &records() const { return records_; }

    /** Free the recovered records, and the bytes they view, once
     *  replay has consumed them. */
    void
    dropRecords()
    {
        records_.clear();
        records_.shrink_to_fit();
        recoveredBytes_ = FileBytes{};
    }

    /** Torn-tail bytes truncated at open (0 when the shutdown was clean). */
    uint64_t truncatedBytes() const { return truncatedBytes_; }

    /** Next sequence number that append() would assign. */
    uint64_t nextSeq() const { return nextSeq_; }

    /** Last appended/recovered seq (0 when the log is empty). */
    uint64_t lastSeq() const { return nextSeq_ == 1 ? 0 : nextSeq_ - 1; }

    /**
     * After a snapshot recorded lastWalSeq, seed the counter so new
     * appends continue above it even though the file was truncated.
     */
    void bumpSeqPast(uint64_t last_seq);

    const std::filesystem::path &path() const { return path_; }

    /**
     * True once any I/O through the Env failed (the fsync gate): the
     * log is poisoned, every mutating call throws DiskFault, and the
     * owner must recover from the last durable state by rebuilding.
     */
    bool diskFaulted() const { return env_->faulted(); }

    /** Site of the latched disk fault ("" when healthy). */
    std::string diskFaultSite() const { return env_->faultSite(); }

    Env &env() { return *env_; }

    /** Read-only scan (used by `nazar_ops wal` and recovery). */
    static WalScan scan(const std::filesystem::path &path);

    static constexpr char kMagic[8] = {'N', 'Z', 'W', 'A', 'L', '1', 0, 0};

  private:
    /** Env sync depth for the configured mode (0/1/2). */
    int syncDepth() const;

    /** Parent directory for dirsync ("." for bare filenames). */
    std::filesystem::path parentDir() const;

    std::filesystem::path path_;
    std::unique_ptr<Env> ownedEnv_; ///< Set when no Env was supplied.
    Env *env_ = nullptr;
    Env::File *file_ = nullptr;
    SyncMode sync_ = SyncMode::kFlush;
    uint64_t nextSeq_ = 1;
    uint64_t truncatedBytes_ = 0;
    FileBytes recoveredBytes_; ///< The file read at open; records_ view it.
    std::vector<WalRecord> records_;
};

} // namespace nazar::persist

#endif // NAZAR_PERSIST_WAL_H
