/**
 * @file
 * Durable cloud state: the WAL + snapshot orchestrator sim::Cloud
 * plugs into, plus standalone recovery for tools and tests.
 *
 * Protocol (WAL-first):
 *
 *  - Every ingest *attempt* (accepted or deduped) is appended as a
 *    kIngest record before the in-memory apply. Replay re-runs the
 *    dedup logic, so accepted rows, rejected duplicates, and the
 *    per-device windows are all reproduced exactly.
 *  - A completed runCycle appends one atomic kCycleCommit record
 *    carrying the published version blobs, the new counters, and the
 *    clean patch. A cycle whose commit record never landed (torn or
 *    never written) rolls back wholesale on recovery: the claimed
 *    buffers reappear and the cycle re-runs deterministically,
 *    producing identical version ids.
 *  - Baseline flushes append kFlush.
 *  - Every snapshotEvery appends, the full state is snapshotted
 *    (rename-on-commit) and the WAL is truncated; the snapshot's
 *    lastWalSeq makes replay idempotent across every crash point in
 *    that sequence.
 *
 * Determinism contract: with persistence off, Cloud never calls in
 * here. With persistence on and the Env disarmed, no RNG is consumed
 * and no result changes — only files are written.
 */
#ifndef NAZAR_PERSIST_CLOUD_PERSIST_H
#define NAZAR_PERSIST_CLOUD_PERSIST_H

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "driftlog/drift_log.h"
#include "persist/env.h"
#include "persist/snapshot.h"
#include "persist/wal.h"

namespace nazar::persist {

/** Durability configuration (off by default: dir empty). */
struct PersistConfig
{
    /** State directory (wal.log + snapshot chain). Empty = off. */
    std::string dir;
    /** WAL appends between snapshots (0 = snapshot only on demand). */
    uint64_t snapshotEvery = 256;
    /**
     * Every Kth snapshot is a full one; the rest are deltas chained
     * on top of it (1 = always full, the pre-chain behaviour).
     */
    uint64_t fullEvery = 8;
    /**
     * Arm the I/O environment's fault (disarmed by default); a kCrash
     * plan kills the cloud at that site instead.
     */
    DiskFaultPlan fault;
    /**
     * WAL durability: kFlush matches the process-kill fault model;
     * kFdatasync/kFsync survive power loss (group commit amortizes
     * the per-sync cost — see Wal::appendBuffered).
     */
    SyncMode sync = SyncMode::kFlush;

    bool enabled() const { return !dir.empty(); }
};

/** Everything recovery reconstructs from snapshot + WAL replay. */
struct RecoveredState
{
    driftlog::DriftLog log;            ///< Pending (unanalyzed) rows.
    std::vector<UploadRecord> uploads; ///< Pending upload buffer.
    std::map<int64_t, DedupWindow> dedup;
    uint64_t dedupHits = 0;
    uint64_t totalIngested = 0;
    int64_t nextVersionId = 1;
    int64_t logicalTime = 0;
    /** Registry blob store contents, key -> bytes. */
    std::vector<std::pair<std::string, std::string>> blobs;
    std::optional<std::string> cleanPatchText;
    int64_t cleanPatchTime = 0;
    uint64_t lastWalSeq = 0;
    bool snapshotLoaded = false;
    uint64_t replayedRecords = 0; ///< Live-WAL records replayed.
    /**
     * Accepted ingest rows decoded in place (viewIngest: every check,
     * no allocation) and dedup-checked but not materialized, because
     * a later replayed cycle commit or flush clears them anyway.
     */
    uint64_t elidedRows = 0;
    uint64_t truncatedBytes = 0; ///< Torn WAL tail dropped on open.
};

/** The blobs one published version wrote to the registry store. */
struct VersionBlobs
{
    int64_t id = 0;
    std::string meta;
    std::string patch;
};

/**
 * Read-only recovery: load the snapshot chain and replay the WAL.
 * Used by `nazar_ops recover` and by tests. It runs the same replay
 * as CloudPersistence, which differs only in opening the WAL for
 * append (truncating any torn tail) where this one scans it. Throws
 * NazarError on a broken or undecodable chain.
 *
 * @param dedup_window Dedup window size to replay ingests with; must
 *                     match the CloudConfig the WAL was written under.
 */
RecoveredState recoverDir(const std::filesystem::path &dir,
                          size_t dedup_window = 4096);

/**
 * One kIngest payload decoded in place (viewIngest): every field, with
 * the strings and the upload left as views into the payload.
 */
struct IngestView
{
    int64_t device = 0;
    uint64_t seq = 0;
    driftlog::DriftLogEntryView entry;
    /** The upload's encoded bytes (putUpload), already checked;
     *  getUpload over them builds the UploadRecord. */
    std::optional<std::string_view> upload;
};

/**
 * Decode one kIngest payload (CloudPersistence::encodeIngest's bytes)
 * without materializing it: every check the materializing decode runs
 * — bounds, string lengths, Value tags, the feature count, and the
 * device flag against the device's sign — runs here, and nothing is
 * allocated. Throws NazarError on exactly the payloads that decode
 * throws on. The views borrow @p payload.
 */
IngestView viewIngest(std::string_view payload);

/**
 * Encode WAL records as a delta-snapshot payload. A delta archives
 * the live WAL's records (everything since the chain base, because
 * the WAL is truncated at every snapshot) so recovery can replay them
 * through the ordinary WAL machinery.
 */
std::string encodeDeltaRecords(const std::vector<WalRecord> &records);

/**
 * Decode a delta-snapshot payload; throws NazarError on malformed
 * bytes, unknown record types, or non-increasing seqs. The records'
 * payloads view @p payload (no copies).
 */
std::vector<WalRecord> decodeDeltaRecords(std::string_view payload);

/** What `nazar_ops scrub` reports about a state directory. */
struct ScrubReport
{
    bool ok = true; ///< No integrity issues (notes are fine).
    /** Integrity violations: corrupt files, broken chain links. */
    std::vector<std::string> issues;
    /** Benign observations: torn WAL tail, stale leftovers. */
    std::vector<std::string> notes;
    uint64_t walRecords = 0;
    uint64_t walTornBytes = 0;
    uint64_t chainFiles = 0;       ///< Valid chain files present.
    uint64_t chainLength = 0;      ///< Elements in the recovery chain.
    uint64_t chainBytes = 0;       ///< Payload bytes across chain files.
};

/**
 * Offline, read-only integrity walk of a state directory: verifies
 * the WAL's record CRCs and seq monotonicity, every chain file's
 * header + payload CRC, each delta's link to its base (baseId exists,
 * baseCrc matches), and that the recovery chain decodes. Never
 * modifies anything.
 */
ScrubReport scrubStateDir(const std::filesystem::path &dir);

/** Per-state-directory durability engine, owned by sim::Cloud. */
class CloudPersistence
{
  public:
    /**
     * Open (creating if needed) the state directory, recover, and
     * position the WAL for append. @p dedup_window must match the
     * owning cloud's config so replayed ingests dedup identically.
     */
    CloudPersistence(const PersistConfig &config, size_t dedup_window);

    /** State recovered at open; Cloud consumes it in its constructor. */
    RecoveredState &recovered() { return recovered_; }

    /** Free the recovered buffers once the owner has adopted them. */
    void dropRecovered() { recovered_ = RecoveredState{}; }

    /**
     * Encode one ingest attempt as a kIngest payload for
     * logIngestBatch (the trace ids are not written):
     *
     *     [u8 flags: 1 = has upload, 2 = from device]
     *     [i64 device][u64 seq][entry][upload, when present]
     */
    static std::string encodeIngest(const IngestRecord &rec);

    /**
     * Log ingest attempts (WAL-first: call before applying). Group
     * commit: append every payload (from encodeIngest) with ONE sync
     * for the whole batch; a batch of one is exactly a per-record
     * append. A crash mid-batch leaves at most a torn tail; records
     * before the tear replay, the rest were never acknowledged.
     * Callers must serialize against other WAL writers (a persisted
     * Cloud has one writer — see sim::Cloud).
     */
    void logIngestBatch(const std::vector<std::string> &payloads);

    /** Log one committed cycle (call after publishing to the store). */
    void logCycleCommit(int64_t logical_time, int64_t next_version_id,
                        const std::vector<VersionBlobs> &versions,
                        const std::optional<std::string> &clean_patch_text,
                        int64_t clean_patch_time);

    /** Log one baseline flush (buffers cleared without analysis). */
    void logFlush();

    /**
     * Log a registry GC floor: versions with id < @p min_version_id
     * are evicted from the blob store. WAL-first — call before
     * evicting in memory so replay reproduces the eviction.
     */
    void logRegistryGc(int64_t min_version_id);

    /** True when enough appends accumulated to warrant a snapshot. */
    bool snapshotDue() const;

    /**
     * True when the next snapshot must be a full one (no chain yet,
     * or fullEvery deltas would otherwise pile up). The owner then
     * builds a full SnapshotData for writeSnapshot(); otherwise it
     * calls writeDeltaSnapshot(), which needs no state dump at all.
     */
    bool nextSnapshotIsFull() const;

    /**
     * Write a FULL chain snapshot (rename-on-commit), truncate the
     * WAL, and GC every superseded chain file (safety invariant: a
     * committed full IS the whole recovery chain, so everything older
     * is removable). data.lastWalSeq is filled in from the WAL.
     */
    void writeSnapshot(SnapshotData data);

    /**
     * Write a DELTA chain snapshot: archive the live WAL's records
     * (filtered to seqs above the chain head) under a chained header,
     * then truncate the WAL. O(records since last snapshot) — the
     * blob store is not touched.
     */
    void writeDeltaSnapshot();

    /** True once any I/O failed: the fsync gate is latched. */
    bool diskFaulted() const { return env_.faulted(); }

    /** Site of the latched disk fault ("" when healthy). */
    std::string diskFaultSite() const { return env_.faultSite(); }

    Env &env() { return env_; }
    const PersistConfig &config() const { return config_; }
    const Wal &wal() const { return *wal_; }

    /** Appends since the last snapshot (exposed for tests). */
    uint64_t appendsSinceSnapshot() const { return appendsSince_; }

    /** Chain files removed by snapshot GC over this instance's life. */
    uint64_t snapshotGcRemoved() const { return snapshotGcRemoved_; }

    /** Newest chain element id (0 = no chain yet). */
    uint64_t chainHeadId() const { return chainHeadId_; }

  private:
    uint64_t append(WalRecordType type, const std::string &payload);

    /** Unlink chain files older than the head. */
    void gcSupersededChain();

    PersistConfig config_;
    Env env_;
    std::unique_ptr<Wal> wal_;
    RecoveredState recovered_;
    uint64_t appendsSince_ = 0;
    uint64_t chainHeadId_ = 0;
    uint32_t chainHeadCrc_ = 0;
    /** lastWalSeq of the chain head (next delta starts above it). */
    uint64_t chainLastWalSeq_ = 0;
    uint64_t deltasSinceFull_ = 0;
    uint64_t snapshotGcRemoved_ = 0;
};

} // namespace nazar::persist

#endif // NAZAR_PERSIST_CLOUD_PERSIST_H
