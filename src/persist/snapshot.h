/**
 * @file
 * Checksummed snapshot chain of the cloud state, committed by atomic
 * rename.
 *
 * A full snapshot is the whole cloud state at a safe point: the
 * pending drift log (as its dictionary-encoded columns), upload
 * buffer, per-device dedup windows, the registry's blob store,
 * counters and the last published clean patch, plus `lastWalSeq`, the
 * highest WAL sequence number it already includes. Recovery replays
 * only records with seq > lastWalSeq, so a crash between a snapshot's
 * rename and the WAL truncation cannot double-apply.
 */
#ifndef NAZAR_PERSIST_SNAPSHOT_H
#define NAZAR_PERSIST_SNAPSHOT_H

#include <cstdint>
#include <deque>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "persist/env.h"
#include "persist/serial.h"

namespace nazar::persist {

/**
 * One device's dedup window: the only dedup logic, shared by the live
 * cloud (Cloud::ingestBatchFrom) and WAL replay, so both reproduce the
 * same verdicts and the same window.
 */
struct DedupWindow
{
    /** Everything below this was pruned from the window and is
     *  assumed already ingested (conservative: rejected). */
    uint64_t floor = 0;
    /** Sequence numbers still retained, strictly ascending and all
     *  >= floor. A deque: pruning pops the front in O(1). */
    std::deque<uint64_t> seen;

    bool operator==(const DedupWindow &other) const = default;

    /**
     * Run @p seq through the window. Returns false on a duplicate
     * (below the floor or already seen); otherwise admits it, then
     * prunes the oldest seqs (raising the floor past them) while more
     * than @p capacity are retained.
     */
    bool accept(uint64_t seq, size_t capacity);

    /**
     * Highest sequence number this window accounts for: with
     * per-device monotone send order, every seq <= highWater() has
     * been ingested (or dedup-rejected as already ingested). This is
     * the resume line the ingest server reports to reconnecting
     * clients.
     */
    uint64_t highWater() const
    {
        if (!seen.empty())
            return seen.back();
        return floor > 0 ? floor - 1 : 0;
    }
};

/** Everything a full snapshot captures. */
struct SnapshotData
{
    uint64_t lastWalSeq = 0; ///< Highest WAL seq already included.
    int64_t logicalTime = 0;
    int64_t nextVersionId = 1;
    uint64_t totalIngested = 0;
    uint64_t dedupHits = 0;
    driftlog::DriftLog driftLog; ///< Pending (unanalyzed) rows.
    std::vector<UploadRecord> uploads;
    std::map<int64_t, DedupWindow> dedup;
    /** Registry blob store, key -> bytes, sorted by key. */
    std::vector<std::pair<std::string, std::string>> blobs;
    std::optional<std::string> cleanPatchText; ///< BnPatch::save text.
    int64_t cleanPatchTime = 0; ///< logicalTime that produced it.
};

/**
 * Encode the payload bytes (no header/CRC — the chain writer adds it):
 *
 *     [u64 lastWalSeq][i64 logicalTime][i64 nextVersionId]
 *     [u64 totalIngested][u64 dedupHits]
 *     [drift log: putDriftLog's column layout]
 *     [u64 uploads][putUpload...]
 *     [u64 devices][per device: i64 id, u64 floor, u64 n, n x u64 seq]
 *     [u64 blobs][per blob: string key, string bytes]
 *     [bool hasCleanPatch][string text, i64 time]
 */
std::string encodeSnapshot(const SnapshotData &data);

/**
 * Decode a payload; throws NazarError on malformed bytes, including
 * any drift-log column that breaks the dictionary invariant and the
 * retired CSV-carrying payload (whose CSV length reads as a wrong
 * column count).
 *
 * With @p build_pending false, the pending drift log and the upload
 * buffer are checked as they are when built (skipDriftLog, skipUpload)
 * but left empty: recovery passes false when a replayed cycle commit
 * or flush clears them anyway. It throws on exactly the payloads the
 * building decode throws on.
 */
SnapshotData decodeSnapshot(std::string_view payload,
                            bool build_pending = true);

// ---- incremental snapshot chain ------------------------------------
//
// Full-state snapshots don't scale: the blob store alone makes every
// snapshot O(published versions). Instead snapshots form a *chain*:
// a full file every K-th snapshot, delta files in between. A delta
// archives the WAL records since the previous chain element (the WAL
// is truncated at every snapshot, so at snapshot time it holds
// exactly that delta), and links to its base by (baseId, baseCrc).
// Recovery loads the newest full, replays each delta's records in id
// order through the ordinary WAL replay, then replays the live WAL.
// Ingest records below the last cycle commit or flush among those
// replayed records are decoded, dedup-checked and counted, but their
// rows and uploads are not materialized: that clear discards them.
//
// On-disk layout (file "snap-<id, 6 digits>.full" / ".delta"):
//
//     [8-byte magic "NZCHN1\0\0"][u8 kind][u64 id][u64 baseId]
//     [u32 baseCrc][u64 lastWalSeq][u64 payloadLen]
//     [u32 crc32(payload)][payload]
//
// kind 1 = full (payload = encodeSnapshot bytes; baseId/baseCrc 0),
// kind 2 = delta (payload = encodeDeltaRecords bytes; baseCrc is the
// payload CRC of the base file, pinning the chain link).

enum class ChainKind : uint8_t {
    kFull = 1,
    kDelta = 2,
};

/** Parsed header of one chain file. */
struct ChainHeader
{
    ChainKind kind = ChainKind::kFull;
    uint64_t id = 0;
    uint64_t baseId = 0;     ///< 0 for full snapshots.
    uint32_t baseCrc = 0;    ///< Payload CRC of the base; 0 for full.
    uint64_t lastWalSeq = 0; ///< Highest WAL seq this element includes.
    uint32_t payloadCrc = 0;
};

/**
 * One loaded chain file: the file's bytes as mapped (mapFile), and its
 * payload as a view past the header into them. Move-only; the payload
 * (and every WalRecord decodeDeltaRecords returns over it) is valid
 * while the ChainFile is.
 */
struct ChainFile
{
    ChainHeader header;
    FileBytes bytes;
    std::string_view payload;
};

/** "snap-000042.full" / "snap-000042.delta". */
std::string chainFileName(uint64_t id, ChainKind kind);

/** Parse a chain filename; nullopt when @p name is not a chain file. */
std::optional<std::pair<uint64_t, ChainKind>>
parseChainFileName(const std::string &name);

/**
 * Write one chain element into @p dir (tmp + fsync + rename + dir
 * fsync; all I/O goes through @p env's "env.snap.*" sites, so crashes
 * at "env.snap.write", "env.snap.sync" and "env.snap.dirsync" cover
 * the torn-tmp, complete-tmp and committed-but-WAL-untruncated
 * windows). @p header.payloadCrc is computed here and the final value
 * returned, so the caller can link the next delta to it.
 */
uint32_t writeChainFile(const std::filesystem::path &dir,
                        ChainHeader header, const std::string &payload,
                        Env &env);

/**
 * Load one chain file: the whole file mapped once (mapFile), then the
 * header and the payload CRC are checked in place. Returns nullopt when
 * absent, torn, or failing its checksum — the caller treats the
 * element as missing.
 */
std::optional<ChainFile>
loadChainFile(const std::filesystem::path &path);

} // namespace nazar::persist

#endif // NAZAR_PERSIST_SNAPSHOT_H
