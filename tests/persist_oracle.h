/**
 * @file
 * Plain reference implementations for the durability tests: a CRC32
 * computed one bit at a time, the std::set dedup window, the
 * materializing kIngest decode, and a recovery that replays every
 * record of the snapshot chain and the live WAL and materializes
 * every row (no skip rule), built on the public decoders only.
 * test_persist compares persist::crc32 (every host kernel),
 * DedupWindow::accept and persist::recoverDir with them, and
 * test_diskfault persist::viewIngest with decodeIngest.
 */
#ifndef NAZAR_TESTS_PERSIST_ORACLE_H
#define NAZAR_TESTS_PERSIST_ORACLE_H

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "persist/cloud_persist.h"
#include "persist/serial.h"
#include "persist/snapshot.h"
#include "persist/wal.h"

namespace nazar::persist::oracle {

/** CRC32 (reflected 0xEDB88320), one input bit per step. */
inline uint32_t
crc32Bitwise(const void *data, size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    uint32_t crc = 0xFFFFFFFFu;
    for (size_t i = 0; i < len; ++i) {
        crc ^= p[i];
        for (int k = 0; k < 8; ++k)
            crc = (crc & 1) ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
    return crc ^ 0xFFFFFFFFu;
}

/**
 * The per-device dedup window as sim::Cloud kept it before
 * DedupWindow::accept: a std::set of retained seqs plus a floor.
 * Reject when seq < floor or already retained; otherwise insert, then
 * prune the smallest while more than @p capacity are retained.
 */
struct SetDedupWindow
{
    std::set<uint64_t> seen;
    uint64_t floor = 0;

    bool
    accept(uint64_t seq, size_t capacity)
    {
        if (seq < floor || seen.count(seq) > 0)
            return false;
        seen.insert(seq);
        while (seen.size() > capacity) {
            floor = *seen.begin() + 1;
            seen.erase(seen.begin());
        }
        return true;
    }

    uint64_t
    highWater() const
    {
        if (!seen.empty())
            return *seen.rbegin();
        return floor > 0 ? floor - 1 : 0;
    }
};

/**
 * Decode one kIngest payload the materializing way, as recovery did
 * before it decoded records in place: the flags, the device (whose
 * sign must agree with the from-device flag), the seq, then getEntry
 * and getUpload into owned strings and vectors.
 */
inline IngestRecord
decodeIngest(std::string_view payload)
{
    Reader r(payload);
    uint8_t flags = r.getU8();
    IngestRecord rec;
    rec.device = r.getI64();
    NAZAR_CHECK(((flags & 2) != 0) == (rec.device >= 0),
                "oracle: ingest record device flag mismatch");
    rec.seq = r.getU64();
    rec.entry = getEntry(r);
    if (flags & 1)
        rec.upload = getUpload(r);
    return rec;
}

/** Apply one record exactly as written: every row is materialized. */
inline void
applyRecord(RecoveredState &st, const WalRecord &rec, size_t dedup_window)
{
    Reader r(rec.payload);
    switch (rec.type) {
      case WalRecordType::kIngest: {
        IngestRecord in = decodeIngest(rec.payload);
        const int64_t device = in.device;
        const uint64_t seq = in.seq;
        if (device >= 0) {
            DedupWindow &window = st.dedup[device];
            bool seen = std::binary_search(window.seen.begin(),
                                           window.seen.end(), seq);
            if (seq < window.floor || seen) {
                ++st.dedupHits;
                return;
            }
            window.seen.insert(std::upper_bound(window.seen.begin(),
                                                window.seen.end(), seq),
                               seq);
            while (window.seen.size() > dedup_window) {
                window.floor = window.seen.front() + 1;
                window.seen.erase(window.seen.begin());
            }
        }
        st.log.add(in.entry);
        ++st.totalIngested;
        if (in.upload.has_value())
            st.uploads.push_back(std::move(*in.upload));
        return;
      }
      case WalRecordType::kCycleCommit: {
        st.logicalTime = r.getI64();
        st.nextVersionId = r.getI64();
        if (r.getBool()) {
            st.cleanPatchText = r.getString();
            st.cleanPatchTime = r.getI64();
        }
        uint32_t versions = r.getU32();
        for (uint32_t i = 0; i < versions; ++i) {
            std::string id = std::to_string(r.getI64());
            st.blobs.emplace_back("versions/" + id + "/meta",
                                  r.getString());
            st.blobs.emplace_back("versions/" + id + "/patch",
                                  r.getString());
        }
        st.log.clear();
        st.uploads.clear();
        return;
      }
      case WalRecordType::kFlush:
        st.log.clear();
        st.uploads.clear();
        return;
      case WalRecordType::kRegistryGc: {
        int64_t min_id = r.getI64();
        std::erase_if(st.blobs, [min_id](const auto &kv) {
            const std::string &key = kv.first;
            size_t slash = key.find('/', 9);
            if (key.rfind("versions/", 0) != 0 ||
                slash == std::string::npos)
                return false;
            return std::stoll(key.substr(9, slash - 9)) < min_id;
        });
        return;
      }
    }
}

/**
 * Recover @p dir the plain way: load the newest chain head -> full,
 * apply the full snapshot, then every delta record and every live-WAL
 * record above what is already applied, one at a time, in order.
 */
inline RecoveredState
replayAll(const std::filesystem::path &dir, size_t dedup_window)
{
    RecoveredState st;
    std::map<uint64_t, ChainFile> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        auto parsed = parseChainFileName(entry.path().filename().string());
        if (!parsed.has_value())
            continue;
        auto loaded = loadChainFile(entry.path());
        if (loaded.has_value() && loaded->header.id == parsed->first &&
            loaded->header.kind == parsed->second)
            files.emplace(loaded->header.id, std::move(*loaded));
    }
    if (!files.empty()) {
        std::vector<const ChainFile *> chain{&files.rbegin()->second};
        while (chain.back()->header.kind != ChainKind::kFull) {
            auto base = files.find(chain.back()->header.baseId);
            NAZAR_CHECK(base != files.end() &&
                            base->second.header.payloadCrc ==
                                chain.back()->header.baseCrc,
                        "oracle: broken chain");
            chain.push_back(&base->second);
        }
        for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
            const ChainFile &file = **it;
            if (file.header.kind == ChainKind::kFull) {
                SnapshotData snap = decodeSnapshot(file.payload);
                st.lastWalSeq = snap.lastWalSeq;
                st.logicalTime = snap.logicalTime;
                st.nextVersionId = snap.nextVersionId;
                st.totalIngested = snap.totalIngested;
                st.dedupHits = snap.dedupHits;
                st.log = std::move(snap.driftLog);
                st.uploads = std::move(snap.uploads);
                st.dedup = std::move(snap.dedup);
                st.blobs = std::move(snap.blobs);
                st.cleanPatchText = std::move(snap.cleanPatchText);
                st.cleanPatchTime = snap.cleanPatchTime;
            } else {
                for (const WalRecord &rec :
                     decodeDeltaRecords(file.payload)) {
                    if (rec.seq <= st.lastWalSeq)
                        continue;
                    applyRecord(st, rec, dedup_window);
                    st.lastWalSeq = rec.seq;
                }
            }
            st.lastWalSeq = std::max(st.lastWalSeq, file.header.lastWalSeq);
        }
        st.snapshotLoaded = true;
    }
    WalScan scan = Wal::scan(dir / "wal.log");
    st.truncatedBytes = scan.truncatedBytes;
    for (const WalRecord &rec : scan.records) {
        if (rec.seq <= st.lastWalSeq)
            continue;
        applyRecord(st, rec, dedup_window);
        st.lastWalSeq = rec.seq;
        ++st.replayedRecords;
    }
    return st;
}

} // namespace nazar::persist::oracle

#endif // NAZAR_TESTS_PERSIST_ORACLE_H
