#include "persist/cloud_persist.h"

#include <algorithm>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace nazar::persist {

namespace fs = std::filesystem;

namespace {

constexpr uint8_t kFlagHasUpload = 1;
constexpr uint8_t kFlagFromDevice = 2;

std::string
blobKey(int64_t id, const char *kind)
{
    return "versions/" + std::to_string(id) + "/" + kind;
}

/**
 * Replay one ingest attempt through the same DedupWindow::accept as
 * Cloud. The record is decoded in place (viewIngest: every check) and
 * dedup-checked either way; @p materialize false means a later clear
 * discards the row, so an accepted row is only counted. A kept row
 * goes from the payload's views straight into the drift log.
 */
void
replayIngest(RecoveredState &st, std::string_view payload,
             size_t dedup_window, bool materialize)
{
    IngestView in = viewIngest(payload);
    if (in.device >= 0 &&
        !st.dedup[in.device].accept(in.seq, dedup_window)) {
        ++st.dedupHits;
        return;
    }
    ++st.totalIngested;
    if (!materialize) {
        ++st.elidedRows;
        return;
    }
    st.log.add(in.entry);
    if (in.upload.has_value()) {
        Reader r(*in.upload);
        st.uploads.push_back(getUpload(r));
    }
}

void
replayCycleCommit(RecoveredState &st, Reader &r)
{
    st.logicalTime = r.getI64();
    st.nextVersionId = r.getI64();
    if (r.getBool()) {
        st.cleanPatchText = r.getString();
        st.cleanPatchTime = r.getI64();
    }
    uint32_t versions = r.getU32();
    for (uint32_t i = 0; i < versions; ++i) {
        int64_t id = r.getI64();
        st.blobs.emplace_back(blobKey(id, "meta"), r.getString());
        st.blobs.emplace_back(blobKey(id, "patch"), r.getString());
    }
    // The committed cycle archived everything it claimed.
    st.log.clear();
    st.uploads.clear();
}

/** Version id of a "versions/<id>/<kind>" blob key (-1 otherwise). */
int64_t
blobKeyVersion(const std::string &key)
{
    constexpr char kPrefix[] = "versions/";
    constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
    if (key.compare(0, kPrefixLen, kPrefix) != 0)
        return -1;
    size_t slash = key.find('/', kPrefixLen);
    if (slash == std::string::npos || slash == kPrefixLen)
        return -1;
    int64_t id = 0;
    for (size_t i = kPrefixLen; i < slash; ++i) {
        if (key[i] < '0' || key[i] > '9')
            return -1;
        id = id * 10 + (key[i] - '0');
    }
    return id;
}

/** Replay one registry GC: drop blobs below the version floor. */
void
replayRegistryGc(RecoveredState &st, Reader &r)
{
    int64_t min_id = r.getI64();
    std::erase_if(st.blobs, [min_id](const auto &kv) {
        int64_t id = blobKeyVersion(kv.first);
        return id >= 0 && id < min_id;
    });
}

void
applyWalRecord(RecoveredState &st, const WalRecord &rec,
               size_t dedup_window, bool materialize)
{
    Reader r(rec.payload);
    switch (rec.type) {
      case WalRecordType::kIngest:
        replayIngest(st, rec.payload, dedup_window, materialize);
        break;
      case WalRecordType::kCycleCommit:
        replayCycleCommit(st, r);
        break;
      case WalRecordType::kFlush:
        st.log.clear();
        st.uploads.clear();
        break;
      case WalRecordType::kRegistryGc:
        replayRegistryGc(st, r);
        break;
    }
}

void
applySnapshot(RecoveredState &st, SnapshotData &&snap)
{
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
}

/** All valid chain files in @p dir, keyed by id (invalid = absent). */
std::map<uint64_t, ChainFile>
collectChainFiles(const fs::path &dir)
{
    std::map<uint64_t, ChainFile> files;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        auto parsed = parseChainFileName(entry.path().filename().string());
        if (!parsed.has_value())
            continue;
        auto loaded = loadChainFile(entry.path());
        if (!loaded.has_value())
            continue; // torn or corrupt: treated as absent
        if (loaded->header.id != parsed->first ||
            loaded->header.kind != parsed->second)
            continue; // header disagrees with the filename
        files.emplace(loaded->header.id, std::move(*loaded));
    }
    return files;
}

/** What chain recovery tells CloudPersistence about the chain head. */
struct ChainRecovery
{
    bool loaded = false; ///< A chain was applied.
    uint64_t headId = 0;
    uint32_t headCrc = 0;
    uint64_t headLastWalSeq = 0;
    uint64_t deltasSinceFull = 0;
};

/** The newest snapshot chain, validated and decoded. */
struct DecodedChain
{
    ChainRecovery head;
    /** Every valid chain file, by id: the owner of the deltas' views. */
    std::map<uint64_t, ChainFile> files;
    std::optional<SnapshotData> full;
    uint64_t fullLastWalSeq = 0; ///< The full file's header lastWalSeq.
    /** Each delta's records (views into `files`) and header
     *  lastWalSeq, base first. */
    std::vector<std::pair<std::vector<WalRecord>, uint64_t>> deltas;
};

/**
 * Validate and decode the newest snapshot chain in @p dir. A delta
 * whose base is missing or CRC-mismatched is a broken chain, and a
 * payload that fails to decode is corrupt: recovery REFUSES
 * (NazarError) rather than silently adopting stale state — the base
 * provably existed when the delta committed, so its absence means
 * the directory was damaged outside the protocol.
 */
DecodedChain
decodeChain(const fs::path &dir)
{
    DecodedChain out;
    out.files = collectChainFiles(dir);
    const std::map<uint64_t, ChainFile> &files = out.files;
    if (files.empty())
        return out;

    // Walk head -> base until a full snapshot anchors the chain.
    const ChainFile *cur = &files.rbegin()->second;
    out.head.headId = cur->header.id;
    out.head.headCrc = cur->header.payloadCrc;
    out.head.headLastWalSeq = cur->header.lastWalSeq;
    std::vector<const ChainFile *> chain;
    while (true) {
        chain.push_back(cur);
        if (cur->header.kind == ChainKind::kFull)
            break;
        auto base = files.find(cur->header.baseId);
        NAZAR_CHECK(base != files.end(),
                    "recover: snapshot chain broken — " +
                        chainFileName(cur->header.id, cur->header.kind) +
                        " needs missing/corrupt base id " +
                        std::to_string(cur->header.baseId));
        NAZAR_CHECK(base->second.header.payloadCrc == cur->header.baseCrc,
                    "recover: snapshot chain broken — base id " +
                        std::to_string(cur->header.baseId) +
                        " does not match the CRC its delta recorded");
        cur = &base->second;
    }
    out.head.deltasSinceFull = chain.size() - 1;
    out.full = decodeSnapshot(chain.back()->payload);
    out.fullLastWalSeq = chain.back()->header.lastWalSeq;
    for (auto it = chain.rbegin() + 1; it != chain.rend(); ++it)
        out.deltas.emplace_back(decodeDeltaRecords((*it)->payload),
                                (*it)->header.lastWalSeq);
    out.head.loaded = true;
    return out;
}

/**
 * The one recovery path: decode the snapshot chain, then call
 * @p open_wal(lastChainSeq) for the live WAL's records, then replay
 * the full snapshot, every record above it and every WAL record
 * above the chain, in seq order. The WAL is opened only after the
 * chain validated, so a refused recovery leaves wal.log (and its torn
 * tail) untouched.
 *
 * Skip rule: an ingest below the seq of the last kCycleCommit/kFlush
 * among the replayed records is still decoded, dedup-checked and
 * counted, but not materialized — that clear empties the log and the
 * upload buffer, so the result is the same.
 */
template <typename OpenWal>
ChainRecovery
recoverInto(RecoveredState &st, const fs::path &dir,
            size_t dedup_window, OpenWal &&open_wal)
{
    DecodedChain chain;
    {
        NAZAR_SPAN("persist.recover.chain");
        chain = decodeChain(dir);
    }
    NAZAR_SPAN("persist.recover.replay");
    // Select what to replay, in seq order: each element contributes
    // the records above everything before it.
    std::vector<const WalRecord *> plan;
    uint64_t cut = 0;
    auto take = [&plan, &cut](const std::vector<WalRecord> &records) {
        for (const WalRecord &rec : records) {
            if (rec.seq <= cut)
                continue; // already inside an earlier element
            plan.push_back(&rec);
            cut = rec.seq;
        }
    };
    if (chain.full.has_value())
        cut = std::max(chain.full->lastWalSeq, chain.fullLastWalSeq);
    for (const auto &[records, last_seq] : chain.deltas) {
        take(records);
        cut = std::max(cut, last_seq);
    }
    size_t chain_records = plan.size();
    take(open_wal(cut));
    st.replayedRecords = plan.size() - chain_records;

    uint64_t clear_seq = 0;
    for (const WalRecord *rec : plan)
        if (rec->type == WalRecordType::kCycleCommit ||
            rec->type == WalRecordType::kFlush)
            clear_seq = rec->seq;
    if (chain.full.has_value())
        applySnapshot(st, std::move(*chain.full));
    for (const WalRecord *rec : plan)
        applyWalRecord(st, *rec, dedup_window, rec->seq >= clear_seq);
    st.lastWalSeq = cut;
    st.snapshotLoaded = chain.head.loaded;
    return chain.head;
}

} // namespace

std::string
encodeDeltaRecords(const std::vector<WalRecord> &records)
{
    Writer w;
    w.putU32(static_cast<uint32_t>(records.size()));
    for (const WalRecord &rec : records) {
        w.putU8(static_cast<uint8_t>(rec.type));
        w.putU64(rec.seq);
        w.putString(rec.payload);
    }
    return w.take();
}

std::vector<WalRecord>
decodeDeltaRecords(std::string_view payload)
{
    Reader r(payload);
    uint32_t count = r.getU32();
    std::vector<WalRecord> records;
    // Each record takes at least its type, seq and length prefix.
    records.reserve(std::min<size_t>(count, r.remaining() / 17));
    uint64_t last_seq = 0;
    for (uint32_t i = 0; i < count; ++i) {
        WalRecord rec;
        uint8_t type = r.getU8();
        NAZAR_CHECK(type >= 1 && type <= 4,
                    "persist: unknown record type in delta snapshot");
        rec.type = static_cast<WalRecordType>(type);
        rec.seq = r.getU64();
        NAZAR_CHECK(rec.seq > last_seq,
                    "persist: non-increasing seq in delta snapshot");
        last_seq = rec.seq;
        rec.payload = r.getStringView();
        records.push_back(rec);
    }
    NAZAR_CHECK(r.atEnd(), "persist: trailing bytes in delta snapshot");
    return records;
}

IngestView
viewIngest(std::string_view payload)
{
    Reader r(payload);
    uint8_t flags = r.getU8();
    IngestView in;
    in.device = r.getI64();
    NAZAR_CHECK(((flags & kFlagFromDevice) != 0) == (in.device >= 0),
                "persist: ingest record device flag mismatch");
    in.seq = r.getU64();
    in.entry = getEntryView(r);
    if (flags & kFlagHasUpload) {
        const size_t start = payload.size() - r.remaining();
        skipUpload(r);
        const size_t end = payload.size() - r.remaining();
        in.upload = payload.substr(start, end - start);
    }
    return in;
}

RecoveredState
recoverDir(const fs::path &dir, size_t dedup_window)
{
    NAZAR_SPAN("persist.recover");
    RecoveredState st;
    WalScan scan;
    recoverInto(st, dir, dedup_window,
                [&](uint64_t) -> const std::vector<WalRecord> & {
                    scan = Wal::scan(dir / "wal.log");
                    NAZAR_CHECK(!scan.unreadable,
                                "recover: " + (dir / "wal.log").string() +
                                    " exists but cannot be read");
                    st.truncatedBytes = scan.truncatedBytes;
                    return scan.records;
                });
    return st;
}

CloudPersistence::CloudPersistence(const PersistConfig &config,
                                   size_t dedup_window)
    : config_(config)
{
    NAZAR_SPAN("persist.recover");
    NAZAR_CHECK(config_.enabled(),
                "CloudPersistence requires a state directory");
    fs::create_directories(config_.dir);
    env_.arm(config_.fault);

    fs::path dir(config_.dir);
    auto open_wal =
        [&](uint64_t chain_seq) -> const std::vector<WalRecord> & {
        // A crash during a tmp phase leaves snap-*.tmp orphans; they
        // were never committed, so discard them.
        std::error_code ec;
        std::vector<fs::path> orphans;
        for (const auto &entry : fs::directory_iterator(dir, ec)) {
            if (entry.path().extension() == ".tmp")
                orphans.push_back(entry.path());
        }
        for (const auto &orphan : orphans)
            fs::remove(orphan, ec);
        wal_ = std::make_unique<Wal>(dir / "wal.log", config_.sync,
                                     &env_);
        wal_->bumpSeqPast(chain_seq);
        recovered_.truncatedBytes = wal_->truncatedBytes();
        return wal_->records();
    };
    ChainRecovery chain =
        recoverInto(recovered_, dir, dedup_window, open_wal);
    wal_->dropRecords();
    chainHeadId_ = chain.headId;
    chainHeadCrc_ = chain.headCrc;
    chainLastWalSeq_ = chain.headLastWalSeq;
    deltasSinceFull_ = chain.deltasSinceFull;
    obs::Registry &reg = obs::Registry::global();
    if (chain.loaded)
        reg.counter("persist.recover.snapshot_loads").add(1);
    reg.counter("persist.recover.replayed_records")
        .add(recovered_.replayedRecords);
    reg.counter("persist.recover.elided_rows")
        .add(recovered_.elidedRows);
}

uint64_t
CloudPersistence::append(WalRecordType type, const std::string &payload)
{
    uint64_t seq = wal_->append(type, payload);
    ++appendsSince_;
    return seq;
}

std::string
CloudPersistence::encodeIngest(const IngestRecord &rec)
{
    Writer w;
    uint8_t flags = 0;
    if (rec.upload.has_value())
        flags |= kFlagHasUpload;
    if (rec.device >= 0)
        flags |= kFlagFromDevice;
    w.putU8(flags);
    w.putI64(rec.device);
    w.putU64(rec.seq);
    putEntry(w, rec.entry);
    if (rec.upload.has_value())
        putUpload(w, *rec.upload);
    return w.take();
}

void
CloudPersistence::logIngestBatch(const std::vector<std::string> &payloads)
{
    static obs::Counter &group_commits =
        obs::Registry::global().counter("persist.wal.group_commits");
    if (payloads.empty())
        return;
    for (const auto &payload : payloads)
        wal_->appendBuffered(WalRecordType::kIngest, payload);
    wal_->sync();
    appendsSince_ += payloads.size();
    group_commits.add(1);
}

void
CloudPersistence::logCycleCommit(
    int64_t logical_time, int64_t next_version_id,
    const std::vector<VersionBlobs> &versions,
    const std::optional<std::string> &clean_patch_text,
    int64_t clean_patch_time)
{
    Writer w;
    w.putI64(logical_time);
    w.putI64(next_version_id);
    w.putBool(clean_patch_text.has_value());
    if (clean_patch_text.has_value()) {
        w.putString(*clean_patch_text);
        w.putI64(clean_patch_time);
    }
    w.putU32(static_cast<uint32_t>(versions.size()));
    for (const auto &v : versions) {
        w.putI64(v.id);
        w.putString(v.meta);
        w.putString(v.patch);
    }
    append(WalRecordType::kCycleCommit, w.bytes());
}

void
CloudPersistence::logFlush()
{
    append(WalRecordType::kFlush, std::string());
}

void
CloudPersistence::logRegistryGc(int64_t min_version_id)
{
    Writer w;
    w.putI64(min_version_id);
    append(WalRecordType::kRegistryGc, w.bytes());
}

bool
CloudPersistence::snapshotDue() const
{
    return config_.snapshotEvery > 0 &&
           appendsSince_ >= config_.snapshotEvery;
}

bool
CloudPersistence::nextSnapshotIsFull() const
{
    return chainHeadId_ == 0 || config_.fullEvery <= 1 ||
           deltasSinceFull_ + 1 >= config_.fullEvery;
}

void
CloudPersistence::writeSnapshot(SnapshotData data)
{
    NAZAR_SPAN("persist.snapshot");
    data.lastWalSeq = wal_->lastSeq();
    ChainHeader header;
    header.kind = ChainKind::kFull;
    header.id = chainHeadId_ + 1;
    header.lastWalSeq = data.lastWalSeq;
    chainHeadCrc_ = writeChainFile(fs::path(config_.dir), header,
                                   encodeSnapshot(data), env_);
    chainHeadId_ = header.id;
    chainLastWalSeq_ = data.lastWalSeq;
    deltasSinceFull_ = 0;
    wal_->truncateAll();
    appendsSince_ = 0;
    gcSupersededChain();
}

void
CloudPersistence::writeDeltaSnapshot()
{
    NAZAR_SPAN("persist.snapshot_delta");
    NAZAR_ASSERT(chainHeadId_ != 0,
                 "delta snapshot without a chain base");
    // Every append path syncs before returning, so the on-disk WAL
    // holds exactly the records since the last truncation. Filter to
    // seqs above the chain head: a crash between a snapshot's rename
    // and its WAL truncation legitimately leaves older records behind.
    WalScan scan = Wal::scan(wal_->path());
    std::erase_if(scan.records, [this](const WalRecord &rec) {
        return rec.seq <= chainLastWalSeq_;
    });
    const std::vector<WalRecord> &records = scan.records;
    uint64_t last_seq = wal_->lastSeq();
    ChainHeader header;
    header.kind = ChainKind::kDelta;
    header.id = chainHeadId_ + 1;
    header.baseId = chainHeadId_;
    header.baseCrc = chainHeadCrc_;
    header.lastWalSeq = last_seq;
    chainHeadCrc_ =
        writeChainFile(fs::path(config_.dir), header,
                       encodeDeltaRecords(records), env_);
    chainHeadId_ = header.id;
    chainLastWalSeq_ = last_seq;
    ++deltasSinceFull_;
    wal_->truncateAll();
    appendsSince_ = 0;
}

void
CloudPersistence::gcSupersededChain()
{
    // Safety invariant: only called right after a FULL snapshot
    // committed, so the recovery chain is exactly {chainHeadId_} and
    // every older chain file is superseded. Unlinks are best-effort:
    // a survivor is harmless (recovery picks the newest chain) and
    // must not poison the log.
    fs::path dir(config_.dir);
    std::error_code ec;
    std::vector<fs::path> victims;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        auto parsed =
            parseChainFileName(entry.path().filename().string());
        if (parsed.has_value() && parsed->first < chainHeadId_)
            victims.push_back(entry.path());
    }
    uint64_t removed = 0;
    for (const auto &victim : victims) {
        if (env_.remove("env.snap.unlink", victim))
            ++removed;
    }
    snapshotGcRemoved_ += removed;
    if (removed > 0)
        obs::Registry::global()
            .counter("persist.snapshot.gc_removed")
            .add(removed);
}

ScrubReport
scrubStateDir(const fs::path &dir)
{
    ScrubReport report;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) {
        report.ok = false;
        report.issues.push_back("not a directory: " + dir.string());
        return report;
    }

    // --- WAL: header, per-record CRC + seq monotonicity -------------
    fs::path wal_path = dir / "wal.log";
    if (fs::exists(wal_path, ec)) {
        WalScan scan = Wal::scan(wal_path);
        if (scan.unreadable) {
            report.ok = false;
            report.issues.push_back("wal.log exists but is unreadable");
        } else if (!scan.validHeader) {
            report.ok = false;
            report.issues.push_back("wal.log has no valid header");
        } else {
            report.walRecords = scan.records.size();
            report.walTornBytes = scan.truncatedBytes;
            if (scan.truncatedBytes > 0)
                report.notes.push_back(
                    "wal.log has a torn tail of " +
                    std::to_string(scan.truncatedBytes) +
                    " bytes (recovery truncates it)");
        }
    } else {
        report.notes.push_back("no wal.log (fresh or empty state dir)");
    }

    // --- chain files: magic, CRC, filename/header agreement --------
    std::map<uint64_t, ChainFile> valid;
    std::vector<std::string> names;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        std::string name = entry.path().filename().string();
        auto parsed = parseChainFileName(name);
        if (!parsed.has_value())
            continue;
        auto loaded = loadChainFile(entry.path());
        if (!loaded.has_value()) {
            report.ok = false;
            report.issues.push_back("corrupt chain file: " + name);
            continue;
        }
        if (loaded->header.id != parsed->first ||
            loaded->header.kind != parsed->second) {
            report.ok = false;
            report.issues.push_back(
                "chain file header disagrees with filename: " + name);
            continue;
        }
        ++report.chainFiles;
        report.chainBytes += loaded->payload.size();
        names.push_back(name);
        valid.emplace(loaded->header.id, std::move(*loaded));
    }

    // --- recovery chain: head -> full, links pinned by CRC ----------
    if (!valid.empty()) {
        const ChainFile *cur = &valid.rbegin()->second;
        uint64_t chain_last_seq = cur->header.lastWalSeq;
        while (true) {
            ++report.chainLength;
            try {
                if (cur->header.kind == ChainKind::kFull)
                    decodeSnapshot(cur->payload);
                else
                    decodeDeltaRecords(cur->payload);
            } catch (const NazarError &e) {
                report.ok = false;
                report.issues.push_back(
                    "chain payload fails to decode (id " +
                    std::to_string(cur->header.id) + "): " + e.what());
            }
            if (cur->header.kind == ChainKind::kFull)
                break;
            auto base = valid.find(cur->header.baseId);
            if (base == valid.end()) {
                report.ok = false;
                report.issues.push_back(
                    "chain link broken: id " +
                    std::to_string(cur->header.id) +
                    " needs missing/corrupt base id " +
                    std::to_string(cur->header.baseId));
                break;
            }
            if (base->second.header.payloadCrc != cur->header.baseCrc) {
                report.ok = false;
                report.issues.push_back(
                    "chain link CRC mismatch: id " +
                    std::to_string(cur->header.id) + " expects base " +
                    std::to_string(cur->header.baseId) +
                    " with a different payload CRC");
                break;
            }
            cur = &base->second;
        }
        if (report.chainLength < valid.size())
            report.notes.push_back(
                std::to_string(valid.size() - report.chainLength) +
                " superseded chain file(s) awaiting GC");
        if (report.walRecords > 0 && report.ok) {
            WalScan scan = Wal::scan(wal_path);
            uint64_t stale = 0;
            for (const auto &rec : scan.records)
                if (rec.seq <= chain_last_seq)
                    ++stale;
            if (stale > 0)
                report.notes.push_back(
                    std::to_string(stale) +
                    " WAL record(s) already inside the snapshot chain "
                    "(crash before truncation; replay skips them)");
        }
    }

    return report;
}

} // namespace nazar::persist
