#include "persist/snapshot.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "obs/metrics.h"

namespace nazar::persist {

namespace fs = std::filesystem;

namespace {

constexpr char kChainMagic[8] = {'N', 'Z', 'C', 'H', 'N', '1', 0, 0};

/** Closes an Env file on scope exit (fault paths must not leak). */
struct FileGuard
{
    Env &env;
    Env::File *f;

    ~FileGuard()
    {
        if (f != nullptr)
            env.close(f);
    }

    void
    closeNow()
    {
        env.close(f);
        f = nullptr;
    }
};

/**
 * The rename-on-commit sequence every chain file uses: write
 * @p bytes to @p tmp, fsync it, rename onto @p final, fsync the
 * directory. Without the two fsyncs a "committed" file can be empty
 * or missing after power loss — the Env's kLostFile / kLostRename
 * faults regression-test exactly that. A crash before the rename
 * leaves a torn or complete tmp that recovery never reads (the next
 * open removes it); one after it leaves the snapshot committed but
 * the WAL untruncated, and replay skips records with seq <=
 * lastWalSeq, so nothing is double-applied.
 */
void
writeFileAtomic(const fs::path &tmp, const fs::path &final,
                const std::string &bytes, Env &env)
{
    FileGuard guard{env, env.open("env.snap.create", tmp, "wb")};
    env.write("env.snap.write", guard.f, bytes.data(), bytes.size());
    // fsync BEFORE the rename: the commit must never point at data
    // pages that were still dirty when the name changed.
    env.sync("env.snap.sync", guard.f, /*deep=*/2);
    guard.closeNow();

    env.rename("env.snap.rename", tmp, final); // commit point
    fs::path parent = final.parent_path();
    env.syncDir("env.snap.dirsync",
                parent.empty() ? fs::path(".") : parent);
    obs::Registry::global().counter("persist.snapshot.writes").add(1);
    obs::Registry::global()
        .counter("persist.snapshot.bytes")
        .add(bytes.size());
}

} // namespace

bool
DedupWindow::accept(uint64_t seq, size_t capacity)
{
    // In-order fast path (nearly every seq): above everything retained,
    // so neither a duplicate nor below the floor, and it goes at the
    // back without a search.
    if (seen.empty() ? seq >= floor : seq > seen.back()) {
        seen.push_back(seq);
    } else {
        auto it = std::lower_bound(seen.begin(), seen.end(), seq);
        if (seq < floor || (it != seen.end() && *it == seq))
            return false;
        seen.insert(it, seq);
    }
    while (seen.size() > capacity) {
        floor = seen.front() + 1;
        seen.pop_front();
    }
    return true;
}

std::string
encodeSnapshot(const SnapshotData &data)
{
    Writer w;
    w.putU64(data.lastWalSeq);
    w.putI64(data.logicalTime);
    w.putI64(data.nextVersionId);
    w.putU64(data.totalIngested);
    w.putU64(data.dedupHits);
    putDriftLog(w, data.driftLog);
    w.putU64(data.uploads.size());
    for (const auto &up : data.uploads)
        putUpload(w, up);
    w.putU64(data.dedup.size());
    for (const auto &[device, window] : data.dedup) {
        w.putI64(device);
        w.putU64(window.floor);
        w.putU64(window.seen.size());
        for (uint64_t seq : window.seen)
            w.putU64(seq);
    }
    w.putU64(data.blobs.size());
    for (const auto &[key, blob] : data.blobs) {
        w.putString(key);
        w.putString(blob);
    }
    w.putBool(data.cleanPatchText.has_value());
    if (data.cleanPatchText.has_value()) {
        w.putString(*data.cleanPatchText);
        w.putI64(data.cleanPatchTime);
    }
    return w.take();
}

SnapshotData
decodeSnapshot(std::string_view payload, bool build_pending)
{
    Reader r(payload);
    SnapshotData data;
    data.lastWalSeq = r.getU64();
    data.logicalTime = r.getI64();
    data.nextVersionId = r.getI64();
    data.totalIngested = r.getU64();
    data.dedupHits = r.getU64();
    if (build_pending)
        data.driftLog = getDriftLog(r);
    else
        skipDriftLog(r);
    uint64_t uploads = r.getU64();
    for (uint64_t i = 0; i < uploads; ++i) {
        if (build_pending)
            data.uploads.push_back(getUpload(r));
        else
            skipUpload(r);
    }
    uint64_t devices = r.getU64();
    for (uint64_t i = 0; i < devices; ++i) {
        int64_t device = r.getI64();
        DedupWindow window;
        window.floor = r.getU64();
        uint64_t seen = r.getU64();
        NAZAR_CHECK(seen <= r.remaining() / 8,
                    "persist: dedup window exceeds snapshot");
        for (uint64_t s = 0; s < seen; ++s) {
            uint64_t seq = r.getU64();
            // The live window binary-searches `seen`: adopt only a
            // strictly ascending window at or above its floor.
            NAZAR_CHECK(seq >= window.floor &&
                            (window.seen.empty() ||
                             seq > window.seen.back()),
                        "persist: dedup window not strictly ascending "
                        "above its floor");
            window.seen.push_back(seq);
        }
        data.dedup.emplace(device, std::move(window));
    }
    uint64_t blobs = r.getU64();
    for (uint64_t i = 0; i < blobs; ++i) {
        std::string key = r.getString();
        std::string blob = r.getString();
        data.blobs.emplace_back(std::move(key), std::move(blob));
    }
    if (r.getBool()) {
        data.cleanPatchText = r.getString();
        data.cleanPatchTime = r.getI64();
    }
    NAZAR_CHECK(r.atEnd(), "persist: trailing bytes in snapshot payload");
    return data;
}

std::string
chainFileName(uint64_t id, ChainKind kind)
{
    std::string digits = std::to_string(id);
    if (digits.size() < 6)
        digits.insert(0, 6 - digits.size(), '0');
    return "snap-" + digits +
           (kind == ChainKind::kFull ? ".full" : ".delta");
}

std::optional<std::pair<uint64_t, ChainKind>>
parseChainFileName(const std::string &name)
{
    std::string stem;
    ChainKind kind;
    if (name.size() > 5 && name.substr(name.size() - 5) == ".full") {
        stem = name.substr(0, name.size() - 5);
        kind = ChainKind::kFull;
    } else if (name.size() > 6 &&
               name.substr(name.size() - 6) == ".delta") {
        stem = name.substr(0, name.size() - 6);
        kind = ChainKind::kDelta;
    } else {
        return std::nullopt;
    }
    if (stem.size() < 6 || stem.substr(0, 5) != "snap-")
        return std::nullopt;
    uint64_t id = 0;
    for (size_t i = 5; i < stem.size(); ++i) {
        if (stem[i] < '0' || stem[i] > '9')
            return std::nullopt;
        id = id * 10 + static_cast<uint64_t>(stem[i] - '0');
    }
    return std::make_pair(id, kind);
}

uint32_t
writeChainFile(const fs::path &dir, ChainHeader header,
               const std::string &payload, Env &env)
{
    header.payloadCrc = crc32(payload.data(), payload.size());

    Writer w;
    w.putBytes(kChainMagic, sizeof(kChainMagic));
    w.putU8(static_cast<uint8_t>(header.kind));
    w.putU64(header.id);
    w.putU64(header.baseId);
    w.putU32(header.baseCrc);
    w.putU64(header.lastWalSeq);
    w.putU64(payload.size());
    w.putU32(header.payloadCrc);
    w.putBytes(payload.data(), payload.size());

    std::string name = chainFileName(header.id, header.kind);
    writeFileAtomic(dir / (name + ".tmp"), dir / name, w.bytes(), env);
    return header.payloadCrc;
}

std::optional<ChainFile>
loadChainFile(const fs::path &path)
{
    FileBytes file = mapFile(path);
    const std::string_view bytes = file.view();
    constexpr size_t kHeaderSize = sizeof(kChainMagic) + 1 + 8 + 8 + 4 +
                                   8 + 8 + 4;
    if (file.unreadable || bytes.size() < kHeaderSize ||
        std::memcmp(bytes.data(), kChainMagic, sizeof(kChainMagic)) != 0)
        return std::nullopt;
    try {
        Reader r(bytes.data() + sizeof(kChainMagic),
                 kHeaderSize - sizeof(kChainMagic));
        ChainFile out;
        uint8_t kind = r.getU8();
        if (kind != static_cast<uint8_t>(ChainKind::kFull) &&
            kind != static_cast<uint8_t>(ChainKind::kDelta))
            return std::nullopt;
        out.header.kind = static_cast<ChainKind>(kind);
        out.header.id = r.getU64();
        out.header.baseId = r.getU64();
        out.header.baseCrc = r.getU32();
        out.header.lastWalSeq = r.getU64();
        uint64_t len = r.getU64();
        out.header.payloadCrc = r.getU32();
        if (bytes.size() - kHeaderSize != len)
            return std::nullopt; // torn or trailing garbage
        if (crc32(bytes.data() + kHeaderSize,
                  static_cast<size_t>(len)) != out.header.payloadCrc)
            return std::nullopt;
        out.payload = bytes.substr(kHeaderSize);
        out.bytes = std::move(file);
        return out;
    } catch (const NazarError &) {
        return std::nullopt;
    }
}

} // namespace nazar::persist
