#include "persist/env.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.h"
#include "obs/metrics.h"

namespace nazar::persist {

namespace fs = std::filesystem;

FaultKind
faultKindFromString(const std::string &name)
{
    if (name == "none")
        return FaultKind::kNone;
    if (name == "short_write")
        return FaultKind::kShortWrite;
    if (name == "enospc")
        return FaultKind::kEnospc;
    if (name == "eio")
        return FaultKind::kEio;
    if (name == "sync_fail")
        return FaultKind::kSyncFail;
    if (name == "lost_rename")
        return FaultKind::kLostRename;
    if (name == "lost_file")
        return FaultKind::kLostFile;
    if (name == "crash")
        return FaultKind::kCrash;
    throw NazarError("unknown fault kind '" + name +
                     "' (expected none|short_write|enospc|eio|"
                     "sync_fail|lost_rename|lost_file|crash)");
}

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
    case FaultKind::kNone:
        return "none";
    case FaultKind::kShortWrite:
        return "short_write";
    case FaultKind::kEnospc:
        return "enospc";
    case FaultKind::kEio:
        return "eio";
    case FaultKind::kSyncFail:
        return "sync_fail";
    case FaultKind::kLostRename:
        return "lost_rename";
    case FaultKind::kLostFile:
        return "lost_file";
    case FaultKind::kCrash:
        return "crash";
    }
    return "?";
}

void
Env::arm(const DiskFaultPlan &plan)
{
    std::lock_guard<std::mutex> lk(mu_);
    plan_ = plan;
    fired_ = false;
}

bool
Env::faulted() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return faulted_;
}

std::string
Env::faultSite() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return faultSite_;
}

uint64_t
Env::hitCount(const std::string &site) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = hits_.find(site);
    return it == hits_.end() ? 0 : it->second;
}

uint64_t
Env::totalHits() const
{
    std::lock_guard<std::mutex> lk(mu_);
    uint64_t total = 0;
    for (const auto &[site, count] : hits_)
        total += count;
    return total;
}

FaultKind
Env::maybeFault(const char *site)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (faulted_)
        throw DiskFault(faultSite_,
                        "durability layer latched by an earlier fault "
                        "(fsync gate) — rebuild from the state "
                        "directory to clear");
    uint64_t hit = ++hits_[site];
    if (plan_.armed() && !fired_ && plan_.site == site &&
        hit == plan_.hit) {
        fired_ = true;
        return plan_.kind;
    }
    return FaultKind::kNone;
}

void
Env::latch(const std::string &site, const std::string &detail)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (!faulted_) {
            faulted_ = true;
            faultSite_ = site;
        }
    }
    obs::Registry::global().counter("persist.env.disk_faults").add(1);
    throw DiskFault(site, detail);
}

void
Env::crash(const char *site)
{
    uint64_t hit = 0;
    {
        std::lock_guard<std::mutex> lk(mu_);
        faulted_ = true;
        faultSite_ = site;
        hit = hits_[site];
    }
    throw CrashInjected(site, hit);
}

Env::File *
Env::open(const char *site, const fs::path &path, const char *mode)
{
    FaultKind kind = maybeFault(site);
    if (kind == FaultKind::kEio)
        latch(site, "cannot open " + path.string() + " (injected EIO)");
    errno = 0;
    std::FILE *fp = std::fopen(path.string().c_str(), mode);
    if (fp == nullptr)
        latch(site, "cannot open " + path.string() + ": " +
                        std::strerror(errno));
    auto *f = new File;
    f->fp = fp;
    f->path = path;
    if (mode[0] == 'a') {
        std::error_code ec;
        uint64_t existing = fs::file_size(path, ec);
        f->length = ec ? 0 : existing;
    }
    // Existing bytes were synced by whoever wrote them (or recovery
    // already truncated the torn tail); new dirt starts at length.
    f->syncedLen = f->length;
    if (kind == FaultKind::kCrash) {
        close(f); // the file exists (or was truncated); the handle dies
        crash(site);
    }
    return f;
}

void
Env::write(const char *site, File *f, const void *data, size_t n)
{
    FaultKind kind = maybeFault(site);
    switch (kind) {
    case FaultKind::kShortWrite: {
        // Half the bytes reach the file before the device gives up —
        // a torn record that fails its CRC on recovery.
        size_t torn = n / 2;
        std::fwrite(data, 1, torn, f->fp);
        std::fflush(f->fp);
        f->length += torn;
        latch(site, "short write to " + f->path.string() +
                        " (injected, " + std::to_string(torn) + "/" +
                        std::to_string(n) + " bytes)");
    }
    case FaultKind::kEnospc:
        latch(site, "no space left on device writing " +
                        f->path.string() + " (injected ENOSPC)");
    case FaultKind::kEio:
        latch(site,
              "I/O error writing " + f->path.string() + " (injected EIO)");
    case FaultKind::kCrash: {
        // The process dies mid-write: a torn prefix reaches the file.
        size_t torn = n / 2;
        std::fwrite(data, 1, torn, f->fp);
        std::fflush(f->fp);
        f->length += torn;
        crash(site);
    }
    default:
        break;
    }
    size_t written = std::fwrite(data, 1, n, f->fp);
    f->length += written;
    if (written != n)
        latch(site, "short write to " + f->path.string() + " (" +
                        std::to_string(written) + "/" +
                        std::to_string(n) + " bytes)");
}

void
Env::sync(const char *site, File *f, int deep)
{
    FaultKind kind = maybeFault(site);
    if (kind == FaultKind::kSyncFail) {
        // The kernel may discard dirty pages on a failed fsync; model
        // the worst case by dropping everything since the last
        // successful sync. Retrying the sync cannot recover them —
        // hence the fsync gate.
        std::fflush(f->fp);
        ::ftruncate(::fileno(f->fp), static_cast<off_t>(f->syncedLen));
        f->length = f->syncedLen;
        latch(site, "sync failed for " + f->path.string() +
                        " (injected; dirty bytes dropped)");
    }
    if (kind == FaultKind::kEio)
        latch(site, "sync failed for " + f->path.string() +
                        " (injected EIO)");
    if (std::fflush(f->fp) != 0)
        latch(site, "flush failed for " + f->path.string());
    if (deep > 0) {
        int fd = ::fileno(f->fp);
        int rc = deep == 1 ? ::fdatasync(fd) : ::fsync(fd);
        if (rc != 0)
            latch(site, "fsync failed for " + f->path.string() + ": " +
                            std::strerror(errno));
    }
    f->syncedLen = f->length;
    if (kind == FaultKind::kCrash)
        crash(site);
}

void
Env::close(File *f) noexcept
{
    if (f == nullptr)
        return;
    if (f->fp != nullptr)
        std::fclose(f->fp);
    {
        std::lock_guard<std::mutex> lk(mu_);
        closedUnsynced_[f->path.string()] = f->length != f->syncedLen;
    }
    delete f;
}

void
Env::rename(const char *site, const fs::path &from, const fs::path &to)
{
    FaultKind kind = maybeFault(site);
    if (kind == FaultKind::kEio)
        latch(site, "rename " + from.string() + " -> " + to.string() +
                        " failed (injected EIO)");
    if (kind == FaultKind::kLostRename) {
        // The syscall "succeeds" but the directory update never
        // reaches the platter: after the (simulated) power cut the
        // source is gone and the target never appeared. The next
        // syncDir() reports the loss — which is exactly why the
        // commit sequence must fsync the directory after renaming.
        std::error_code ec;
        fs::remove(from, ec);
        std::lock_guard<std::mutex> lk(mu_);
        lostRenamePending_ = true;
        return;
    }
    bool zero_target = false;
    if (kind == FaultKind::kLostFile) {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = closedUnsynced_.find(from.string());
        zero_target = it != closedUnsynced_.end() && it->second;
    }
    std::error_code ec;
    fs::rename(from, to, ec);
    if (ec)
        latch(site, "rename " + from.string() + " -> " + to.string() +
                        " failed: " + ec.message());
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = closedUnsynced_.find(from.string());
        if (it != closedUnsynced_.end()) {
            closedUnsynced_[to.string()] = it->second;
            closedUnsynced_.erase(it);
        }
    }
    if (zero_target) {
        // The rename committed but the file's data pages were never
        // synced: after power loss the name points at zeroed blocks.
        // A writer that fsyncs before renaming never gets here.
        fs::resize_file(to, 0, ec);
    }
    if (kind == FaultKind::kCrash)
        crash(site);
}

void
Env::syncDir(const char *site, const fs::path &dir)
{
    FaultKind kind = maybeFault(site);
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (lostRenamePending_) {
            lostRenamePending_ = false;
            kind = FaultKind::kEio; // surface the lost rename here
        }
    }
    if (kind == FaultKind::kEio)
        latch(site, "directory sync failed for " + dir.string() +
                        " (directory update lost)");
    int fd = ::open(dir.string().c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        latch(site, "cannot open directory " + dir.string() + ": " +
                        std::strerror(errno));
    int rc = ::fsync(fd);
    int saved = errno;
    ::close(fd);
    if (rc != 0)
        latch(site, "fsync failed for directory " + dir.string() + ": " +
                        std::strerror(saved));
    if (kind == FaultKind::kCrash)
        crash(site);
}

void
Env::resize(const char *site, const fs::path &path, uint64_t len)
{
    FaultKind kind = maybeFault(site);
    if (kind != FaultKind::kNone && kind != FaultKind::kCrash)
        latch(site, "resize of " + path.string() + " failed (injected " +
                        std::string(faultKindName(kind)) + ")");
    std::error_code ec;
    fs::resize_file(path, len, ec);
    if (ec)
        latch(site, "resize of " + path.string() + " failed: " +
                        ec.message());
    if (kind == FaultKind::kCrash)
        crash(site);
}

bool
Env::remove(const char *site, const fs::path &path)
{
    // Best-effort: GC unlinks must never poison the log — a stale
    // file that survives is harmless (recovery picks the newest
    // chain), so failures are reported, not latched. Only a crash
    // (after the unlink) stops the instance.
    FaultKind kind = FaultKind::kNone;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (faulted_)
            return false;
        uint64_t hit = ++hits_[site];
        if (plan_.armed() && !fired_ && plan_.site == site &&
            hit == plan_.hit) {
            fired_ = true;
            kind = plan_.kind;
        }
    }
    if (kind != FaultKind::kNone && kind != FaultKind::kCrash)
        return false;
    std::error_code ec;
    bool removed = fs::remove(path, ec) && !ec;
    if (kind == FaultKind::kCrash)
        crash(site);
    return removed;
}

FileBytes
readFile(const fs::path &path)
{
    FileBytes out;
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        // ENOENT means a fresh directory; anything else (EACCES,
        // EIO, ...) means a file we must not pretend is absent.
        out.unreadable = errno != ENOENT;
        return out;
    }
    // A directory opens fine but cannot be read (EISDIR).
    struct stat st;
    if (::fstat(fd, &st) != 0 || S_ISDIR(st.st_mode)) {
        out.unreadable = true;
        ::close(fd);
        return out;
    }
    const auto want = static_cast<size_t>(st.st_size);
    out.data = std::make_unique_for_overwrite<char[]>(want);
    // One read normally; loop only for a short read or EINTR. Media
    // errors fail here.
    while (out.size < want) {
        ssize_t n = ::read(fd, out.data.get() + out.size, want - out.size);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0) {
            out.unreadable = true;
            out.size = 0;
            break;
        }
        if (n == 0)
            break; // shrank since the fstat
        out.size += static_cast<size_t>(n);
    }
    ::close(fd);
    return out;
}

} // namespace nazar::persist
