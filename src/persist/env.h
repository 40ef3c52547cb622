/**
 * @file
 * Fault-injecting I/O environment for the durability layer.
 *
 * Every WAL / snapshot open, write, sync, rename, resize, and unlink
 * goes through a persist::Env. The Env does three jobs:
 *
 *  1. **Injection.** A DiskFaultPlan arms one fault — a (site, hit,
 *     kind) triple — and the Nth operation at that site misbehaves
 *     the way a real disk would: a short write, ENOSPC, EIO, a failed
 *     fsync that *drops the dirty pages*, a rename whose directory
 *     entry never reaches the platter, or a renamed file whose
 *     contents were lost because the writer skipped the pre-rename
 *     fsync. The kCrash kind instead kills the process there (throws
 *     CrashInjected), leaving the wreckage a process kill leaves. A
 *     disarmed Env only counts hits; it draws no randomness and
 *     changes no behaviour.
 *
 *  2. **Fail-safe latching (the fsync gate).** The first injected or
 *     real I/O failure latches the Env: `faulted()` turns true and
 *     every subsequent operation throws DiskFault immediately. In
 *     particular a failed fsync is never retried — POSIX gives no
 *     guarantee about which dirty pages survive a failed fsync, so
 *     the only safe move is to poison the log and recover from the
 *     last durable state once the harness clears the fault (by
 *     rebuilding the persistence layer, i.e. a fresh Env).
 *
 *  3. **Durability bookkeeping.** The Env tracks, per open file, the
 *     byte length at the last successful sync. kSyncFail truncates
 *     the file back to that length before failing (the injected
 *     equivalent of the kernel discarding dirty pages), and
 *     kLostFile zeroes a renamed file only if it still had unsynced
 *     bytes at rename time — so the "fsync the tmp before rename"
 *     fix is regression-tested by construction: properly synced
 *     files survive the fault untouched.
 *
 * Determinism contract: sites are hit in a fixed order for a fixed
 * operation sequence, so (scenario, site, hit) fully reproduces a
 * disk fault or a crash.
 */
#ifndef NAZAR_PERSIST_ENV_H
#define NAZAR_PERSIST_ENV_H

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>

namespace nazar::persist {

/** What an armed fault does to the operation it fires on. */
enum class FaultKind : uint8_t {
    kNone = 0,
    /** write: half the bytes reach the file, the call reports short. */
    kShortWrite = 1,
    /** write: no bytes reach the file; fails like ENOSPC. */
    kEnospc = 2,
    /** any op: fails like EIO with no side effect. */
    kEio = 3,
    /**
     * sync: the dirty bytes since the last successful sync are
     * DROPPED (file truncated back) and the call fails. Retrying the
     * sync cannot bring them back — the fsync-gate rationale.
     */
    kSyncFail = 4,
    /**
     * rename: reports success but the directory entry is lost — the
     * source is gone and the target never appears. The next syncDir()
     * call fails, which is how a correctly-written commit sequence
     * (rename, then fsync the directory) detects the loss before
     * depending on it.
     */
    kLostRename = 5,
    /**
     * rename: performed, but the file's contents are zeroed IF it
     * still had unsynced bytes at rename time. A writer that fsyncs
     * the tmp file before renaming is immune.
     */
    kLostFile = 6,
    /**
     * Process death at this op. write: the first half of the bytes
     * reach the file (a torn record), then CrashInjected. Every other
     * op: the op completes, then CrashInjected. The Env latches like
     * any other fault, so the dead instance does no more I/O.
     */
    kCrash = 7,
};

/** Parse "short_write" / "enospc" / ...; throws NazarError otherwise. */
FaultKind faultKindFromString(const std::string &name);

/** Name for a FaultKind (inverse of faultKindFromString). */
const char *faultKindName(FaultKind kind);

/** One armed disk fault: the @p hit-th operation at @p site fires. */
struct DiskFaultPlan
{
    std::string site; ///< e.g. "env.wal.sync"; empty = disarmed.
    uint64_t hit = 1; ///< 1-based per-site hit index.
    FaultKind kind = FaultKind::kNone;

    bool armed() const { return !site.empty() && kind != FaultKind::kNone; }
};

/** Thrown at an armed kCrash site: the "process death" of the cloud. */
class CrashInjected : public std::runtime_error
{
  public:
    CrashInjected(std::string site, uint64_t hit)
        : std::runtime_error("injected crash at site '" + site +
                             "' (hit " + std::to_string(hit) + ")"),
          site_(std::move(site)), hit_(hit)
    {}

    /** The Env site that fired, e.g. "env.wal.write". */
    const std::string &site() const { return site_; }

    /** 1-based hit index at that site. */
    uint64_t hit() const { return hit_; }

  private:
    std::string site_;
    uint64_t hit_;
};

/**
 * Thrown when the disk misbehaves (injected or real). Unlike
 * CrashInjected the process is still alive — the durability layer is
 * latched and the owner must surface the fault (stop acking, report
 * diskFaulted()) until the harness rebuilds from the last durable
 * state. Deliberately NOT a NazarError: generic input-error handlers
 * must not swallow a poisoned log.
 */
class DiskFault : public std::runtime_error
{
  public:
    DiskFault(std::string site, const std::string &detail)
        : std::runtime_error("disk fault at '" + site + "': " + detail),
          site_(std::move(site))
    {}

    /** The Env site that failed, e.g. "env.wal.sync". */
    const std::string &site() const { return site_; }

  private:
    std::string site_;
};

/** The injectable I/O environment. One per CloudPersistence. */
class Env
{
  public:
    /** Open-file handle; tracks the synced length for fault semantics. */
    struct File
    {
        std::FILE *fp = nullptr;
        std::filesystem::path path;
        uint64_t length = 0;    ///< Bytes we believe are in the file.
        uint64_t syncedLen = 0; ///< Length at the last successful sync.
    };

    Env() = default;
    explicit Env(const DiskFaultPlan &plan) : plan_(plan) {}

    Env(const Env &) = delete;
    Env &operator=(const Env &) = delete;

    /** Arm (or clear, with a default-constructed plan) the fault. */
    void arm(const DiskFaultPlan &plan);
    const DiskFaultPlan &plan() const { return plan_; }

    /** True once any operation failed; all later ops throw DiskFault. */
    bool faulted() const;

    /** Site of the latched fault ("" when not faulted). */
    std::string faultSite() const;

    /** Ops counted at @p site so far (sweep bound for tests). */
    uint64_t hitCount(const std::string &site) const;

    /** Total ops counted across all sites. */
    uint64_t totalHits() const;

    /**
     * fopen wrapper. Throws DiskFault on injected (kEio) or real
     * failure. @p mode is "wb" / "ab" / "rb" as for fopen.
     */
    File *open(const char *site, const std::filesystem::path &path,
               const char *mode);

    /** fwrite wrapper; short/failed writes latch and throw. */
    void write(const char *site, File *f, const void *data, size_t n);

    /**
     * fflush (+ fdatasync/fsync when @p deep says so) wrapper. On
     * success the file's syncedLen advances; kSyncFail drops the
     * unsynced tail before failing. @p deep: 0 = flush only,
     * 1 = fdatasync, 2 = fsync.
     */
    void sync(const char *site, File *f, int deep);

    /**
     * fclose wrapper; never throws. Remembers whether the file had
     * unsynced bytes so a later rename can apply kLostFile.
     */
    void close(File *f) noexcept;

    /** Atomic-rename wrapper (commit point). See kLostRename/kLostFile. */
    void rename(const char *site, const std::filesystem::path &from,
                const std::filesystem::path &to);

    /** fsync-the-directory wrapper; detects a pending lost rename. */
    void syncDir(const char *site, const std::filesystem::path &dir);

    /** Truncate-to-length wrapper (WAL torn-tail drop / truncateAll). */
    void resize(const char *site, const std::filesystem::path &path,
                uint64_t len);

    /**
     * Best-effort unlink: returns false (without latching) on an
     * injected or real failure. GC uses this — a stale file that
     * survives an unlink is harmless, so it must not poison the log.
     */
    bool remove(const char *site, const std::filesystem::path &path);

  private:
    /** Count the hit; throw if latched; return the fault to inject. */
    FaultKind maybeFault(const char *site);
    [[noreturn]] void latch(const std::string &site,
                            const std::string &detail);
    /** Latch the Env and throw CrashInjected (the kCrash tail). */
    [[noreturn]] void crash(const char *site);

    mutable std::mutex mu_;
    DiskFaultPlan plan_;
    bool fired_ = false; ///< The armed fault fires at most once.
    bool faulted_ = false;
    std::string faultSite_;
    bool lostRenamePending_ = false;
    std::map<std::string, uint64_t> hits_;
    /** path -> had-unsynced-bytes-at-close, for kLostFile decisions. */
    std::map<std::string, bool> closedUnsynced_;
};

/**
 * A whole file's bytes, read once (readFile). The buffer is on the
 * heap and the object is move-only, so views into view() stay valid
 * when a FileBytes moves, and end when it is destroyed.
 */
struct FileBytes
{
    std::unique_ptr<char[]> data;
    size_t size = 0;
    /**
     * The file exists but could not be read (open failure other than
     * ENOENT, or a read error such as EISDIR/EIO): NOT the same as an
     * absent file, which reads as empty.
     */
    bool unreadable = false;

    std::string_view view() const { return {data.get(), size}; }
};

/**
 * Read @p path whole: one fstat for the size, then one read into a
 * buffer of that size (no chunked appends, no copy). Recovery reads
 * through here, not through an Env: reads have no fault sites.
 */
FileBytes readFile(const std::filesystem::path &path);

} // namespace nazar::persist

#endif // NAZAR_PERSIST_ENV_H
