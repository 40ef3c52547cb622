/**
 * @file
 * The Nazar cloud side (paper §3.3-§3.4, §4): drift-log ingestion,
 * periodic root-cause analysis, and by-cause adaptation producing
 * deployable model versions.
 */
#ifndef NAZAR_SIM_CLOUD_H
#define NAZAR_SIM_CLOUD_H

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "adapt/tent.h"
#include "data/dataset.h"
#include "deploy/model_version.h"
#include "deploy/registry.h"
#include "driftlog/drift_log.h"
#include "persist/cloud_persist.h"
#include "rca/analyzer.h"

namespace nazar::sim {

/** Old name of persist::UploadRecord, kept only because nazarbench/ is
 *  frozen (its runs stay comparable across commits) and still uses it. */
using Upload = persist::UploadRecord;

/** Old name of persist::IngestRecord, kept only because nazarbench/ is
 *  frozen (its runs stay comparable across commits) and still uses it. */
using IngestMessage = persist::IngestRecord;

/** Cloud-side configuration. */
struct CloudConfig
{
    rca::RcaConfig rca;
    adapt::AdaptConfig adapt;
    rca::AnalysisMode analysisMode = rca::AnalysisMode::kFull;
    /** Minimum matching uploads required to adapt to a cause. */
    size_t minAdaptSamples = 24;
    /** Also keep the clean model calibrated on non-drifted uploads. */
    bool adaptCleanModel = true;
    /** Cap on causes adapted per cycle (0 = no cap). */
    size_t maxCausesPerCycle = 0;
    /**
     * Per-device sequence numbers remembered by the idempotent ingest
     * path. Retransmissions whose sequence number is still inside the
     * window — or older than anything retained — are rejected as
     * duplicates, so at-least-once delivery counts each drift row
     * effectively once.
     */
    size_t ingestDedupWindow = 4096;
    /**
     * Crash-safe durability for the cloud's state (drift log, upload
     * buffer, dedup windows, registry, counters). Off by default
     * (empty dir): no file is touched and the run is bit-identical to
     * a cloud without the persist layer.
     */
    persist::PersistConfig persist;
};

/** Result of one analysis/adaptation cycle. */
struct CycleResult
{
    std::vector<deploy::ModelVersion> newVersions;
    std::optional<nn::BnPatch> newCleanPatch;
    rca::AnalysisResult analysis;
    size_t adaptedSampleCount = 0;
    /** Causes found by RCA but skipped for lack of matching uploads. */
    size_t skippedCauses = 0;
    double rcaSeconds = 0.0;   ///< Wall-clock of the RCA stage.
    double adaptSeconds = 0.0; ///< Wall-clock of the adaptation stage.
};

/**
 * Cloud orchestrator. Owns the drift log and the upload buffer;
 * produces model versions at analysis-window boundaries.
 *
 * One-writer rule for persisted clouds: with CloudConfig::persist on,
 * ingestBatchFrom, runCycle, flush, gcRegistryBelow and checkpoint
 * must not overlap — WAL appends happen outside the ingest lock, so
 * readers never wait on an fsync. The ingest server's committer
 * thread and the runner's window loop are each a cloud's sole writer.
 * Without persistence, concurrent ingestBatchFrom calls are safe (the
 * apply serializes on the ingest lock); readers are always safe.
 */
class Cloud
{
  public:
    /**
     * @param config Cloud configuration (RCA + adaptation).
     * @param base   The base (clean-trained) model; cycles adapt
     *               clones of it.
     */
    Cloud(CloudConfig config, const nn::Classifier &base);

    /**
     * The cloud's one ingest entry point. Messages with a device id
     * arrive over an unreliable channel and are idempotent: @p seq is
     * the sender's per-device monotone sequence number, and duplicates
     * (retried or duplicated in flight) are dropped against a bounded
     * per-device dedup window and counted in `net.dedup_hits`.
     * Messages with device -1 are always accepted.
     *
     * With persistence on, every attempt is appended to the WAL first
     * with ONE sync for the whole batch (a batch of one is a
     * per-record commit), before the ingest lock is taken. Entries
     * land in batch order; callers needing a deterministic log order
     * order the batch themselves. Returns per-message acceptance
     * (false = dedup hit).
     */
    std::vector<bool> ingestBatchFrom(
        std::vector<persist::IngestRecord> batch);

    /**
     * Run one analysis + by-cause adaptation cycle over the entries
     * ingested since the last cycle, then archive them.
     *
     * @param clean_patch Current clean-model BN patch (starting point
     *                    for adaptations and detector calibration).
     */
    CycleResult runCycle(const nn::BnPatch &clean_patch);

    /**
     * All currently buffered uploads as one dataset (labels are -1;
     * adaptation is unsupervised). Used by the adapt-all baseline.
     * Thread-safe against concurrent ingest.
     */
    data::Dataset allUploads() const;

    /**
     * Archive buffered entries and uploads without running analysis.
     * The archived counts are recorded in obs
     * (`sim.cloud.flushed.rows` / `sim.cloud.flushed.uploads`) so
     * flushed rows stay distinguishable from rows lost in transit.
     * Thread-safe against concurrent ingest.
     */
    void flush();

    /**
     * Snapshot of the entries currently awaiting analysis (copied
     * under the ingest lock, so safe against concurrent ingest).
     */
    driftlog::DriftLog driftLog() const;

    /** Entries currently awaiting analysis. Thread-safe. */
    size_t driftLogSize() const;

    /** Uploads currently buffered. Thread-safe. */
    size_t uploadCount() const;

    /** Dedup rejections by the idempotent ingest path. Thread-safe. */
    size_t dedupHits() const;

    /** Total entries ingested over the lifetime of the cloud. */
    size_t totalIngested() const;

    /** Next version id that will be assigned. */
    int64_t nextVersionId() const { return nextVersionId_; }

    /** Completed analysis cycles (advances once per runCycle). */
    int64_t logicalTime() const { return logicalTime_; }

    /**
     * All published versions with id > @p after_id, ascending. Used
     * after a crash-restart to re-push versions that devices never
     * acknowledged.
     */
    std::vector<deploy::ModelVersion> versionsSince(int64_t after_id) const;

    /**
     * The clean BN patch recovered from the state directory, when one
     * was persisted by an earlier incarnation's cycle. The owner (the
     * runner) adopts it so adaptation resumes from the recovered
     * calibration instead of the base model's.
     */
    const std::optional<nn::BnPatch> &recoveredCleanPatch() const
    {
        return recoveredCleanPatch_;
    }

    /** logicalTime of the cycle that produced the recovered patch. */
    int64_t recoveredCleanPatchTime() const
    {
        return recoveredCleanPatchTime_;
    }

    /** Copy of the per-device dedup windows (for tests). Thread-safe. */
    std::map<int64_t, persist::DedupWindow> dedupSnapshot() const;

    /**
     * Garbage-collect registry versions with id < @p min_version_id
     * from the blob store. The caller owns the safety invariant:
     * @p min_version_id must be at or below every device's last-seen
     * version, so no re-push or fetch for an evicted id can ever be
     * needed. WAL-first when persistence is on, so recovery replays
     * the eviction. Returns the number of versions evicted.
     * Thread-safe against concurrent ingest.
     */
    size_t gcRegistryBelow(int64_t min_version_id);

    /**
     * Force a snapshot now (rename-on-commit + WAL truncation). No-op
     * without persistence. Thread-safe against concurrent ingest.
     */
    void checkpoint();

    /** The durability engine, or null when persistence is off. */
    persist::CloudPersistence *persistence() { return persist_.get(); }

    /**
     * The version registry (every adapted version is published to the
     * blob store before deployment — the §5.8 "written in S3" step).
     */
    const deploy::ModelRegistry &registry() const { return registry_; }

    /** The blob store backing the registry. */
    const deploy::BlobStore &blobStore() const { return blobStore_; }

    const CloudConfig &config() const { return config_; }

  private:
    /** Adopt the state a CloudPersistence recovered at open. */
    void adoptRecovered(persist::RecoveredState &st);

    /** Snapshot when due (ingestMutex_ held by the caller). */
    void maybeSnapshotLocked();

    /** Build + write a snapshot of the full state (ingestMutex_ held;
     *  blobStore_/registry_ are safe to read because cycles never run
     *  concurrently with ingest in the runner). */
    void writeSnapshotLocked();

    /** Collect uploads whose context matches a cause. */
    static data::Dataset uploadsMatching(
        const std::vector<persist::UploadRecord> &uploads,
        const rca::AttributeSet &cause);

    /** Uploads not matching any accepted cause and not drift-flagged. */
    static data::Dataset cleanUploads(
        const std::vector<persist::UploadRecord> &uploads,
        const std::vector<rca::RankedCause> &causes);

    CloudConfig config_;
    const nn::Classifier &base_;
    /** Guards driftLog_, uploads_, dedup_, dedupHits_, totalIngested_. */
    mutable std::mutex ingestMutex_;
    driftlog::DriftLog driftLog_;
    std::vector<persist::UploadRecord> uploads_;
    std::map<int64_t, persist::DedupWindow> dedup_;
    size_t dedupHits_ = 0;
    deploy::BlobStore blobStore_;
    deploy::ModelRegistry registry_{blobStore_};
    int64_t nextVersionId_ = 1;
    int64_t logicalTime_ = 0;
    size_t totalIngested_ = 0;
    /** Durability engine (null when CloudConfig::persist is off). */
    std::unique_ptr<persist::CloudPersistence> persist_;
    std::optional<nn::BnPatch> recoveredCleanPatch_;
    int64_t recoveredCleanPatchTime_ = 0;
    /** Last clean patch published by a cycle, as BnPatch::save text —
     *  carried into snapshots so recovery can resume calibration. */
    std::optional<std::string> lastCleanPatchText_;
    int64_t lastCleanPatchTime_ = 0;
};

} // namespace nazar::sim

#endif // NAZAR_SIM_CLOUD_H
