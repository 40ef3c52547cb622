/**
 * @file
 * End-to-end deployment simulation (paper §5.7): streams the workload
 * through a device fleet, runs the Nazar loop (or a baseline strategy)
 * at analysis-window boundaries, and collects the metrics the paper's
 * Figures 8 and 9 report.
 */
#ifndef NAZAR_SIM_RUNNER_H
#define NAZAR_SIM_RUNNER_H

#include <map>

#include "data/stream.h"
#include "net/fault.h"
#include "sim/cloud.h"
#include "sim/device.h"

namespace nazar::sim {

/** Deployment strategies compared throughout the evaluation (§5.2). */
enum class Strategy {
    kNazar,    ///< Full loop: detect -> RCA -> by-cause adaptation.
    kAdaptAll, ///< One model continuously adapted on all inputs.
    kNoAdapt,  ///< The pretrained model, never adapted.
};

/** Printable strategy name. */
std::string toString(Strategy strategy);

/** End-to-end run configuration. */
struct RunnerConfig
{
    nn::Architecture arch = nn::Architecture::kResNet50;
    Strategy strategy = Strategy::kNazar;
    int windows = 8;               ///< Analysis windows (paper default).
    double uploadSampleRate = 0.25; ///< Fraction of inputs uploaded.
    double mspThreshold = 0.9;     ///< On-device detector threshold.
    size_t poolCapacity = 0;       ///< Device pool cap (0 = unbounded).
    /**
     * Device↔cloud transport faults. The default (all zeros) fires
     * no fault and is bit-identical to a run over a perfect link; the
     * run is reproducible from (seed, faults.seed) at any
     * NAZAR_THREADS setting.
     */
    net::FaultConfig faults;
    /**
     * Cloud-state durability. Off by default (empty dir); when on, the
     * cloud WALs every ingest and cycle commit into persist.dir and
     * the runner survives injected cloud crashes by rebuilding the
     * cloud from disk (see RunResult::cloudCrashes).
     */
    persist::PersistConfig persist;
    /**
     * After each window's version pushes, garbage-collect registry
     * versions below every device's last-seen version (they can never
     * be re-pushed or fetched again). Off by default: runs with GC
     * off are bit-identical to runs before GC existed.
     */
    bool registryGc = false;
    /**
     * When nonzero, telemetry is ingested by a networked cloud — an
     * ingest server (server/ingest_server.h) on 127.0.0.1:remotePort —
     * instead of an in-process Cloud, and analysis cycles run
     * server-side (kCycleRequest/kCycleDone). Only the kNazar strategy
     * supports this mode, and `persist` must stay off here: durability
     * and dedup configuration live with the server's cloud. 0 (the
     * default) keeps everything in-process and bit-identical to
     * before the net layer existed.
     */
    uint16_t remotePort = 0;
    /**
     * Session-layer recovery for remote mode: with `enabled`, the
     * runner's IngestClient rides through a server crash–restart
     * (reconnect, resume, retransmit) instead of aborting the run.
     * Ignored when remotePort == 0.
     */
    net::ReconnectPolicy remoteReconnect;
    CloudConfig cloud;
    nn::TrainConfig train;         ///< Base-model training.
    data::WorkloadConfig workload;
    uint64_t seed = 17;
};

/** Per-window metrics. */
struct WindowMetrics
{
    int window = 0;
    size_t events = 0;
    size_t driftedEvents = 0;
    size_t correctAll = 0;
    size_t correctDrifted = 0;
    size_t correctClean = 0;
    size_t flagged = 0;      ///< Drift-flagged inferences.
    size_t rootCauses = 0;   ///< Causes found at the window boundary.
    size_t newVersions = 0;  ///< Versions produced at the boundary.
    size_t poolSize = 0;     ///< Device 0's pool size after the boundary.
    size_t staleDevices = 0; ///< Devices that missed ≥1 version push.
    /** Causes RCA found but adaptation skipped (uploads sampled out or
     *  lost below the adapt floor) at this window's boundary. */
    size_t skippedCauses = 0;

    double accuracyAll() const;
    double accuracyDrifted() const;
    double accuracyClean() const;
    double detectionRate() const;
};

/** Per-corruption-type accuracy accumulator. */
struct TypeAccuracy
{
    size_t correct = 0;
    size_t total = 0;

    double
    accuracy() const
    {
        return total ? static_cast<double>(correct) / total : 0.0;
    }
};

/** Full-run results. */
struct RunResult
{
    std::vector<WindowMetrics> windows;
    std::map<data::CorruptionType, TypeAccuracy> perCorruption;
    double baseCleanAccuracy = 0.0; ///< Validation accuracy pre-deploy.
    double totalRcaSeconds = 0.0;
    double totalAdaptSeconds = 0.0;
    /** Injected cloud crashes survived by rebuilding from disk. */
    size_t cloudCrashes = 0;
    /** Latched disk faults survived by rebuilding from disk. */
    size_t cloudDiskFaults = 0;
    /** Registry versions evicted by per-window GC. */
    size_t registryGcEvicted = 0;

    /** Mean accuracy over all events, skipping @p skip lead windows
     *  (the paper averages over the last 7 of 8 windows). */
    double avgAccuracyAll(int skip = 1) const;
    double avgAccuracyDrifted(int skip = 1) const;

    /** Std-dev of the per-window all-data accuracy (skipping lead). */
    double stddevAccuracyAll(int skip = 1) const;

    /** Cumulative accuracy trace after each window (Fig 8d). */
    std::vector<double> cumulativeAccuracyAll() const;
    std::vector<double> cumulativeAccuracyDrifted() const;
};

/** Runs one strategy over one workload. */
class Runner
{
  public:
    /**
     * @param app        Application spec (domain + geography).
     * @param weather    Weather model covering the workload period.
     * @param config     Run configuration.
     * @param pretrained Optional pre-trained base model to clone
     *                   instead of training one (the architecture must
     *                   match config.arch). Benchmarks use this to
     *                   share one base across strategy comparisons.
     */
    Runner(const data::AppSpec &app, const data::WeatherModel &weather,
           RunnerConfig config,
           const nn::Classifier *pretrained = nullptr);

    /** Execute the full deployment period. */
    RunResult run();

    /** The trained base model (valid after run()). */
    const nn::Classifier *baseModel() const { return base_.get(); }

  private:
    const data::AppSpec &app_;
    const data::WeatherModel &weather_;
    RunnerConfig config_;
    const nn::Classifier *pretrained_;
    std::unique_ptr<nn::Classifier> base_;
};

} // namespace nazar::sim

#endif // NAZAR_SIM_RUNNER_H
