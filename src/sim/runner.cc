/**
 * @file
 * Implementation of the end-to-end runner.
 */
#include "runner.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/error.h"
#include "common/logging.h"
#include "common/stats.h"
#include "net/channel.h"
#include "net/ingest_client.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "runtime/thread_pool.h"

namespace nazar::sim {

namespace {

/**
 * Shard-local accumulator for one chunk of devices: the per-window
 * counters plus the run-wide per-corruption tallies. Shards fill these
 * independently; the runner merges them in ascending device order.
 */
struct ShardMetrics
{
    WindowMetrics window;
    std::map<data::CorruptionType, TypeAccuracy> perCorruption;
};

/** Fold one inference outcome into an accumulator. */
void
accumulate(ShardMetrics &acc, const data::StreamEvent &ev,
           const InferenceOutcome &out)
{
    bool correct = out.predicted == ev.label;
    ++acc.window.events;
    acc.window.correctAll += correct ? 1 : 0;
    if (ev.trueDrift) {
        ++acc.window.driftedEvents;
        acc.window.correctDrifted += correct ? 1 : 0;
        auto &type = acc.perCorruption[ev.corruption];
        type.total += 1;
        type.correct += correct ? 1 : 0;
    } else {
        acc.window.correctClean += correct ? 1 : 0;
    }
    acc.window.flagged += out.driftFlag ? 1 : 0;
}

/** Merge a shard accumulator into the window/run totals. */
void
merge(WindowMetrics &wm,
      std::map<data::CorruptionType, TypeAccuracy> &per_corruption,
      const ShardMetrics &shard)
{
    wm.events += shard.window.events;
    wm.correctAll += shard.window.correctAll;
    wm.driftedEvents += shard.window.driftedEvents;
    wm.correctDrifted += shard.window.correctDrifted;
    wm.correctClean += shard.window.correctClean;
    wm.flagged += shard.window.flagged;
    for (const auto &[type, acc] : shard.perCorruption) {
        auto &total = per_corruption[type];
        total.correct += acc.correct;
        total.total += acc.total;
    }
}

} // namespace

std::string
toString(Strategy strategy)
{
    switch (strategy) {
      case Strategy::kNazar:    return "nazar";
      case Strategy::kAdaptAll: return "adapt-all";
      case Strategy::kNoAdapt:  return "no-adapt";
    }
    return "?";
}

double
WindowMetrics::accuracyAll() const
{
    return events ? static_cast<double>(correctAll) / events : 0.0;
}

double
WindowMetrics::accuracyDrifted() const
{
    return driftedEvents
               ? static_cast<double>(correctDrifted) / driftedEvents
               : 0.0;
}

double
WindowMetrics::accuracyClean() const
{
    size_t clean = events - driftedEvents;
    return clean ? static_cast<double>(correctClean) / clean : 0.0;
}

double
WindowMetrics::detectionRate() const
{
    return events ? static_cast<double>(flagged) / events : 0.0;
}

double
RunResult::avgAccuracyAll(int skip) const
{
    size_t correct = 0, total = 0;
    for (size_t i = static_cast<size_t>(skip); i < windows.size(); ++i) {
        correct += windows[i].correctAll;
        total += windows[i].events;
    }
    return total ? static_cast<double>(correct) / total : 0.0;
}

double
RunResult::avgAccuracyDrifted(int skip) const
{
    size_t correct = 0, total = 0;
    for (size_t i = static_cast<size_t>(skip); i < windows.size(); ++i) {
        correct += windows[i].correctDrifted;
        total += windows[i].driftedEvents;
    }
    return total ? static_cast<double>(correct) / total : 0.0;
}

double
RunResult::stddevAccuracyAll(int skip) const
{
    std::vector<double> xs;
    for (size_t i = static_cast<size_t>(skip); i < windows.size(); ++i)
        if (windows[i].events)
            xs.push_back(windows[i].accuracyAll());
    return stddev(xs);
}

std::vector<double>
RunResult::cumulativeAccuracyAll() const
{
    std::vector<double> out;
    size_t correct = 0, total = 0;
    for (const auto &w : windows) {
        correct += w.correctAll;
        total += w.events;
        out.push_back(total ? static_cast<double>(correct) / total : 0.0);
    }
    return out;
}

std::vector<double>
RunResult::cumulativeAccuracyDrifted() const
{
    std::vector<double> out;
    size_t correct = 0, total = 0;
    for (const auto &w : windows) {
        correct += w.correctDrifted;
        total += w.driftedEvents;
        out.push_back(total ? static_cast<double>(correct) / total : 0.0);
    }
    return out;
}

Runner::Runner(const data::AppSpec &app, const data::WeatherModel &weather,
               RunnerConfig config, const nn::Classifier *pretrained)
    : app_(app), weather_(weather), config_(std::move(config)),
      pretrained_(pretrained)
{
    NAZAR_CHECK(config_.windows >= 1, "need at least one window");
    if (pretrained_ != nullptr) {
        NAZAR_CHECK(pretrained_->architecture() == config_.arch,
                    "pretrained base architecture must match config");
    }
}

RunResult
Runner::run()
{
    RunResult result;
    Rng rng(config_.seed);

    // ---- Train (or adopt) the base model on clean data ----------------
    Rng data_rng = rng.fork();
    data::Dataset val =
        app_.domain.makeBalancedDataset(app_.valPerClass, data_rng);
    if (pretrained_ != nullptr) {
        base_ = std::make_unique<nn::Classifier>(pretrained_->clone());
    } else {
        base_ = std::make_unique<nn::Classifier>(
            config_.arch, app_.domain.featureDim(),
            app_.domain.numClasses(), config_.seed);
        data::Dataset train = app_.domain.makeBalancedDataset(
            app_.trainPerClass, data_rng);
        base_->trainSupervised(train.x, train.labels, config_.train);
    }
    result.baseCleanAccuracy = base_->accuracy(val.x, val.labels);
    logInfo() << "base " << nn::toString(config_.arch)
              << " clean accuracy: " << result.baseCleanAccuracy;

    // ---- Generate the workload ---------------------------------------
    data::WorkloadGenerator generator(app_, weather_, config_.workload);
    std::vector<data::StreamEvent> events = generator.generate();
    auto windows =
        makeTimeWindows(config_.workload.days, config_.windows);

    // ---- Fleet + cloud state ------------------------------------------
    std::vector<Device> devices;
    devices.reserve(static_cast<size_t>(generator.deviceCount()));
    for (int d = 0; d < generator.deviceCount(); ++d) {
        devices.emplace_back(
            d, app_.locations[static_cast<size_t>(
                   generator.locationOfDevice(d))].name,
            config_.poolCapacity);
    }

    CloudConfig cloud_config = config_.cloud;
    cloud_config.ingestDedupWindow = config_.faults.dedupWindow;
    cloud_config.persist = config_.persist;
    // Remote mode: the cloud lives behind an ingest server; this
    // process holds only a protocol client. The socket itself is
    // reliable — transport faults stay modeled in the uplink channel.
    std::unique_ptr<net::IngestClient> remote;
    std::unique_ptr<Cloud> cloud;
    if (config_.remotePort != 0) {
        NAZAR_CHECK(config_.strategy == Strategy::kNazar,
                    "remote ingest supports only the nazar strategy");
        NAZAR_CHECK(!config_.persist.enabled(),
                    "remote ingest: durability lives with the "
                    "server's cloud, not the runner");
        remote = std::make_unique<net::IngestClient>(
            config_.remotePort, net::FaultConfig{}, "runner",
            config_.remoteReconnect);
    } else {
        cloud = std::make_unique<Cloud>(cloud_config, *base_);
    }
    detect::MspDetector detector(config_.mspThreshold);

    // All device→cloud telemetry and cloud→device version pushes go
    // through one unreliable channel. With the default FaultConfig no
    // fault fires and delivery order == send order; the fault draws
    // come from the channel's own RNG, so the workload stream and this
    // loop's output are those of a perfect link.
    net::Channel<persist::IngestRecord> uplink(config_.faults,
                                               devices.size());
    static obs::Gauge &stale_gauge =
        obs::Registry::global().gauge("fleet.stale_devices");
    int64_t latest_pushed = 0;

    nn::BnPatch clean_patch = base_->bnPatch();
    // A restarted run resumes calibration from the recovered clean
    // patch instead of the base model's. In remote mode the server
    // hands the recovered patch over in its handshake reply.
    if (remote) {
        if (remote->helloAck().cleanPatchText.has_value()) {
            std::istringstream in(*remote->helloAck().cleanPatchText);
            clean_patch = nn::BnPatch::load(in);
        }
    } else if (cloud->recoveredCleanPatch().has_value()) {
        clean_patch = *cloud->recoveredCleanPatch();
    }
    // Adapt-all: the single continuously adapted model's BN state.
    nn::BnPatch global_patch = clean_patch;

    // Crash-restart: an injected crash "kills" the cloud process; the
    // runner rebuilds it from the state directory with the fault plan
    // cleared (the armed site already fired). A latched disk fault
    // follows the same discipline — the environment's fsync gate
    // poisons the incarnation, and the rebuild (the cleared plan
    // standing in for the operator fixing the disk) recovers from the
    // last durable state. The clean patch is cloud-side
    // state, so it too comes back from disk — the last *committed*
    // cycle's patch, which is exactly what a re-run of an uncommitted
    // cycle must start from.
    static obs::Counter &crash_counter =
        obs::Registry::global().counter("sim.cloud.crashes");
    static obs::Counter &disk_fault_counter =
        obs::Registry::global().counter("sim.cloud.disk_fault_rebuilds");
    int64_t cycles_done = cloud ? cloud->logicalTime() : 0;
    // survive() runs one cloud operation. If the cloud dies in it
    // (injected crash or latched disk fault), it rebuilds the cloud
    // and returns false; with @p rerun the operation then runs once
    // more on the rebuilt cloud (for idempotent ones), otherwise the
    // caller recovers itself. @p stage, when set, names the operation
    // in the log line.
    auto survive = [&](const char *stage, bool rerun, auto &&op) {
        bool disk_fault = false;
        try {
            op();
            return true;
        } catch (const persist::CrashInjected &crash) {
            if (stage != nullptr)
                logInfo() << "cloud crash injected at " << crash.site()
                          << " (hit " << crash.hit() << ") during "
                          << stage;
        } catch (const persist::DiskFault &fault) {
            if (stage != nullptr)
                logInfo() << "cloud disk fault latched at "
                          << fault.site() << " during " << stage;
            disk_fault = true;
        }
        CloudConfig recover_config = cloud_config;
        recover_config.persist.fault = {};
        cloud.reset(); // release the WAL handle before reopening
        cloud = std::make_unique<Cloud>(recover_config, *base_);
        clean_patch = cloud->recoveredCleanPatch().has_value()
                          ? *cloud->recoveredCleanPatch()
                          : base_->bnPatch();
        if (disk_fault) {
            ++result.cloudDiskFaults;
            disk_fault_counter.add(1);
        } else {
            ++result.cloudCrashes;
            crash_counter.add(1);
        }
        if (rerun)
            op();
        return false;
    };

    Rng sample_rng = rng.fork();
    size_t next_event = 0;
    for (const auto &window : windows) {
        NAZAR_SPAN("sim.window");
        WindowMetrics wm;
        wm.window = window.index;
        // Draw this epoch's per-device offline/crash state. Inference
        // is unaffected (it is local); only telemetry and pushes are.
        uplink.beginEpoch();

        // ---- Collect this window's slice of the event stream ---------
        const size_t window_begin = next_event;
        while (next_event < events.size() &&
               window.contains(events[next_event].when.dayIndex()))
            ++next_event;
        const size_t window_count = next_event - window_begin;

        // Upload-sampling decisions are drawn sequentially in event
        // order so the RNG stream is independent of sharding.
        std::vector<char> do_upload(window_count);
        for (size_t i = 0; i < window_count; ++i)
            do_upload[i] =
                sample_rng.bernoulli(config_.uploadSampleRate) ? 1 : 0;

        std::vector<InferenceOutcome> outcomes(window_count);
        // Each uploaded event's device context; kNazar keeps the one
        // its version was selected with.
        std::vector<rca::AttributeSet> contexts(window_count);
        NAZAR_SPAN_BEGIN(infer_span, "sim.infer");
        switch (config_.strategy) {
          case Strategy::kNazar: {
            // Per-device shards: events of one device always run on
            // one shard. Every shard reads the one base model, each
            // inference under its selected version's patch; nothing
            // writes to the base, so no shard needs a copy.
            std::vector<std::vector<size_t>> by_device(devices.size());
            for (size_t i = 0; i < window_count; ++i)
                by_device[static_cast<size_t>(
                              events[window_begin + i].deviceId)]
                    .push_back(i);
            const size_t grain = std::max<size_t>(
                1, devices.size() / (4 * runtime::threadCount()));
            ShardMetrics totals = runtime::parallelReduce<ShardMetrics>(
                0, devices.size(), grain, ShardMetrics{},
                [&](size_t dev_begin, size_t dev_end) {
                    ShardMetrics shard;
                    std::vector<const data::StreamEvent *> evs;
                    std::vector<InferenceOutcome> outs;
                    std::vector<rca::AttributeSet *> ctxs;
                    for (size_t d = dev_begin; d < dev_end; ++d) {
                        const std::vector<size_t> &mine = by_device[d];
                        evs.clear();
                        ctxs.clear();
                        for (size_t i : mine) {
                            evs.push_back(&events[window_begin + i]);
                            ctxs.push_back(do_upload[i] ? &contexts[i]
                                                        : nullptr);
                        }
                        outs.resize(mine.size());
                        devices[d].inferBatch(evs, *base_, clean_patch,
                                              detector, outs.data(),
                                              ctxs.data());
                        for (size_t k = 0; k < mine.size(); ++k) {
                            outcomes[mine[k]] = outs[k];
                            accumulate(shard, *evs[k], outs[k]);
                        }
                    }
                    return shard;
                },
                [](ShardMetrics acc, ShardMetrics shard) {
                    merge(acc.window, acc.perCorruption, shard);
                    return acc;
                });
            merge(wm, result.perCorruption, totals);
            break;
          }
          case Strategy::kAdaptAll:
          case Strategy::kNoAdapt: {
            // Baselines: one global model (adapted or frozen) — one
            // batched forward pass over the whole window; row r of the
            // batch is bit-identical to a single-row forward.
            if (window_count > 0) {
                nn::Matrix batch(window_count, app_.domain.featureDim());
                for (size_t i = 0; i < window_count; ++i)
                    batch.setRow(i, events[window_begin + i].features);
                nn::Matrix logits = base_->infer(batch, global_patch);
                const detect::MspDetector::Decisions decided =
                    detector.decide(logits);
                ShardMetrics totals;
                for (size_t i = 0; i < window_count; ++i) {
                    outcomes[i].predicted =
                        static_cast<int>(logits.argmaxRow(i));
                    outcomes[i].msp = decided.msp[i];
                    outcomes[i].driftFlag = decided.drift[i];
                    outcomes[i].versionId = 0;
                    const data::StreamEvent &ev = events[window_begin + i];
                    if (do_upload[i])
                        contexts[i] =
                            devices[static_cast<size_t>(ev.deviceId)]
                                .contextFor(ev);
                    accumulate(totals, ev, outcomes[i]);
                }
                merge(wm, result.perCorruption, totals);
            }
            break;
          }
        }
        infer_span.stop();

        // ---- Telemetry to the cloud, in event order ------------------
        // Shards buffered their outcomes; emitting in the original
        // event order keeps the fault RNG stream (and, with faults
        // off, the drift log and therefore RCA) bit-identical to the
        // sequential path at any thread count. Every emission rides
        // the unreliable channel; what survives transport is ingested
        // idempotently via per-device sequence numbers.
        NAZAR_SPAN_BEGIN(telemetry_span, "sim.telemetry");
        for (size_t i = 0; i < window_count; ++i) {
            const data::StreamEvent &ev = events[window_begin + i];
            const InferenceOutcome &out = outcomes[i];
            const Device &device =
                devices[static_cast<size_t>(ev.deviceId)];
            persist::IngestRecord record;
            record.entry = device.makeLogEntry(ev, out);
            if (do_upload[i]) {
                record.upload = persist::UploadRecord{
                    ev.features, std::move(contexts[i]), out.driftFlag};
            }
            uplink.send(static_cast<size_t>(ev.deviceId),
                        std::move(record));
        }
        std::vector<persist::IngestRecord> delivered;
        delivered.reserve(uplink.pendingCount());
        uplink.deliver([&](size_t device, uint64_t seq,
                           persist::IngestRecord &&record) {
            record.device = static_cast<int64_t>(device);
            record.seq = seq;
            if (remote) {
                // Same idempotent (device, seq) contract, over the
                // wire; the server's dedup window does the rejecting
                // and the acks reconcile at the next barrier.
                remote->sendIngest(record);
                return;
            }
            delivered.push_back(std::move(record));
        });
        // The window's surviving telemetry is one group-committed
        // batch. If the cloud dies in it, the rows that reached the
        // WAL come back with the rebuild; the rest are lost in flight.
        if (!delivered.empty()) {
            survive("ingest", /*rerun=*/false, [&] {
                cloud->ingestBatchFrom(std::move(delivered));
            });
        }
        telemetry_span.stop();

        // ---- Window boundary: run the strategy's adaptation ----------
        switch (config_.strategy) {
          case Strategy::kNazar: {
            std::vector<deploy::ModelVersion> new_versions;
            if (remote) {
                // Cycle runs server-side: ship the clean patch, get
                // back the summary plus the published version blobs.
                // requestCycle first drains the window's ingest acks,
                // so the cycle sees every surviving row.
                std::ostringstream patch_text;
                clean_patch.save(patch_text);
                net::RemoteCycle cycle =
                    remote->requestCycle(patch_text.str());
                wm.rootCauses = cycle.done.rootCauses;
                wm.skippedCauses = cycle.done.skippedCauses;
                if (cycle.done.cleanPatchText.has_value()) {
                    std::istringstream in(*cycle.done.cleanPatchText);
                    clean_patch = nn::BnPatch::load(in);
                }
                new_versions.reserve(cycle.versionTexts.size());
                for (const auto &text : cycle.versionTexts) {
                    std::istringstream in(text);
                    new_versions.push_back(
                        deploy::ModelVersion::load(in));
                }
            } else {
            // Fold a completed cycle into the window/run metrics and
            // hand back its versions for pushing.
            auto apply_cycle = [&](CycleResult &&cycle) {
                result.totalRcaSeconds += cycle.rcaSeconds;
                result.totalAdaptSeconds += cycle.adaptSeconds;
                wm.rootCauses = cycle.analysis.rootCauses.size();
                wm.skippedCauses = cycle.skippedCauses;
                if (cycle.newCleanPatch.has_value())
                    clean_patch = *cycle.newCleanPatch;
                return std::move(cycle.newVersions);
            };
            const int64_t pre_cycle_next = cloud->nextVersionId();
            if (!survive("cycle", /*rerun=*/false, [&] {
                    new_versions =
                        apply_cycle(cloud->runCycle(clean_patch));
                })) {
                if (cloud->logicalTime() > cycles_done) {
                    // The commit record survived, so the cycle is
                    // durable. The in-memory analysis summary died
                    // with the process; the published versions are
                    // re-read from the recovered registry and pushed
                    // below — devices never acknowledged them.
                    new_versions =
                        cloud->versionsSince(pre_cycle_next - 1);
                } else {
                    // Uncommitted: WAL replay restored the claimed
                    // buffers, and the rebuilt cloud re-runs the cycle
                    // deterministically (the fault plan is cleared),
                    // reassigning identical version ids.
                    new_versions =
                        apply_cycle(cloud->runCycle(clean_patch));
                }
            }
            cycles_done = cloud->logicalTime();
            }
            wm.newVersions = new_versions.size();
            // Push each new version over the downlink. A device whose
            // push is lost (offline epoch, downlink drop) keeps
            // serving its newest held patch; the matcher falls back to
            // the clean model when nothing held matches.
            for (const auto &version : new_versions) {
                for (size_t d = 0; d < devices.size(); ++d) {
                    if (!uplink.deliverPush(d))
                        continue;
                    devices[d].pool().install(version);
                    devices[d].noteVersionReceived(version.id);
                }
                latest_pushed = std::max(latest_pushed, version.id);
            }
            if (latest_pushed > 0) {
                for (const auto &device : devices)
                    if (device.staleAgainst(latest_pushed))
                        ++wm.staleDevices;
            }
            stale_gauge.set(static_cast<double>(wm.staleDevices));
            wm.poolSize = devices.empty() ? 0 : devices[0].pool().size();
            if (config_.registryGc && cloud && !devices.empty()) {
                // Safety invariant: every version below the fleet-wide
                // minimum last-seen id has been acknowledged by every
                // device, so no re-push or fetch for it can ever be
                // needed again. (A device that never received a push
                // holds lastSeenVersion 0, which blocks GC entirely.)
                int64_t min_seen = std::numeric_limits<int64_t>::max();
                for (const auto &device : devices)
                    min_seen =
                        std::min(min_seen, device.lastSeenVersion());
                if (min_seen > 0) {
                    survive(nullptr, /*rerun=*/false, [&] {
                        result.registryGcEvicted +=
                            cloud->gcRegistryBelow(min_seen);
                    });
                }
            }
            break;
          }
          case Strategy::kAdaptAll: {
            // Adapt the single model on every upload of the window,
            // continuing from its current state.
            data::Dataset all = cloud->allUploads();
            // Idempotent: replay already cleared or restored the
            // buffers, and a re-run clears them again.
            survive(nullptr, /*rerun=*/true, [&] { cloud->flush(); });
            if (all.size() >= cloud_config.minAdaptSamples) {
                NAZAR_SPAN_BEGIN(adapt_span, "sim.adapt_all");
                adapt::TentAdapter tent(cloud_config.adapt);
                nn::Classifier model = base_->clone();
                model.applyBnPatch(global_patch);
                tent.adapt(model, all.x);
                global_patch = model.bnPatch();
                result.totalAdaptSeconds += adapt_span.stop();
            }
            break;
          }
          case Strategy::kNoAdapt:
            // Telemetry still arrives; nothing is done with it.
            survive(nullptr, /*rerun=*/true, [&] { cloud->flush(); });
            break;
        }

        result.windows.push_back(wm);
    }
    // Leave a clean state directory behind: one final snapshot, so a
    // later process (or `nazar_ops recover`) starts from the snapshot
    // instead of a long WAL replay.
    if (config_.persist.enabled())
        survive(nullptr, /*rerun=*/true, [&] { cloud->checkpoint(); });
    if (remote) {
        // Orderly end of session; the ByeAck tallies reconcile what
        // the server accepted against what this client sent.
        net::WireByeAck bye = remote->bye();
        logInfo() << "remote cloud: ingested " << bye.totalIngested
                  << ", dedup hits " << bye.dedupHits;
    }
    // Anything still queued or delayed past the last window is lost;
    // account for it so `net.sent` always reconciles against
    // delivered + shed + gave-up + undelivered.
    uplink.shutdown();
    return result;
}

} // namespace nazar::sim
