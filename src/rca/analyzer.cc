/**
 * @file
 * Implementation of the root-cause analysis pipeline (Algorithm 1).
 */
#include "analyzer.h"

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace nazar::rca {

std::string
toString(AnalysisMode mode)
{
    switch (mode) {
      case AnalysisMode::kFimOnly:         return "fim";
      case AnalysisMode::kFimSetReduction: return "fim+set-reduction";
      case AnalysisMode::kFull:            return "fim+set-reduction+cf";
    }
    return "?";
}

Analyzer::Analyzer(RcaConfig config) : config_(std::move(config))
{
    NAZAR_CHECK(!config_.attributeColumns.empty(),
                "RcaConfig.attributeColumns must be set");
}

AnalysisResult
Analyzer::analyze(const driftlog::Table &table, AnalysisMode mode) const
{
    NAZAR_SPAN("rca.analyze");
    static obs::Counter &accepted =
        obs::Registry::global().counter("rca.causes_accepted");
    AnalysisResult result;
    if (table.rowCount() == 0)
        return result;

    // One drift-flag bitset and one bitmap index per call: the miner
    // counts over them, and the counterfactual walk reuses both.
    Fim fim(table, config_);
    RowBitset flags = Fim::driftFlags(table, config_.driftColumn);
    Fim::Mined mined = fim.mineIndexed(flags);
    result.fimTable = std::move(mined.causes);
    const BitmapIndex &index = mined.index;

    // Causes that pass all four thresholds, in rank order.
    std::vector<RankedCause> passing;
    for (const auto &cause : result.fimTable)
        if (passesThresholds(cause.metrics, config_))
            passing.push_back(cause);

    if (mode == AnalysisMode::kFimOnly) {
        result.rootCauses = std::move(passing);
        accepted.add(result.rootCauses.size());
        return result;
    }

    result.associations = reduceCauses(passing);

    if (mode == AnalysisMode::kFimSetReduction) {
        for (const auto &assoc : result.associations)
            result.rootCauses.push_back(assoc.key);
        accepted.add(result.rootCauses.size());
        return result;
    }

    // Counterfactual analysis (Algorithm 1): walk associations in rank
    // order; re-check significance against flags with already-accepted
    // causes marked non-drift. Each re-check is two popcount passes
    // over the index (sharded over the runtime pool), and absorbing a
    // cause is `flags &= ~cause`. Acceptance and flag mutation stay
    // strictly sequential in rank order — each re-check must observe
    // every higher-ranked cause's absorption, so this stage's
    // dependency chain is inherent to the algorithm. Every cause here
    // passed the occurrence threshold, so its attributes are frequent
    // singles and the index holds them.
    NAZAR_SPAN("rca.walk");
    for (const auto &assoc : result.associations) {
        CauseMetrics current =
            computeMetrics(index, flags, assoc.key.attrs);
        if (passesThresholds(current, config_)) {
            // Still significant after higher-ranked causes explained
            // their share: accept, then absorb its evidence.
            RankedCause accepted = assoc.key;
            accepted.metrics = current;
            result.rootCauses.push_back(std::move(accepted));
            index.clearRows(flags, assoc.key.attrs);
        } else {
            // The coarse key is explained away; its finer merged
            // causes may still carry independent signal.
            for (const auto &fine : assoc.merged) {
                CauseMetrics fm = computeMetrics(index, flags, fine.attrs);
                if (passesThresholds(fm, config_)) {
                    RankedCause accepted = fine;
                    accepted.metrics = fm;
                    result.rootCauses.push_back(std::move(accepted));
                    index.clearRows(flags, fine.attrs);
                }
            }
        }
    }
    accepted.add(result.rootCauses.size());
    return result;
}

} // namespace nazar::rca
