/**
 * @file
 * The full root-cause analysis pipeline (paper §3.3, Algorithm 1):
 * FIM -> set reduction -> counterfactual analysis.
 *
 * The counterfactual pass walks the coarse associations in rank order.
 * For each, it re-evaluates the cause's metrics against a *modified*
 * drift-flag vector in which entries explained by already-accepted
 * causes have been marked non-drifted. A cause that is still
 * statistically significant after the higher-ranked causes "took" its
 * overlapping evidence is a genuine independent root cause; otherwise
 * its merged finer causes get the same chance.
 *
 * The drift flags are one RowBitset and the walk's re-checks are
 * popcounts over the bitmap index the miner built (see fim.h); the
 * walk itself — acceptance decisions and drift-flag absorption
 * (`flags &= ~cause`) — is sequential in rank order by design.
 */
#ifndef NAZAR_RCA_ANALYZER_H
#define NAZAR_RCA_ANALYZER_H

#include "rca/fim.h"
#include "rca/set_reduction.h"

namespace nazar::rca {

/** Which pipeline stages run — the ablation axis of Table 5/Fig 8c. */
enum class AnalysisMode {
    kFimOnly,             ///< Every thresholded FIM cause is a result.
    kFimSetReduction,     ///< FIM + set reduction, no counterfactual.
    kFull,                ///< FIM + set reduction + counterfactual.
};

/** Printable mode name. */
std::string toString(AnalysisMode mode);

/** Outcome of one analysis run. */
struct AnalysisResult
{
    /** Final root causes, in acceptance (rank) order. */
    std::vector<RankedCause> rootCauses;
    /** The full ranked FIM table (diagnostics / Table 3 display). */
    std::vector<RankedCause> fimTable;
    /** Coarse associations after set reduction (diagnostics). */
    std::vector<CoarseAssociation> associations;
};

/** Root-cause analyzer over a drift-log table. */
class Analyzer
{
  public:
    explicit Analyzer(RcaConfig config);

    /**
     * Run the pipeline over a drift-log table.
     * @param table Drift log (must contain the configured columns).
     * @param mode  Which stages run (default: the full pipeline).
     */
    AnalysisResult analyze(const driftlog::Table &table,
                           AnalysisMode mode = AnalysisMode::kFull) const;

    const RcaConfig &config() const { return config_; }

  private:
    RcaConfig config_;
};

} // namespace nazar::rca

#endif // NAZAR_RCA_ANALYZER_H
