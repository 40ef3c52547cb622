/**
 * @file
 * Frequent itemset mining over the drift log (paper §3.3, apriori).
 *
 * The miner computes, for every candidate attribute set, the four
 * metrics of the paper's Table 3 — occurrence, support, confidence and
 * risk ratio — prunes candidates level-by-level (apriori downward
 * closure on occurrence), filters by the four thresholds, and ranks
 * survivors by risk ratio.
 *
 * Level 1 is one histogram pass per attribute column over the
 * dictionary ids: dense per-id count arrays emitted in id order
 * (== sorted Value order). Levels 2+ count in the vertical bitmap
 * layout (bitmap_index.h): each frequent single gets a row bitset,
 * built once per call, and a candidate's support is the popcount of
 * the AND of its members' bitsets — its drifted support the popcount
 * of that AND with the drift-flag bitset. computeMetrics and the
 * counterfactual walk count the same way. Every scan is sharded over
 * src/runtime/ in word-aligned chunks with chunk-ordered integer
 * merges, so results are bit-identical at every NAZAR_THREADS setting.
 *
 * mineReference keeps the row-by-row, Value-comparing pass as the
 * oracle; it is the only row-scan counting path left.
 */
#ifndef NAZAR_RCA_FIM_H
#define NAZAR_RCA_FIM_H

#include <vector>

#include "rca/bitmap_index.h"

namespace nazar::rca {

/** Root-cause analysis thresholds (paper defaults, §3.3). */
struct RcaConfig
{
    /** Metadata columns that may form causes (default: drift-log
     *  attribute columns). Must be set by the caller. */
    std::vector<std::string> attributeColumns;
    /** Name of the boolean detection column. */
    std::string driftColumn = "drift";

    size_t maxAttributes = 3;     ///< Max attrs per cause (prior work).
    double minOccurrence = 0.01;  ///< Paper default.
    double minSupport = 0.01;     ///< Paper default.
    double minConfidence = 0.51;  ///< Paper default.
    double minRiskRatio = 1.1;    ///< Paper default.
};

/** The four FIM metrics of one attribute set (paper Table 3). */
struct CauseMetrics
{
    double occurrence = 0.0; ///< P(set) over all entries.
    double support = 0.0;    ///< P(set | drift).
    double confidence = 0.0; ///< P(drift | set).
    double riskRatio = 0.0;  ///< P(drift | set) / P(drift | !set).

    size_t setCount = 0;      ///< Entries containing the set.
    size_t setDriftCount = 0; ///< Drifted entries containing the set.
};

/** A candidate root cause with its metrics. */
struct RankedCause
{
    AttributeSet attrs;
    CauseMetrics metrics;
};

/**
 * Compute the four metrics of one attribute set using externally
 * supplied drift flags (the counterfactual pass re-evaluates causes
 * after clearing flags, paper §3.3). Every attribute of the set must
 * be indexed in @p index.
 */
CauseMetrics computeMetrics(const BitmapIndex &index,
                            const RowBitset &drift_flags,
                            const AttributeSet &attrs);

/**
 * computeMetrics for a caller without an index: indexes the set's own
 * attributes first. A value absent from its column gives setCount 0.
 */
CauseMetrics computeMetrics(const driftlog::Table &table,
                            const RowBitset &drift_flags,
                            const AttributeSet &attrs);

/** True when the metrics pass all four thresholds. */
bool passesThresholds(const CauseMetrics &metrics, const RcaConfig &config);

/**
 * Frequent itemset miner. The mine() entry point runs the full apriori
 * pass and returns every candidate that passed the occurrence pruning,
 * ranked by risk ratio (descending; confidence, occurrence and set
 * size break ties), together with its metrics. Filtering by the
 * remaining thresholds is the caller's choice — the analyzer keeps
 * passing causes, while benchmarks can display the full table (as the
 * paper's Table 3 does).
 */
class Fim
{
  public:
    Fim(const driftlog::Table &table, const RcaConfig &config);

    /** mine()'s ranked table and the bitmap index it counted over. */
    struct Mined
    {
        std::vector<RankedCause> causes;
        /** Row bitsets of every frequent single (occurrence >=
         *  minOccurrence) — a superset of the attributes of any cause
         *  that passes the thresholds. */
        BitmapIndex index;
    };

    /**
     * Run apriori with the given drift flags (normally the table's own
     * drift column), keeping the index so the caller can count more
     * sets over it — the analyzer's counterfactual walk does.
     */
    Mined mineIndexed(const RowBitset &drift_flags) const;

    /** mineIndexed without the index. */
    std::vector<RankedCause> mine(const RowBitset &drift_flags) const;

    /** Convenience: mine with the table's stored drift column. */
    std::vector<RankedCause> mine() const;

    /**
     * The retained row-scan miner: identical apriori structure and
     * chunking, but every candidate probe compares whole Values, row
     * by row, over materialized column vectors instead of counting
     * bitsets. Semantic oracle for differential tests (must match
     * mine() bit-for-bit) and the baseline for the RCA scaling
     * benchmark. Materialization cost is the caller's to exclude from
     * timings (it happens up front, before the scans).
     */
    std::vector<RankedCause>
    mineReference(const RowBitset &drift_flags) const;

    /** Convenience: mineReference with the stored drift column. */
    std::vector<RankedCause> mineReference() const;

    /**
     * Extract the drift column as a flag bitset. Each dictionary id is
     * decoded once; rows map through their ids.
     */
    static RowBitset driftFlags(const driftlog::Table &table,
                                const std::string &drift_column);

  private:
    const driftlog::Table &table_;
    const RcaConfig &config_;
};

/** Rank comparison: higher risk ratio first, then confidence, then
 *  occurrence, then smaller (coarser) sets. */
bool rankBefore(const RankedCause &a, const RankedCause &b);

} // namespace nazar::rca

#endif // NAZAR_RCA_FIM_H
