/**
 * @file
 * Implementation of the apriori frequent-itemset miner.
 *
 * Two executions of the same algorithm live here:
 *
 *  - mine(): the production path. Level 1 counts dense per-id
 *    histograms over the dictionary-id columns; levels 2+ build one
 *    row bitset per frequent single (bitmap_index.h) and count each
 *    candidate as popcounts of the AND of its members' bitsets.
 *
 *  - mineReference(): the retained row-scan path, comparing whole
 *    Values row by row over materialized column vectors with
 *    Value-keyed level-1 maps. Same candidate generation, same
 *    integer counts — which is what makes it a bit-for-bit oracle and
 *    the baseline for the scaling benchmark.
 */
#include "fim.h"

#include <algorithm>
#include <limits>
#include <map>

#include "common/error.h"
#include "obs/span.h"

namespace nazar::rca {

namespace {

/** Derive the four metrics from raw counts. */
CauseMetrics
metricsFromCounts(size_t set_count, size_t set_drift, size_t total_rows,
                  size_t total_drift)
{
    CauseMetrics m;
    m.setCount = set_count;
    m.setDriftCount = set_drift;
    if (total_rows == 0)
        return m;
    m.occurrence =
        static_cast<double>(set_count) / static_cast<double>(total_rows);
    m.support = total_drift
                    ? static_cast<double>(set_drift) /
                          static_cast<double>(total_drift)
                    : 0.0;
    m.confidence = set_count
                       ? static_cast<double>(set_drift) /
                             static_cast<double>(set_count)
                       : 0.0;
    size_t not_set = total_rows - set_count;
    size_t drift_not_set = total_drift - set_drift;
    if (not_set == 0) {
        // The set covers every entry (a constant of the table), so
        // there is no contrast group: it cannot demonstrate elevated
        // risk and must not outrank genuine causes.
        m.riskRatio = 0.0;
    } else {
        double p_not = static_cast<double>(drift_not_set) /
                       static_cast<double>(not_set);
        if (p_not == 0.0) {
            m.riskRatio = m.confidence > 0.0
                              ? std::numeric_limits<double>::infinity()
                              : 0.0;
        } else {
            m.riskRatio = m.confidence / p_not;
        }
    }
    return m;
}

} // namespace

CauseMetrics
computeMetrics(const BitmapIndex &index, const RowBitset &drift_flags,
               const AttributeSet &attrs)
{
    NAZAR_SPAN("rca.metrics");
    SetCounts c = index.count({attrs}, drift_flags).front();
    return metricsFromCounts(c.rows, c.drift, index.rows(),
                             drift_flags.count());
}

CauseMetrics
computeMetrics(const driftlog::Table &table, const RowBitset &drift_flags,
               const AttributeSet &attrs)
{
    return computeMetrics(BitmapIndex(table, attrs.attributes()),
                          drift_flags, attrs);
}

bool
passesThresholds(const CauseMetrics &metrics, const RcaConfig &config)
{
    return metrics.occurrence >= config.minOccurrence &&
           metrics.support >= config.minSupport &&
           metrics.confidence >= config.minConfidence &&
           metrics.riskRatio >= config.minRiskRatio;
}

bool
rankBefore(const RankedCause &a, const RankedCause &b)
{
    if (a.metrics.riskRatio != b.metrics.riskRatio)
        return a.metrics.riskRatio > b.metrics.riskRatio;
    if (a.metrics.confidence != b.metrics.confidence)
        return a.metrics.confidence > b.metrics.confidence;
    if (a.metrics.occurrence != b.metrics.occurrence)
        return a.metrics.occurrence > b.metrics.occurrence;
    if (a.attrs.size() != b.attrs.size())
        return a.attrs.size() < b.attrs.size(); // coarser first
    return a.attrs < b.attrs;
}

Fim::Fim(const driftlog::Table &table, const RcaConfig &config)
    : table_(table), config_(config)
{
    NAZAR_CHECK(!config.attributeColumns.empty(),
                "RcaConfig.attributeColumns must be set");
    for (const auto &col : config.attributeColumns)
        NAZAR_CHECK(table.schema().has(col), "no such column: " + col);
    NAZAR_CHECK(table.schema().has(config.driftColumn),
                "no such drift column: " + config.driftColumn);
}

RowBitset
Fim::driftFlags(const driftlog::Table &table,
                const std::string &drift_column)
{
    const driftlog::Column &col = table.column(drift_column);
    std::vector<RowBitset::Word> is_drift(col.dictSize());
    for (size_t id = 0; id < is_drift.size(); ++id)
        is_drift[id] =
            col.dictValue(static_cast<driftlog::Column::Id>(id)).asBool();
    const driftlog::Column::Id *ids = col.ids().data();
    RowBitset flags(col.size());
    RowBitset::Word *words = flags.words();
    for (size_t w = 0; w < flags.wordCount(); ++w) {
        const size_t base = w * RowBitset::kWordBits;
        const size_t end = std::min(col.size(), base + RowBitset::kWordBits);
        RowBitset::Word word = 0;
        for (size_t r = base; r < end; ++r)
            word |= is_drift[ids[r]] << (r - base);
        words[w] = word;
    }
    return flags;
}

std::vector<RankedCause>
Fim::mine() const
{
    return mine(driftFlags(table_, config_.driftColumn));
}

std::vector<RankedCause>
Fim::mine(const RowBitset &drift_flags) const
{
    return mineIndexed(drift_flags).causes;
}

Fim::Mined
Fim::mineIndexed(const RowBitset &drift_flags) const
{
    NAZAR_SPAN("rca.fim.mine");
    NAZAR_CHECK(drift_flags.size() == table_.rowCount(),
                "drift-flag bitset must cover the table");
    const size_t n = table_.rowCount();
    const size_t total_drift = drift_flags.count();

    Mined mined;
    std::vector<RankedCause> &results = mined.causes;

    // ---- Level 1: one aggregation pass per attribute column --------
    // Each column's histogram is a dense per-id count array: chunks
    // accumulate into fixed-size vectors indexed by dictionary id and
    // the partials sum element-wise in ascending chunk order. Emission
    // walks the array in id order, which — by the Column invariant
    // (id order == Value total order) — is exactly the order a
    // Value-keyed map produces.
    using IdCounts = std::vector<std::pair<size_t, size_t>>;
    std::vector<Attribute> frequent_singles;
    std::vector<AttributeSet> frequent_prev;
    NAZAR_SPAN_BEGIN(level1_span, "rca.fim.level1");
    for (const auto &col_name : config_.attributeColumns) {
        const driftlog::Column &col = table_.column(col_name);
        const driftlog::Column::Id *ids = col.ids().data();
        const size_t dict_size = col.dictSize();
        IdCounts counts = rowReduce<IdCounts>(
            n, IdCounts(dict_size, {0, 0}),
            [&](size_t chunk_begin, size_t chunk_end) {
                IdCounts part(dict_size, {0, 0});
                for (size_t r = chunk_begin; r < chunk_end; ++r) {
                    auto &entry = part[ids[r]];
                    ++entry.first;
                    entry.second += drift_flags.test(r);
                }
                return part;
            },
            [](IdCounts acc, IdCounts part) {
                for (size_t i = 0; i < acc.size(); ++i) {
                    acc[i].first += part[i].first;
                    acc[i].second += part[i].second;
                }
                return acc;
            });
        for (size_t id = 0; id < counts.size(); ++id) {
            const auto &cnt = counts[id];
            if (cnt.first == 0)
                continue; // only possible on an empty table
            CauseMetrics m = metricsFromCounts(cnt.first, cnt.second, n,
                                               total_drift);
            AttributeSet set({Attribute{
                col_name,
                col.dictValue(static_cast<driftlog::Column::Id>(id))}});
            results.push_back(RankedCause{set, m});
            if (m.occurrence >= config_.minOccurrence) {
                frequent_singles.push_back(set.attributes().front());
                frequent_prev.push_back(std::move(set));
            }
        }
    }
    std::sort(frequent_singles.begin(), frequent_singles.end());
    level1_span.stop();

    // ---- Levels 2..maxAttributes ------------------------------------
    // The vertical index: one row bitset per frequent single. Every
    // candidate below is a conjunction of frequent singles, so one
    // AND + popcount pass per level counts them all.
    NAZAR_SPAN_BEGIN(levelk_span, "rca.fim.levelk");
    mined.index = BitmapIndex(table_, frequent_singles);
    for (size_t level = 2;
         level <= config_.maxAttributes && !frequent_prev.empty();
         ++level) {
        // Candidate generation: extend each frequent (k-1)-set with a
        // frequent single strictly greater than its last attribute and
        // over a column the set does not constrain yet.
        std::vector<AttributeSet> candidates;
        for (const auto &set : frequent_prev) {
            const Attribute &last = set.attributes().back();
            for (const auto &single : frequent_singles) {
                if (!(last < single))
                    continue;
                if (set.hasColumn(single.column))
                    continue;
                candidates.push_back(set.extended(single));
            }
        }
        if (candidates.empty())
            break;

        std::vector<SetCounts> totals =
            mined.index.count(candidates, drift_flags);
        std::vector<AttributeSet> frequent_now;
        for (size_t i = 0; i < candidates.size(); ++i) {
            CauseMetrics m = metricsFromCounts(
                totals[i].rows, totals[i].drift, n, total_drift);
            if (m.setCount == 0)
                continue; // combination never occurs; not a real set
            results.push_back(RankedCause{candidates[i], m});
            if (m.occurrence >= config_.minOccurrence)
                frequent_now.push_back(candidates[i]);
        }
        frequent_prev = std::move(frequent_now);
    }
    levelk_span.stop();

    std::sort(results.begin(), results.end(), rankBefore);
    return mined;
}

std::vector<RankedCause>
Fim::mineReference() const
{
    return mineReference(driftFlags(table_, config_.driftColumn));
}

std::vector<RankedCause>
Fim::mineReference(const RowBitset &drift_flags) const
{
    NAZAR_SPAN("rca.fim.mine_reference");
    NAZAR_CHECK(drift_flags.size() == table_.rowCount(),
                "drift-flag bitset must cover the table");
    const size_t n = table_.rowCount();
    size_t total_drift = 0;
    for (size_t r = 0; r < n; ++r)
        total_drift += drift_flags.test(r);

    // Decode every attribute column up front. The scans below then see
    // what the pre-dictionary implementation saw: contiguous Value
    // vectors. (Benchmarks exclude this step from timed regions.)
    std::map<std::string, std::vector<driftlog::Value>> decoded;
    for (const auto &col_name : config_.attributeColumns)
        decoded.emplace(col_name, table_.column(col_name).materialize());

    std::vector<RankedCause> results;

    // ---- Level 1: Value-keyed histogram per column ------------------
    // (The *_ref spans start after materialization, so span-based
    // dict-off timings exclude the one-off decode above.)
    using ValueCounts =
        std::map<driftlog::Value, std::pair<size_t, size_t>>;
    std::vector<Attribute> frequent_singles;
    std::vector<AttributeSet> frequent_prev;
    NAZAR_SPAN_BEGIN(level1_span, "rca.fim.level1_ref");
    for (const auto &col_name : config_.attributeColumns) {
        const std::vector<driftlog::Value> &col = decoded.at(col_name);
        ValueCounts counts = rowReduce<ValueCounts>(
            n, ValueCounts{},
            [&](size_t chunk_begin, size_t chunk_end) {
                ValueCounts part;
                for (size_t r = chunk_begin; r < chunk_end; ++r) {
                    auto &entry = part[col[r]];
                    ++entry.first;
                    entry.second += drift_flags.test(r);
                }
                return part;
            },
            [](ValueCounts acc, ValueCounts part) {
                for (auto &[value, cnt] : part) {
                    auto &entry = acc[value];
                    entry.first += cnt.first;
                    entry.second += cnt.second;
                }
                return acc;
            });
        for (const auto &[value, cnt] : counts) {
            CauseMetrics m = metricsFromCounts(cnt.first, cnt.second, n,
                                               total_drift);
            AttributeSet set({Attribute{col_name, value}});
            results.push_back(RankedCause{set, m});
            if (m.occurrence >= config_.minOccurrence) {
                frequent_singles.push_back(Attribute{col_name, value});
                frequent_prev.push_back(std::move(set));
            }
        }
    }
    std::sort(frequent_singles.begin(), frequent_singles.end());
    level1_span.stop();

    // ---- Levels 2..maxAttributes: Value-comparing probes ------------
    NAZAR_SPAN_BEGIN(levelk_span, "rca.fim.levelk_ref");
    for (size_t level = 2;
         level <= config_.maxAttributes && !frequent_prev.empty();
         ++level) {
        std::vector<AttributeSet> candidates;
        for (const auto &set : frequent_prev) {
            const Attribute &last = set.attributes().back();
            for (const auto &single : frequent_singles) {
                if (!(last < single))
                    continue;
                if (set.hasColumn(single.column))
                    continue;
                candidates.push_back(set.extended(single));
            }
        }
        if (candidates.empty())
            break;

        struct CandidateProbe
        {
            std::vector<const std::vector<driftlog::Value> *> cols;
            std::vector<const driftlog::Value *> wanted;
        };
        std::vector<CandidateProbe> probes(candidates.size());
        for (size_t i = 0; i < candidates.size(); ++i) {
            for (const auto &a : candidates[i].attributes()) {
                probes[i].cols.push_back(&decoded.at(a.column));
                probes[i].wanted.push_back(&a.value);
            }
        }
        using CountVec = std::vector<std::pair<size_t, size_t>>;
        CountVec totals = rowReduce<CountVec>(
            n, CountVec(probes.size(), {0, 0}),
            [&](size_t chunk_begin, size_t chunk_end) {
                CountVec part(probes.size(), {0, 0});
                for (size_t c = 0; c < probes.size(); ++c) {
                    const CandidateProbe &probe = probes[c];
                    size_t count = 0, drift = 0;
                    for (size_t r = chunk_begin; r < chunk_end; ++r) {
                        bool match = true;
                        for (size_t i = 0; i < probe.cols.size(); ++i) {
                            if (!((*probe.cols[i])[r] ==
                                  *probe.wanted[i])) {
                                match = false;
                                break;
                            }
                        }
                        if (match) {
                            ++count;
                            drift += drift_flags.test(r);
                        }
                    }
                    part[c] = {count, drift};
                }
                return part;
            },
            [](CountVec acc, CountVec part) {
                for (size_t i = 0; i < acc.size(); ++i) {
                    acc[i].first += part[i].first;
                    acc[i].second += part[i].second;
                }
                return acc;
            });

        std::vector<AttributeSet> frequent_now;
        for (size_t i = 0; i < candidates.size(); ++i) {
            CauseMetrics m = metricsFromCounts(
                totals[i].first, totals[i].second, n, total_drift);
            if (m.setCount == 0)
                continue;
            results.push_back(RankedCause{candidates[i], m});
            if (m.occurrence >= config_.minOccurrence)
                frequent_now.push_back(candidates[i]);
        }
        frequent_prev = std::move(frequent_now);
    }
    levelk_span.stop();

    std::sort(results.begin(), results.end(), rankBefore);
    return results;
}

} // namespace nazar::rca
