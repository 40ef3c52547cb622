/**
 * @file
 * Implementation of the RCA row bitsets and the per-call bitmap index.
 */
#include "bitmap_index.h"

#include <algorithm>
#include <bit>

#include "common/error.h"

namespace nazar::rca {

namespace {

using Word = RowBitset::Word;
constexpr size_t kWordBits = RowBitset::kWordBits;

/** Words covering rows [begin, end); begin is word-aligned. */
std::pair<size_t, size_t>
wordRange(size_t begin, size_t end)
{
    return {begin / kWordBits, (end + kWordBits - 1) / kWordBits};
}

/** Counts of the conjunction of @p members over words [wb, we). */
SetCounts
countWords(const std::vector<const Word *> &members, const Word *flags,
           size_t wb, size_t we)
{
    SetCounts counts;
    const size_t k = members.size();
    for (size_t w = wb; w < we; ++w) {
        Word x = members[0][w];
        for (size_t i = 1; i < k; ++i)
            x &= members[i][w];
        counts.rows += static_cast<size_t>(std::popcount(x));
        counts.drift += static_cast<size_t>(std::popcount(x & flags[w]));
    }
    return counts;
}

} // namespace

size_t
RowBitset::count() const
{
    size_t n = 0;
    for (Word w : words_)
        n += static_cast<size_t>(std::popcount(w));
    return n;
}

BitmapIndex::BitmapIndex(const driftlog::Table &table,
                         const std::vector<Attribute> &singles)
    : rows_(table.rowCount())
{
    // Per constrained column: its id vector and a slot per dictionary
    // id. Slot 0 collects every id that is not indexed; the column's
    // i-th indexed single has slot i + 1. Resolved here, on the
    // dispatching thread — the read barrier the Column thread contract
    // requires.
    struct ColumnPlan
    {
        const driftlog::Column::Id *ids = nullptr;
        std::vector<size_t> slotOf;
        std::vector<Word *> out;
    };
    std::map<std::string, ColumnPlan> plans;
    for (const Attribute &a : singles) {
        auto [it, fresh] = bits_.try_emplace(a, rows_);
        if (!fresh)
            continue;
        const driftlog::Column &col = table.column(a.column);
        auto [pit, first] = plans.try_emplace(a.column);
        ColumnPlan &plan = pit->second;
        if (first) {
            plan.ids = col.ids().data();
            plan.slotOf.assign(col.dictSize(), 0);
        }
        if (auto id = col.idOf(a.value)) {
            plan.out.push_back(it->second.words());
            plan.slotOf[*id] = plan.out.size();
        }
    }

    // One pass per column: each word of every indexed single's bitset
    // is assembled in a local and stored once. Chunks are
    // word-aligned, so parallel chunks write disjoint words.
    auto build = [&](size_t chunk_begin, size_t chunk_end) {
        std::vector<Word> local;
        for (const auto &[name, plan] : plans) {
            local.assign(plan.out.size() + 1, 0);
            auto [wb, we] = wordRange(chunk_begin, chunk_end);
            for (size_t w = wb; w < we; ++w) {
                const size_t row_end =
                    std::min(chunk_end, (w + 1) * kWordBits);
                for (size_t r = w * kWordBits; r < row_end; ++r)
                    local[plan.slotOf[plan.ids[r]]] |= Word{1}
                                                       << (r % kWordBits);
                for (size_t s = 0; s < plan.out.size(); ++s) {
                    plan.out[s][w] = local[s + 1];
                    local[s + 1] = 0;
                }
            }
        }
    };
    if (rows_ < kParallelRowCutoff)
        build(0, rows_);
    else
        runtime::parallelFor(0, rows_, kRowGrain, build);
}

std::vector<const Word *>
BitmapIndex::members(const AttributeSet &set) const
{
    std::vector<const Word *> out;
    for (const Attribute &a : set.attributes()) {
        auto it = bits_.find(a);
        NAZAR_CHECK(it != bits_.end(),
                    "bitmap index has no bitset for " + a.column + "=" +
                        a.value.toString());
        out.push_back(it->second.words());
    }
    return out;
}

std::vector<SetCounts>
BitmapIndex::count(const std::vector<AttributeSet> &sets,
                   const RowBitset &drift_flags) const
{
    NAZAR_CHECK(drift_flags.size() == rows_,
                "drift-flag bitset must cover the table");
    std::vector<std::vector<const Word *>> conj;
    conj.reserve(sets.size());
    for (const AttributeSet &set : sets)
        conj.push_back(members(set));
    const Word *flags = drift_flags.words();

    // Within a chunk the set is the outer loop: a chunk is 64 words
    // per member, so every member's slice stays in L1 across sets.
    std::vector<SetCounts> totals = rowReduce<std::vector<SetCounts>>(
        rows_, std::vector<SetCounts>(sets.size()),
        [&](size_t chunk_begin, size_t chunk_end) {
            std::vector<SetCounts> part(sets.size());
            auto [wb, we] = wordRange(chunk_begin, chunk_end);
            for (size_t i = 0; i < conj.size(); ++i)
                if (!conj[i].empty())
                    part[i] = countWords(conj[i], flags, wb, we);
            return part;
        },
        [](std::vector<SetCounts> acc, std::vector<SetCounts> part) {
            for (size_t i = 0; i < acc.size(); ++i) {
                acc[i].rows += part[i].rows;
                acc[i].drift += part[i].drift;
            }
            return acc;
        });
    // The empty set constrains nothing: it contains every row.
    for (size_t i = 0; i < conj.size(); ++i)
        if (conj[i].empty())
            totals[i] = SetCounts{rows_, drift_flags.count()};
    return totals;
}

void
BitmapIndex::clearRows(RowBitset &flags, const AttributeSet &set) const
{
    NAZAR_CHECK(flags.size() == rows_,
                "drift-flag bitset must cover the table");
    NAZAR_CHECK(!set.empty(), "clearRows needs a non-empty set");
    std::vector<const Word *> m = members(set);
    Word *f = flags.words();
    for (size_t w = 0; w < flags.wordCount(); ++w) {
        Word x = m[0][w];
        for (size_t i = 1; i < m.size(); ++i)
            x &= m[i][w];
        f[w] &= ~x;
    }
}

} // namespace nazar::rca
