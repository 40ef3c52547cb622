/**
 * @file
 * Implementation of the RCA row bitsets, the per-call bitmap index and
 * the dispatched popcount kernels.
 *
 * The kernels have one always_inline body each, instantiated once per
 * instruction set: inside a `[[gnu::target("popcnt")]]` function
 * std::popcount compiles to the popcnt instruction, in the baseline
 * one to a libgcc call. The variant is picked once, at first use.
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

#define NAZAR_RCA_INLINE [[gnu::always_inline]] inline

/**
 * Per candidate, per block of up to 64 words: AND the members' words
 * into a local block (member-outer, so each AND is a straight
 * vectorizable loop), then popcount the block and its AND with the
 * drift flags.
 */
NAZAR_RCA_INLINE void
countTuplesBody(const Word *slab, size_t stride, const uint32_t *slots,
                size_t k, size_t candidates, const Word *flags, size_t wb,
                size_t we, SetCounts *out)
{
    constexpr size_t kBlock = 64;
    Word x[kBlock] = {};
    for (size_t c = 0; c < candidates; ++c, slots += k) {
        size_t rows = 0, drift = 0;
        for (size_t b = wb; b < we; b += kBlock) {
            const size_t nw = std::min(kBlock, we - b);
            const Word *m = slab + slots[0] * stride + b;
            for (size_t w = 0; w < nw; ++w)
                x[w] = m[w];
            for (size_t i = 1; i < k; ++i) {
                m = slab + slots[i] * stride + b;
                for (size_t w = 0; w < nw; ++w)
                    x[w] &= m[w];
            }
            const Word *f = flags + b;
            for (size_t w = 0; w < nw; ++w) {
                rows += static_cast<size_t>(std::popcount(x[w]));
                drift += static_cast<size_t>(std::popcount(x[w] & f[w]));
            }
        }
        out[c].rows += rows;
        out[c].drift += drift;
    }
}

NAZAR_RCA_INLINE size_t
onesBody(const Word *words, size_t n)
{
    size_t ones = 0;
    for (size_t w = 0; w < n; ++w)
        ones += static_cast<size_t>(std::popcount(words[w]));
    return ones;
}

#undef NAZAR_RCA_INLINE

void
countTuplesBaseline(const Word *slab, size_t stride, const uint32_t *slots,
                    size_t k, size_t candidates, const Word *flags,
                    size_t wb, size_t we, SetCounts *out)
{
    countTuplesBody(slab, stride, slots, k, candidates, flags, wb, we, out);
}

size_t
onesBaseline(const Word *words, size_t n)
{
    return onesBody(words, n);
}

#if defined(__x86_64__) || defined(__i386__)
[[gnu::target("popcnt")]] void
countTuplesPopcnt(const Word *slab, size_t stride, const uint32_t *slots,
                  size_t k, size_t candidates, const Word *flags,
                  size_t wb, size_t we, SetCounts *out)
{
    countTuplesBody(slab, stride, slots, k, candidates, flags, wb, we, out);
}

[[gnu::target("popcnt")]] size_t
onesPopcnt(const Word *words, size_t n)
{
    return onesBody(words, n);
}
#endif

} // namespace

std::vector<cpu_dispatch::Variant<count_kernel::Kernels>>
count_kernel::Kernels::detect()
{
    std::vector<cpu_dispatch::Variant<Kernels>> v;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("popcnt"))
        v.push_back({"popcnt", {&countTuplesPopcnt, &onesPopcnt}});
#endif
    v.push_back({"baseline", {&countTuplesBaseline, &onesBaseline}});
    return v;
}

size_t
RowBitset::count() const
{
    return cpu_dispatch::active<count_kernel::Kernels>().kernels.ones(
        words_.data(), words_.size());
}

BitmapIndex::BitmapIndex(const driftlog::Table &table,
                         std::vector<Attribute> singles)
    : rows_(table.rowCount()), words_((rows_ + kWordBits - 1) / kWordBits),
      singles_(std::move(singles))
{
    std::sort(singles_.begin(), singles_.end());
    singles_.erase(std::unique(singles_.begin(), singles_.end()),
                   singles_.end());
    slab_.assign(singles_.size() * words_, 0);

    // Per constrained column (a run of slots): its id vector and an
    // entry per dictionary id. Entry 0 collects every id that is not
    // indexed; the column's i-th present single has entry i + 1.
    // Resolved here, on the dispatching thread — the read barrier the
    // Column thread contract requires.
    struct ColumnPlan
    {
        const driftlog::Column::Id *ids = nullptr;
        std::vector<size_t> slotOf;
        std::vector<Word *> out;
    };
    std::vector<ColumnPlan> plans;
    for (size_t s = 0; s < singles_.size(); ++s) {
        const Attribute &a = singles_[s];
        const driftlog::Column &col = table.column(a.column);
        if (s == 0 || a.column != singles_[s - 1].column)
            plans.push_back(ColumnPlan{
                col.ids().data(), std::vector<size_t>(col.dictSize(), 0),
                {}});
        ColumnPlan &plan = plans.back();
        if (auto id = col.idOf(a.value)) {
            plan.out.push_back(slab_.data() + s * words_);
            plan.slotOf[*id] = plan.out.size();
        }
    }

    // One pass per column: each word of every indexed single's bitset
    // is assembled in a local and stored once. Chunks are
    // word-aligned, so parallel chunks write disjoint words.
    auto build = [&](size_t chunk_begin, size_t chunk_end) {
        std::vector<Word> local;
        for (const ColumnPlan &plan : plans) {
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

std::vector<uint32_t>
BitmapIndex::slotsOf(const AttributeSet &set) const
{
    std::vector<uint32_t> slots;
    for (const Attribute &a : set.attributes()) {
        auto it = std::lower_bound(singles_.begin(), singles_.end(), a);
        NAZAR_CHECK(it != singles_.end() && *it == a,
                    "bitmap index has no bitset for " + a.column + "=" +
                        a.value.toString());
        slots.push_back(static_cast<uint32_t>(it - singles_.begin()));
    }
    return slots;
}

std::vector<SetCounts>
BitmapIndex::countSlots(const std::vector<uint32_t> &slots, size_t k,
                        const RowBitset &drift_flags) const
{
    NAZAR_CHECK(drift_flags.size() == rows_,
                "drift-flag bitset must cover the table");
    NAZAR_CHECK(k > 0 && slots.size() % k == 0,
                "slot tuples must be packed k > 0 at a time");
    const size_t candidates = slots.size() / k;
    const count_kernel::Kernels &kernel =
        cpu_dispatch::active<count_kernel::Kernels>().kernels;
    const Word *flags = drift_flags.words();

    // Within a chunk the candidate is the outer loop: a chunk is 64
    // words per slot, so every slot's slice stays in L1 across
    // candidates.
    return rowReduce<std::vector<SetCounts>>(
        rows_, std::vector<SetCounts>(candidates),
        [&](size_t chunk_begin, size_t chunk_end) {
            std::vector<SetCounts> part(candidates);
            auto [wb, we] = wordRange(chunk_begin, chunk_end);
            kernel.countTuples(slab_.data(), words_, slots.data(), k,
                               candidates, flags, wb, we, part.data());
            return part;
        },
        [](std::vector<SetCounts> acc, std::vector<SetCounts> part) {
            for (size_t i = 0; i < acc.size(); ++i) {
                acc[i].rows += part[i].rows;
                acc[i].drift += part[i].drift;
            }
            return acc;
        });
}

SetCounts
BitmapIndex::count(const AttributeSet &set,
                   const RowBitset &drift_flags) const
{
    // The empty set constrains nothing: it contains every row.
    if (set.empty()) {
        NAZAR_CHECK(drift_flags.size() == rows_,
                    "drift-flag bitset must cover the table");
        return SetCounts{rows_, drift_flags.count()};
    }
    return countSlots(slotsOf(set), set.size(), drift_flags).front();
}

void
BitmapIndex::clearRows(RowBitset &flags, const AttributeSet &set) const
{
    NAZAR_CHECK(flags.size() == rows_,
                "drift-flag bitset must cover the table");
    NAZAR_CHECK(!set.empty(), "clearRows needs a non-empty set");
    std::vector<const Word *> members;
    for (uint32_t slot : slotsOf(set))
        members.push_back(slab_.data() + slot * words_);
    Word *f = flags.words();
    for (size_t w = 0; w < words_; ++w) {
        Word x = members[0][w];
        for (size_t i = 1; i < members.size(); ++i)
            x &= members[i][w];
        f[w] &= ~x;
    }
}

} // namespace nazar::rca
