/**
 * @file
 * The vertical bitmap layout of the RCA counting passes (Eclat-style,
 * Zaki 2000): one bit per drift-log row, packed into 64-bit words.
 *
 * An attribute set's support is the popcount of the AND of its
 * members' row bitsets, and its drifted support is the popcount of
 * that AND with the drift-flag bitset. Counts are integers, so the
 * metrics derived from them are bit-identical to any row-at-a-time
 * count of the same sets.
 *
 * RowBitset is the one drift-flag type of the RCA pass: the miner,
 * computeMetrics and the counterfactual walk all take it. A
 * BitmapIndex holds the row bitsets of a chosen set of single
 * attributes; it is built per analysis call from the dictionary-id
 * columns and never stored with the table.
 *
 * Every scan here runs over whole words in chunks of kRowGrain rows
 * (a multiple of 64), so chunks never share a word: parallel builds
 * write disjoint words and parallel counts merge integer partials in
 * chunk order. Results are bit-identical at every NAZAR_THREADS
 * setting.
 */
#ifndef NAZAR_RCA_BITMAP_INDEX_H
#define NAZAR_RCA_BITMAP_INDEX_H

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "rca/attribute_set.h"
#include "runtime/thread_pool.h"

namespace nazar::rca {

/**
 * Rows per chunk for the sharded table scans. Fixed (never derived
 * from the thread count), so the chunk layout — and therefore every
 * per-chunk partial and the chunk-ordered merge — is identical at any
 * NAZAR_THREADS setting. A multiple of 64, so chunks are word-aligned.
 */
constexpr size_t kRowGrain = 4096;

/**
 * Minimum row count before a scan engages the thread pool. Below this
 * the batch dispatch overhead dominates (the counterfactual walk
 * counts once per candidate cause, often on small logs). The cutoff
 * only selects between running the identical per-chunk kernel inline
 * or on the pool, so results are bit-identical either way.
 */
constexpr size_t kParallelRowCutoff = 2 * kRowGrain;

/**
 * Chunk-ordered reduce over table rows: below the cutoff the map
 * kernel runs once over [0, n) on the caller (the exact sequential
 * path); above it, per-chunk partials are combined in ascending chunk
 * order by runtime::parallelReduce.
 */
template <typename T, typename Map, typename Combine>
T
rowReduce(size_t n, T identity, Map &&map, Combine &&combine)
{
    if (n < kParallelRowCutoff)
        return map(size_t{0}, n);
    return runtime::parallelReduce<T>(0, n, kRowGrain,
                                      std::move(identity), map, combine);
}

/** One bit per row; bits past size() in the tail word stay zero. */
class RowBitset
{
  public:
    using Word = uint64_t;
    static constexpr size_t kWordBits = 64;

    RowBitset() = default;
    /** All-clear bitset over @p rows rows. */
    explicit RowBitset(size_t rows)
        : rows_(rows), words_((rows + kWordBits - 1) / kWordBits, 0)
    {
    }

    size_t size() const { return rows_; }
    size_t wordCount() const { return words_.size(); }

    bool
    test(size_t row) const
    {
        return (words_[row / kWordBits] >> (row % kWordBits)) & 1u;
    }

    void
    set(size_t row, bool value = true)
    {
        Word bit = Word{1} << (row % kWordBits);
        if (value)
            words_[row / kWordBits] |= bit;
        else
            words_[row / kWordBits] &= ~bit;
    }

    /** Number of set bits. */
    size_t count() const;

    const Word *words() const { return words_.data(); }
    Word *words() { return words_.data(); }

    bool operator==(const RowBitset &other) const = default;

  private:
    size_t rows_ = 0;
    std::vector<Word> words_;
};

/** Row and drifted-row counts of one attribute set. */
struct SetCounts
{
    size_t rows = 0;  ///< Rows containing the set.
    size_t drift = 0; ///< Of those, rows whose drift flag is set.
};

/**
 * Row bitsets of a fixed collection of single attributes over one
 * table. Built in one pass per constrained column.
 */
class BitmapIndex
{
  public:
    BitmapIndex() = default;

    /**
     * Index @p singles over @p table. A single whose value is absent
     * from its column's dictionary gets an all-clear bitset, so sets
     * containing it count zero rows.
     */
    BitmapIndex(const driftlog::Table &table,
                const std::vector<Attribute> &singles);

    /** Row count of the indexed table. */
    size_t rows() const { return rows_; }

    /**
     * Counts of every set in @p sets against @p drift_flags, in one
     * sharded pass. Every attribute of every set must be indexed; the
     * empty set contains every row.
     */
    std::vector<SetCounts> count(const std::vector<AttributeSet> &sets,
                                 const RowBitset &drift_flags) const;

    /** Clear the flags of every row containing @p set (flags &= ~set). */
    void clearRows(RowBitset &flags, const AttributeSet &set) const;

  private:
    /** The member bitsets' words; checks every member is indexed. */
    std::vector<const RowBitset::Word *>
    members(const AttributeSet &set) const;

    size_t rows_ = 0;
    std::map<Attribute, RowBitset> bits_;
};

} // namespace nazar::rca

#endif // NAZAR_RCA_BITMAP_INDEX_H
