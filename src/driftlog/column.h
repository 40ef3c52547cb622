/**
 * @file
 * Dictionary-encoded column — the storage unit of the drift-log
 * column store.
 *
 * Every column keeps a sorted dictionary of its distinct cell values
 * and stores the rows as a dense vector of dictionary ids. The
 * dictionary is sorted by Value's total order and ids are assigned in
 * dictionary order, so
 *
 *     id(a) < id(b)  <=>  a < b        (id order == Value totalOrder)
 *
 * holds as a class invariant. Everything downstream leans on it:
 *
 *  - equality predicates resolve a literal to one id (or to "absent",
 *    which matches nothing) and compare uint32s per row;
 *  - range predicates (<, <=, >, >=) resolve to a half-open id
 *    interval via lowerBound/upperBound, again uint32 compares;
 *  - group-by aggregates count into dense per-id arrays and emit in
 *    id order, which is exactly the sorted Value order the old
 *    std::map<Value, ...> aggregations produced — bit-for-bit;
 *  - distinct() is a read of the dictionary, no per-call sort.
 *
 * NULL cells are ordinary dictionary entries (Value{} sorts below
 * every typed value in the total order), so the invariant covers them
 * with no sentinel; nullCount() tracks how many rows are NULL.
 *
 * Appends are expected O(1): a hash index finds a known value's id,
 * and a new distinct value is assigned the next free id, with the
 * column marked unsorted unless the value extends the dictionary at
 * the top. The index holds ids only (open addressing over a flat slot
 * array, hashed with ValueHash, which agrees with Value equality), so
 * each distinct value is stored once, in the dictionary. A string
 * cell is looked up by std::string_view (appendString): a known
 * string costs no allocation and a new one exactly one, its
 * dictionary entry. The first read after such an append
 * re-establishes the invariant in one O(n + m log m) normalization
 * pass: sort the dictionary, re-id it in sorted order, remap the row
 * ids and the index. Amortized over a batch of appends this is one remap per read
 * barrier, independent of how many distinct values arrived —
 * high-cardinality columns (e.g. the drift log's time strings) build
 * in O(n) hashed probes plus one sort per barrier.
 *
 * Thread contract: mutation (append/clear) and the *first* read after
 * a mutation are not synchronized internally; callers must order them
 * before any concurrent reads. All call sites do — the RCA scans and
 * the query executor resolve columns on the dispatching thread before
 * fanning out, and the runtime pool's batch publish provides the
 * happens-before edge to the workers.
 */
#ifndef NAZAR_DRIFTLOG_COLUMN_H
#define NAZAR_DRIFTLOG_COLUMN_H

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "driftlog/value.h"

namespace nazar::driftlog {

/** One dictionary-encoded column of a table. */
class Column
{
  public:
    /** Dense dictionary id of a cell value within its column. */
    using Id = uint32_t;

    explicit Column(ValueType type) : type_(type) {}

    /**
     * Adopt an already-encoded column: a sorted @p dictionary and the
     * per-row @p ids into it (the parts dictionary()/ids() return).
     * Checks the class invariant instead of rebuilding it, so no
     * per-row Value is materialized: the dictionary must be strictly
     * ascending in Value total order with every entry NULL or of
     * @p type, every id must be below the dictionary size, and every
     * entry must be referenced by some row. Throws NazarError
     * otherwise. O(n + m).
     */
    Column(ValueType type, std::vector<Value> dictionary,
           std::vector<Id> ids);

    /** Declared type of the column (cells are this type or NULL). */
    ValueType type() const { return type_; }

    /** Number of rows. */
    size_t size() const { return ids_.size(); }

    /** Number of NULL rows. */
    size_t nullCount() const { return nullCount_; }

    // ---- dictionary -----------------------------------------------

    /** Number of distinct cell values (NULL counts as one entry). */
    size_t dictSize() const
    {
        ensureSorted();
        return dict_.size();
    }

    /** Dictionary value of an id. Ids are dense: 0 <= id < dictSize(),
     *  and dictionary order equals Value total order. */
    const Value &dictValue(Id id) const;

    /** The sorted dictionary itself. Every entry is referenced by at
     *  least one row (values only enter via append). */
    const std::vector<Value> &dictionary() const
    {
        ensureSorted();
        return dict_;
    }

    /**
     * Id of an exact value, or nullopt when the value never occurs in
     * the column. Predicate binding uses the absent case to
     * short-circuit an equality to zero rows without any scan.
     */
    std::optional<Id> idOf(const Value &v) const;

    /** First id whose dictionary value is >= v (dictSize() when none).
     *  With the ordering invariant, `cell < v` over rows is exactly
     *  `id < lowerBound(v)`. */
    Id lowerBound(const Value &v) const;

    /** First id whose dictionary value is > v (dictSize() when none). */
    Id upperBound(const Value &v) const;

    // ---- rows ------------------------------------------------------

    /** Per-row dictionary ids — the typed integer spine the vectorized
     *  executor and the FIM probes scan. */
    const std::vector<Id> &ids() const
    {
        ensureSorted();
        return ids_;
    }

    /** Dictionary id of one row. */
    Id idAt(size_t row) const;

    /** Cell value of one row (a dictionary read). */
    const Value &at(size_t row) const;

    /** Decode the whole column into a Value vector — the compatibility
     *  view for row-at-a-time oracles and pre-dictionary call sites. */
    std::vector<Value> materialize() const;

    // ---- mutation --------------------------------------------------

    /**
     * Append one cell. The value must be NULL or match the column
     * type; numeric widening is the Table's job and has already
     * happened. Expected O(1); may leave the dictionary unsorted until
     * the next read.
     */
    void append(Value v);

    /**
     * Append one string cell without owning it: the same cell
     * append(Value(std::string(s))) adds, but the string is copied
     * only when it is new to the dictionary. The column must be of
     * string type.
     */
    void appendString(std::string_view s);

    /** Drop all rows and the dictionary (type retained). */
    void clear();

  private:
    /** One index slot: a dictionary id and the low bits of its hash. */
    struct Slot
    {
        Id id;
        uint32_t hash;
    };

    /** Marks an empty slot; never a dictionary id (see the overflow
     *  check on insert). */
    static constexpr Id kEmptySlot = ~Id{0};

    /** Re-establish id order == Value totalOrder after appends that
     *  introduced out-of-order dictionary entries. Const because every
     *  read path triggers it; see the thread contract above. */
    void ensureSorted() const;

    /** The slot holding the entry @p same accepts, or the empty slot
     *  where it would go (linear probing from @p hash). */
    template <typename Same>
    size_t findSlot(size_t hash, Same &&same) const;

    /** Append the row whose lookup ended at @p slot; a miss adds
     *  make() to the dictionary under the next free id. */
    template <typename Make>
    void appendAt(size_t slot, size_t hash, Make &&make);

    /** Put every dictionary id into an index of @p slots slots. */
    void rebuildIndex(size_t slots);

    ValueType type_;
    size_t nullCount_ = 0;
    /**
     * Open-addressing hash index over dict_: a power-of-two slot array
     * (empty until the first append), at most half full, holding ids
     * only. Normalization rewrites the ids in place.
     */
    mutable std::vector<Slot> index_;
    /** id -> value; sorted ascending whenever sorted_ is true. */
    mutable std::vector<Value> dict_;
    mutable std::vector<Id> ids_;
    mutable bool sorted_ = true;
};

} // namespace nazar::driftlog

#endif // NAZAR_DRIFTLOG_COLUMN_H
