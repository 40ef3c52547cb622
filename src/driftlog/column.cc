/**
 * @file
 * Implementation of the dictionary-encoded column.
 */
#include "column.h"

#include <algorithm>
#include <limits>

#include "common/error.h"

namespace nazar::driftlog {

Column::Column(ValueType type, std::vector<Value> dictionary,
               std::vector<Id> ids)
    : type_(type), dict_(std::move(dictionary)), ids_(std::move(ids))
{
    NAZAR_CHECK(dict_.size() <
                    static_cast<size_t>(std::numeric_limits<Id>::max()),
                "column dictionary overflow");
    index_.reserve(dict_.size());
    for (size_t i = 0; i < dict_.size(); ++i) {
        NAZAR_CHECK(dict_[i].isNull() || dict_[i].type() == type_,
                    "dictionary entry type does not match column type");
        NAZAR_CHECK(i == 0 || dict_[i - 1] < dict_[i],
                    "column dictionary is not strictly ascending");
        index_.emplace(dict_[i], static_cast<Id>(i));
    }
    std::vector<bool> referenced(dict_.size(), false);
    for (Id id : ids_) {
        NAZAR_CHECK(id < dict_.size(), "column id out of range");
        referenced[id] = true;
    }
    NAZAR_CHECK(std::find(referenced.begin(), referenced.end(), false) ==
                    referenced.end(),
                "column dictionary has an unreferenced entry");
    // NULL sorts below every typed value: it can only be entry 0.
    if (!dict_.empty() && dict_[0].isNull())
        nullCount_ = static_cast<size_t>(
            std::count(ids_.begin(), ids_.end(), Id{0}));
}

const Value &
Column::dictValue(Id id) const
{
    ensureSorted();
    NAZAR_CHECK(id < dict_.size(), "dictionary id out of range");
    return dict_[id];
}

std::optional<Column::Id>
Column::idOf(const Value &v) const
{
    ensureSorted();
    auto it = index_.find(v);
    if (it == index_.end())
        return std::nullopt;
    return it->second;
}

Column::Id
Column::lowerBound(const Value &v) const
{
    ensureSorted();
    return static_cast<Id>(
        std::lower_bound(dict_.begin(), dict_.end(), v) - dict_.begin());
}

Column::Id
Column::upperBound(const Value &v) const
{
    ensureSorted();
    return static_cast<Id>(
        std::upper_bound(dict_.begin(), dict_.end(), v) - dict_.begin());
}

Column::Id
Column::idAt(size_t row) const
{
    ensureSorted();
    NAZAR_CHECK(row < ids_.size(), "row out of range");
    return ids_[row];
}

const Value &
Column::at(size_t row) const
{
    ensureSorted();
    NAZAR_CHECK(row < ids_.size(), "row out of range");
    return dict_[ids_[row]];
}

std::vector<Value>
Column::materialize() const
{
    ensureSorted();
    std::vector<Value> out;
    out.reserve(ids_.size());
    for (Id id : ids_)
        out.push_back(dict_[id]);
    return out;
}

void
Column::append(Value v)
{
    NAZAR_CHECK(v.isNull() || v.type() == type_,
                "cell type does not match column type");
    const bool is_null = v.isNull();
    auto [it, inserted] =
        index_.try_emplace(v, static_cast<Id>(dict_.size()));
    if (inserted) {
        NAZAR_CHECK(dict_.size() <
                        static_cast<size_t>(
                            std::numeric_limits<Id>::max()),
                    "column dictionary overflow");
        // New values take the next free id. Appending above the
        // current maximum (monotone columns: day indices, timestamps)
        // keeps the dictionary sorted in place; anything else defers
        // the re-id to the next read's normalization pass.
        if (!dict_.empty() && !(dict_.back() < v))
            sorted_ = false;
        dict_.push_back(std::move(v));
    }
    if (is_null)
        ++nullCount_;
    ids_.push_back(it->second);
}

void
Column::clear()
{
    index_.clear();
    dict_.clear();
    ids_.clear();
    nullCount_ = 0;
    sorted_ = true;
}

void
Column::ensureSorted() const
{
    if (sorted_)
        return;
    // Sort the old ids by their values (Value total order), give each
    // its rank as the fresh dense id, then remap the row ids and the
    // index through old -> new.
    std::vector<Id> order(dict_.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<Id>(i);
    std::sort(order.begin(), order.end(),
              [this](Id a, Id b) { return dict_[a] < dict_[b]; });
    std::vector<Id> remap(dict_.size());
    std::vector<Value> sorted_dict;
    sorted_dict.reserve(dict_.size());
    for (size_t rank = 0; rank < order.size(); ++rank) {
        remap[order[rank]] = static_cast<Id>(rank);
        sorted_dict.push_back(std::move(dict_[order[rank]]));
    }
    dict_ = std::move(sorted_dict);
    for (auto &[value, id] : index_)
        id = remap[id];
    for (Id &id : ids_)
        id = remap[id];
    sorted_ = true;
}

} // namespace nazar::driftlog
