/**
 * @file
 * Implementation of the dictionary-encoded column.
 */
#include "column.h"

#include <algorithm>
#include <bit>

#include "common/error.h"

namespace nazar::driftlog {

Column::Column(ValueType type, std::vector<Value> dictionary,
               std::vector<Id> ids)
    : type_(type), dict_(std::move(dictionary)), ids_(std::move(ids))
{
    NAZAR_CHECK(dict_.size() < static_cast<size_t>(kEmptySlot),
                "column dictionary overflow");
    for (size_t i = 0; i < dict_.size(); ++i) {
        NAZAR_CHECK(dict_[i].isNull() || dict_[i].type() == type_,
                    "dictionary entry type does not match column type");
        NAZAR_CHECK(i == 0 || dict_[i - 1] < dict_[i],
                    "column dictionary is not strictly ascending");
    }
    if (!dict_.empty())
        rebuildIndex(
            std::bit_ceil(std::max<size_t>(16, 2 * dict_.size())));
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

template <typename Same>
size_t
Column::findSlot(size_t hash, Same &&same) const
{
    const size_t mask = index_.size() - 1;
    const auto tag = static_cast<uint32_t>(hash);
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
        const Slot &slot = index_[i];
        if (slot.id == kEmptySlot ||
            (slot.hash == tag && same(dict_[slot.id])))
            return i;
    }
}

void
Column::rebuildIndex(size_t slots)
{
    // The stored low hash bits place each id: slot counts stay far
    // below 2^32 (at most twice the dictionary, itself below 2^32).
    NAZAR_CHECK(slots <= (size_t{1} << 32), "column index overflow");
    std::vector<Slot> old = std::move(index_);
    index_.assign(slots, Slot{kEmptySlot, 0});
    const size_t mask = slots - 1;
    auto place = [this, mask](Slot slot) {
        size_t i = slot.hash & mask;
        while (index_[i].id != kEmptySlot)
            i = (i + 1) & mask;
        index_[i] = slot;
    };
    if (!old.empty()) {
        for (const Slot &slot : old)
            if (slot.id != kEmptySlot)
                place(slot);
        return;
    }
    for (size_t id = 0; id < dict_.size(); ++id)
        place(Slot{static_cast<Id>(id),
                   static_cast<uint32_t>(dict_[id].hash())});
}

std::optional<Column::Id>
Column::idOf(const Value &v) const
{
    ensureSorted();
    if (index_.empty())
        return std::nullopt;
    Id id = index_[findSlot(v.hash(), [&v](const Value &d) {
                return d == v;
            })].id;
    if (id == kEmptySlot)
        return std::nullopt;
    return id;
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

template <typename Make>
void
Column::appendAt(size_t slot, size_t hash, Make &&make)
{
    Id id = index_[slot].id;
    if (id == kEmptySlot) {
        NAZAR_CHECK(dict_.size() < static_cast<size_t>(kEmptySlot),
                    "column dictionary overflow");
        // New values take the next free id. Appending above the
        // current maximum (monotone columns: day indices, timestamps)
        // keeps the dictionary sorted in place; anything else defers
        // the re-id to the next read's normalization pass.
        Value v = make();
        if (!dict_.empty() && !(dict_.back() < v))
            sorted_ = false;
        id = static_cast<Id>(dict_.size());
        dict_.push_back(std::move(v));
        index_[slot] = Slot{id, static_cast<uint32_t>(hash)};
        if (2 * dict_.size() > index_.size())
            rebuildIndex(2 * index_.size());
    }
    if (dict_[id].isNull())
        ++nullCount_;
    ids_.push_back(id);
}

void
Column::append(Value v)
{
    NAZAR_CHECK(v.isNull() || v.type() == type_,
                "cell type does not match column type");
    if (index_.empty())
        rebuildIndex(16);
    const size_t hash = v.hash();
    size_t slot =
        findSlot(hash, [&v](const Value &d) { return d == v; });
    appendAt(slot, hash, [&v] { return std::move(v); });
}

void
Column::appendString(std::string_view s)
{
    NAZAR_CHECK(type_ == ValueType::kString,
                "cell type does not match column type");
    if (index_.empty())
        rebuildIndex(16);
    const size_t hash = ValueHash{}(s);
    size_t slot = findSlot(
        hash, [s](const Value &d) { return d.equalsString(s); });
    appendAt(slot, hash, [s] { return Value(std::string(s)); });
}

void
Column::clear()
{
    std::fill(index_.begin(), index_.end(), Slot{kEmptySlot, 0});
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
    for (Slot &slot : index_)
        if (slot.id != kEmptySlot)
            slot.id = remap[slot.id];
    for (Id &id : ids_)
        id = remap[id];
    sorted_ = true;
}

} // namespace nazar::driftlog
