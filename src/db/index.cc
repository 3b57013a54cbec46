#include "db/index.h"

#include <algorithm>
#include <utility>

#include "db/bplus_tree.h"
#include "db/schema.h"
#include "db/value.h"

namespace clouddb::db {

namespace {

/// The smallest int64 x for which `pred(x)` holds, given a predicate that is
/// false below some point and true from there on; nullopt if it never holds.
/// Binary search over offsets from INT64_MIN, in unsigned arithmetic so the
/// span never overflows.
template <typename Pred>
std::optional<int64_t> FirstWhere(Pred pred) {
  if (!pred(INT64_MAX)) return std::nullopt;
  auto at = [](uint64_t offset) {
    return static_cast<int64_t>(offset ^ (uint64_t{1} << 63));
  };
  uint64_t lo = 0;
  uint64_t hi = UINT64_MAX;  // pred(at(hi)) holds
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (pred(at(mid))) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return at(lo);
}

/// The closed int64 range [lo, hi] an int64-keyed index must scan for Value
/// bounds. An int64 bound maps directly. Any other bound is derived from
/// Value::Compare itself — the first int64 the bound admits, or the last —
/// so the translation cannot disagree with Value's total order.
struct IntRange {
  int64_t lo = INT64_MIN;
  int64_t hi = INT64_MAX;
  bool empty = false;
};

IntRange ToIntRange(const Value* lo, bool lo_inclusive, const Value* hi,
                    bool hi_inclusive) {
  IntRange range;
  if (lo != nullptr) {
    if (lo->type() == ValueType::kInt64) {
      int64_t b = lo->AsInt64();
      range.empty = !lo_inclusive && b == INT64_MAX;
      range.lo = lo_inclusive || range.empty ? b : b + 1;
    } else {
      std::optional<int64_t> first = FirstWhere([&](int64_t x) {
        int c = Value::Compare(Value(x), *lo);
        return lo_inclusive ? c >= 0 : c > 0;
      });
      range.empty = !first.has_value();
      range.lo = first.value_or(INT64_MAX);
    }
  }
  if (hi != nullptr && !range.empty) {
    if (hi->type() == ValueType::kInt64) {
      int64_t b = hi->AsInt64();
      range.empty = !hi_inclusive && b == INT64_MIN;
      range.hi = hi_inclusive || range.empty ? b : b - 1;
    } else {
      // The first int64 above the bound; everything before it is admitted.
      std::optional<int64_t> rejected = FirstWhere([&](int64_t x) {
        int c = Value::Compare(Value(x), *hi);
        return hi_inclusive ? c > 0 : c >= 0;
      });
      range.empty = rejected == INT64_MIN;
      range.hi = rejected.has_value() && !range.empty ? *rejected - 1
                                                      : INT64_MAX;
    }
  }
  if (range.lo > range.hi) range.empty = true;
  return range;
}

/// The key of `v`'s entry in `tree`: int64-keyed trees hold only int64
/// values (see UsesIntKeys).
IndexKey<int64_t> KeyFor(const BPlusTree<IndexKey<int64_t>, RowId>&,
                         const Value& v, RowId tiebreak) {
  return {v.AsInt64(), tiebreak};
}

IndexKey<Value> KeyFor(const BPlusTree<IndexKey<Value>, RowId>&,
                       const Value& v, RowId tiebreak) {
  return {v, tiebreak};
}

}  // namespace

bool UsesIntKeys(const ColumnDef& column) {
  return column.type == ValueType::kInt64 && column.not_null;
}

Index::Index(std::string name, size_t column, bool unique, bool int_keys)
    : name_(std::move(name)), column_(column), unique_(unique) {
  if (!int_keys) tree_.emplace<ValueTree>();
}

size_t Index::size() const {
  return WithTree(*this, [](const auto& tree) { return tree.size(); });
}

bool Index::Insert(const Row& row, RowId id) {
  return WithTree(*this, [&](auto& tree) {
    return tree.Insert(KeyFor(tree, row[column_], TiebreakFor(id)), id);
  });
}

void Index::Erase(const Row& row, RowId id) {
  WithTree(*this, [&](auto& tree) {
    tree.Erase(KeyFor(tree, row[column_], TiebreakFor(id)));
  });
}

bool Index::Holds(const Row& row, RowId id) const {
  return WithTree(*this, [&](const auto& tree) {
    const RowId* found =
        tree.Find(KeyFor(tree, row[column_], TiebreakFor(id)));
    return found != nullptr && *found == id;
  });
}

std::optional<RowId> Index::Find(const Value& v) const {
  std::optional<RowId> found;
  Scan(&v, true, &v, true, [&](RowId id) {
    found = id;
    return false;
  });
  return found;
}

void Index::Scan(const Value* lo, bool lo_inclusive, const Value* hi,
                 bool hi_inclusive,
                 const std::function<bool(RowId)>& visit) const {
  auto visit_entry = [&](const auto&, const RowId& id) { return visit(id); };
  if (const auto* tree = std::get_if<IntTree>(&tree_)) {
    IntRange range = ToIntRange(lo, lo_inclusive, hi, hi_inclusive);
    if (range.empty) return;
    IndexKey<int64_t> lo_key{range.lo, INT64_MIN};
    IndexKey<int64_t> hi_key{range.hi, INT64_MAX};
    tree->Scan(&lo_key, true, &hi_key, true, visit_entry);
    return;
  }
  // Bounds on Value map to bounds on the key via tiebreak extremes.
  IndexKey<Value> lo_key{};
  IndexKey<Value> hi_key{};
  const IndexKey<Value>* lo_ptr = nullptr;
  const IndexKey<Value>* hi_ptr = nullptr;
  if (lo != nullptr) {
    lo_key = IndexKey<Value>{*lo, lo_inclusive ? INT64_MIN : INT64_MAX};
    lo_ptr = &lo_key;
  }
  if (hi != nullptr) {
    hi_key = IndexKey<Value>{*hi, hi_inclusive ? INT64_MAX : INT64_MIN};
    hi_ptr = &hi_key;
  }
  std::get<ValueTree>(tree_).Scan(lo_ptr, /*lo_inclusive=*/true, hi_ptr,
                                  hi_inclusive, visit_entry);
}

void Index::Load(const std::vector<Row>& slots) {
  // Sort + bulk load: building the tree bottom-up at full fan-out beats n
  // individual inserts (no splits, no per-key descent). Non-unique keys
  // carry their RowId, so the sorted keys are strictly increasing, as
  // BulkLoad requires.
  WithTree(*this, [&](auto& tree) {
    using Key = decltype(KeyFor(tree, Value(), 0));
    std::vector<std::pair<Key, RowId>> entries;
    entries.reserve(slots.size());
    for (size_t slot = 0; slot < slots.size(); ++slot) {
      if (slots[slot].empty()) continue;
      RowId id = static_cast<RowId>(slot) + 1;
      entries.emplace_back(KeyFor(tree, slots[slot][column_], TiebreakFor(id)),
                           id);
    }
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    tree.BulkLoad(std::move(entries));
  });
}

Index Index::Clone() const {
  Index copy(name_, column_, unique_, std::holds_alternative<IntTree>(tree_));
  WithTree(*this, [&](const auto& tree) {
    using Tree = std::decay_t<decltype(tree)>;
    using Key = decltype(KeyFor(tree, Value(), 0));
    std::vector<std::pair<Key, RowId>> entries;
    entries.reserve(tree.size());
    tree.ScanAll([&](const Key& key, const RowId& id) {
      entries.emplace_back(key, id);
      return true;
    });
    std::get<Tree>(copy.tree_).BulkLoad(std::move(entries));
  });
  return copy;
}

void Index::Clear() {
  WithTree(*this, [](auto& tree) { tree.Clear(); });
}

bool Index::Validate(std::string* error) const {
  return WithTree(*this,
                  [&](const auto& tree) { return tree.Validate(error); });
}

}  // namespace clouddb::db
