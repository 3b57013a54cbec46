#ifndef CLOUDDB_DB_INDEX_H_
#define CLOUDDB_DB_INDEX_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "db/bplus_tree.h"
#include "db/schema.h"
#include "db/value.h"

namespace clouddb::db {

/// Key of one index entry: the indexed value plus a tiebreaker. A unique
/// index stores (value, 0), so a second row with an equal value collides; a
/// non-unique index stores (value, RowId), so every key is distinct and equal
/// values scan in RowId order.
template <typename V>
struct IndexKey {
  V value;
  RowId tiebreak;

  friend bool operator<(const IndexKey& a, const IndexKey& b) {
    int c = CompareValues(a.value, b.value);
    if (c != 0) return c < 0;
    return a.tiebreak < b.tiebreak;
  }

 private:
  static int CompareValues(int64_t x, int64_t y) {
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  static int CompareValues(const Value& x, const Value& y) {
    return Value::Compare(x, y);
  }
};

/// True when `column` gets int64_t index keys: BIGINT NOT NULL, where every
/// stored value is an int64 (Schema::CoerceRow guarantees it). Every
/// Cloudstone key column qualifies; any other column keeps Value keys.
bool UsesIntKeys(const ColumnDef& column);

/// A B+Tree index over one column of a table. The primary key's unique index
/// and every secondary index are this one type.
///
/// Probes take Value bounds whatever the key type. On an int64-keyed index a
/// non-integer bound is translated to the int64 range it admits under
/// Value's total order (NULL < numerics < strings, int/double compared
/// numerically), so an int64-keyed index and a Value-keyed index over the
/// same rows answer every probe alike: a double bound becomes its ceiling
/// (lower) or floor (upper), a string lower bound matches nothing and a
/// string upper bound is no limit, a NULL lower bound is no limit and a NULL
/// upper bound matches nothing.
class Index {
 public:
  Index(std::string name, size_t column, bool unique, bool int_keys);

  const std::string& name() const { return name_; }
  size_t column() const { return column_; }
  bool unique() const { return unique_; }
  size_t size() const;

  /// Adds `row`'s entry under `id`. A unique index that already holds the
  /// value returns false and stays unchanged.
  bool Insert(const Row& row, RowId id);
  /// Removes `row`'s entry for `id` (no-op when absent).
  void Erase(const Row& row, RowId id);
  /// True iff the index holds the entry for (`row`, `id`).
  bool Holds(const Row& row, RowId id) const;

  /// The first row, in key order, whose value equals `v`.
  std::optional<RowId> Find(const Value& v) const;

  /// Visits the RowIds whose value lies within [lo, hi] (either bound
  /// optional) in key order. Visitor: bool(RowId) — return false to stop.
  void Scan(const Value* lo, bool lo_inclusive, const Value* hi,
            bool hi_inclusive, const std::function<bool(RowId)>& visit) const;

  /// Replaces the contents of a non-unique index with the entries of the
  /// live rows in `slots` (slot i holds RowId i + 1; an empty row is a dead
  /// slot), sorted and bulk-loaded.
  void Load(const std::vector<Row>& slots);
  /// An equal index, bulk-loaded from this one's key order (no sort).
  Index Clone() const;
  void Clear();

  /// The tree's structural invariants (see BPlusTree::Validate).
  bool Validate(std::string* error) const;

 private:
  using IntTree = BPlusTree<IndexKey<int64_t>, RowId>;
  using ValueTree = BPlusTree<IndexKey<Value>, RowId>;

  /// Calls `f` with the tree, whichever key type it has.
  template <typename Self, typename F>
  static decltype(auto) WithTree(Self& self, F&& f) {
    if (auto* tree = std::get_if<IntTree>(&self.tree_)) return f(*tree);
    return f(std::get<ValueTree>(self.tree_));
  }

  RowId TiebreakFor(RowId id) const { return unique_ ? 0 : id; }

  std::string name_;
  size_t column_;
  bool unique_;
  std::variant<IntTree, ValueTree> tree_;
};

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_INDEX_H_
