#ifndef CLOUDDB_DB_TABLE_H_
#define CLOUDDB_DB_TABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "db/index.h"
#include "db/schema.h"
#include "db/value.h"
#include "db/writeset.h"

namespace clouddb::db {

/// Access paths the executor can choose for a statement.
enum class AccessPathKind { kPkEq, kIndexEq, kIndexRange, kTableScan };

/// Memoized access-path decision for one WHERE predicate shape — the
/// ordered (column, op) list of index-usable constraints. Literal values are
/// deliberately absent from both key and hint: NULL-valued comparisons are
/// dropped before the shape is built, and every value-dependent decision
/// (predicate subsumption, scan bounds) is recomputed per execution.
struct PlanHint {
  AccessPathKind kind = AccessPathKind::kTableScan;
  /// kPkEq/kIndexEq: index of the chosen constraint in the extracted list;
  /// kIndexRange: the column index to range-scan. Unused for kTableScan.
  size_t chosen = 0;
  std::string plan;        // ExecResult.plan label, e.g. "pk_eq(id)"
  std::string ordered_by;  // ExecResult.scan_ordered_by
};

/// A heap of rows plus indexes.
///
/// - Rows live in a dense slot array: slot i holds RowId i + 1. RowIds are
///   assigned monotonically and never reused, so slot order is insertion
///   order; a deleted row leaves a dead (empty) slot behind.
/// - If the schema declares a PRIMARY KEY, a unique index over it is
///   maintained automatically and uniqueness is enforced.
/// - Any column can get a secondary (non-unique) index. Both kinds are
///   db::Index.
class Table {
 public:
  Table(std::string name, Schema schema);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  /// A deep copy: schema, every row under its RowId, and every index
  /// bulk-loaded from the source index's key order. The planner memo starts
  /// empty.
  std::unique_ptr<Table> Clone() const;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return live_rows_; }

  /// Validates and inserts `row`; enforces PK uniqueness. Returns the new
  /// RowId.
  Result<RowId> Insert(Row row);

  /// Deletes by RowId. Returns NotFound if absent.
  Status Delete(RowId id);

  /// Replaces the row's contents (all indexes updated). The primary key may
  /// change as long as it stays unique.
  Status Update(RowId id, Row new_row);

  /// Re-inserts a previously deleted row under its original RowId (used by
  /// transaction rollback). Fails if the id is live or the primary key
  /// duplicates a live row.
  Status RestoreRow(RowId id, Row row);

  /// Row-based replication's direct-apply path: applies one captured row
  /// image delta — insert the after image, delete/update the row matching
  /// the before image — updating the row store, NULL-bearing column values,
  /// and every index, with no SQL involved. Before images are located by
  /// primary key when one exists (then verified column-for-column against
  /// the live row), otherwise by a first-match content scan; a mismatch
  /// means the replica diverged and fails with NotFound.
  Status ApplyRowDelta(const RowOp& op);

  /// Order-independent 64-bit checksum of the row multiset (RowIds
  /// excluded). Two tables with equal contents hash equally regardless of
  /// insertion order — the cross-replica equivalence check used by the
  /// row-based vs statement-based ablation tests.
  uint64_t ContentsHash() const;

  /// Row access (nullptr if the id is dead). The pointer is invalidated by
  /// any later Insert or RestoreRow, which may grow the slot array.
  const Row* Get(RowId id) const {
    if (id < 1 || static_cast<size_t>(id) > slots_.size()) return nullptr;
    const Row& row = slots_[static_cast<size_t>(id) - 1];
    return row.empty() ? nullptr : &row;
  }

  /// Looks up by primary key. Requires a declared primary key.
  Result<RowId> FindByPrimaryKey(const Value& key) const;
  bool HasPrimaryKey() const {
    return schema_.primary_key_index().has_value();
  }

  /// Creates a secondary index on `column` (named `index_name`). Fails if the
  /// name exists or the column is unknown. Backfills existing rows.
  Status CreateIndex(const std::string& index_name, const std::string& column);
  bool HasIndexOn(size_t column_index) const;
  bool HasIndexNamed(const std::string& index_name) const;
  /// (index name, column name) of every secondary index, in creation order.
  std::vector<std::pair<std::string, std::string>> SecondaryIndexes() const;

  /// Visits RowIds whose `column` value is within [lo, hi] (either bound
  /// optional), in key order. Uses the index on that column, the primary
  /// key's first — callers check `HasIndexOn` first; returns
  /// FailedPrecondition otherwise.
  /// Visitor: bool(RowId) — return false to stop.
  Status ScanIndex(size_t column_index, const Value* lo, bool lo_inclusive,
                   const Value* hi, bool hi_inclusive,
                   const std::function<bool(RowId)>& visit) const;

  /// Visits RowIds whose primary key is within the given bounds, in key
  /// order. Requires a primary key.
  Status ScanPrimary(const Value* lo, bool lo_inclusive, const Value* hi,
                     bool hi_inclusive,
                     const std::function<bool(RowId)>& visit) const;

  /// Visits every live row in RowId order. Visitor: bool(RowId, const Row&).
  /// Type-erased convenience wrapper over ForEachRow — hot paths should call
  /// ForEachRow directly to avoid per-row std::function dispatch.
  void ScanAll(const std::function<bool(RowId, const Row&)>& visit) const;

  /// Statically-dispatched full scan in RowId order.
  /// Visitor: bool(RowId, const Row&) — return false to stop.
  template <typename Visitor>
  void ForEachRow(Visitor&& visit) const {
    for (size_t slot = 0; slot < slots_.size(); ++slot) {
      if (slots_[slot].empty()) continue;
      if (!visit(IdOf(slot), slots_[slot])) return;
    }
  }

  /// Batched full scan: visits live rows in RowId order, N at a time, as
  /// parallel id/row-pointer arrays (the last chunk may be short). Row
  /// pointers stay valid while the table is not mutated.
  /// Visitor: bool(const RowId* ids, const Row* const* rows, size_t len) —
  /// return false to stop.
  template <size_t N, typename Visitor>
  void ForEachChunk(Visitor&& visit) const {
    RowId ids[N];
    const Row* rows[N];
    size_t len = 0;
    for (size_t slot = 0; slot < slots_.size(); ++slot) {
      if (slots_[slot].empty()) continue;
      ids[len] = IdOf(slot);
      rows[len] = &slots_[slot];
      if (++len == N) {
        if (!visit(ids, rows, len)) return;
        len = 0;
      }
    }
    if (len > 0) visit(ids, rows, len);
  }

  /// Removes all rows (indexes cleared; schema and index definitions kept).
  /// RowIds restart at 1, which keeps every later row after every earlier
  /// one — the only thing RowIds promise.
  void Truncate();

  /// Deep equality of contents (same column count, same multiset of rows);
  /// used to assert master/slave convergence.
  static bool ContentsEqual(const Table& a, const Table& b);

  /// Internal-consistency check for tests: every row is present in every
  /// index exactly once and vice versa.
  bool ValidateIndexes(std::string* error) const;

  // --- Planner memoization --------------------------------------------------
  // Access-path selection depends only on the predicate shape and this
  // table's index set, so repeated statements (the common case under the
  // statement cache) skip re-deriving it. CreateIndex clears the memo — a
  // new index can change the best path for an already-seen shape.

  /// Cached decision for `shape`, or nullptr if not yet memoized.
  const PlanHint* FindPlanHint(const std::string& shape) const;
  /// Records the decision for `shape` (no-op once kPlanMemoMaxShapes
  /// distinct shapes are held; a workload with unbounded shapes would
  /// otherwise grow the memo without ever hitting it).
  void MemoizePlanHint(const std::string& shape, PlanHint hint);
  size_t plan_memo_size() const { return plan_memo_.size(); }

  static constexpr size_t kPlanMemoMaxShapes = 64;

 private:
  static RowId IdOf(size_t slot) { return static_cast<RowId>(slot) + 1; }
  /// The live row `id`, or nullptr (mutable Get).
  Row* LiveSlot(RowId id) { return const_cast<Row*>(Get(id)); }
  /// The index that answers probes on `column` (the primary key's first).
  const Index* IndexOn(size_t column_index) const;
  const Index* primary() const {
    return HasPrimaryKey() ? &indexes_.front() : nullptr;
  }

  /// Adds `row`'s entry to every index; fails (no index changed) on a
  /// duplicate primary key.
  Status IndexInsert(RowId id, const Row& row);
  void IndexErase(RowId id, const Row& row);
  /// The live row matching `image` (see ApplyRowDelta).
  Result<RowId> LocateByImage(const Row& image) const;
  /// Index-maintaining in-place update of live row `id`; shared by Update
  /// and the row-delta fast path.
  Status UpdateLocated(RowId id, Row new_row);

  std::string name_;
  Schema schema_;
  // Slot i holds RowId i + 1. An empty Row marks a dead slot: Schema::Create
  // rejects zero-column tables, so no live row is empty. The next RowId is
  // slots_.size() + 1.
  std::vector<Row> slots_;
  size_t live_rows_ = 0;
  // The primary key's unique index first (when declared), then the
  // secondary indexes in creation order.
  std::vector<Index> indexes_;
  std::unordered_map<std::string, PlanHint> plan_memo_;
};

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_TABLE_H_
