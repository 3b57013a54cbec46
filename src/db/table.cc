#include "db/table.h"

#include <algorithm>

#include "common/str_util.h"
#include "common/result.h"
#include "common/status.h"
#include "db/index.h"
#include "db/schema.h"
#include "db/value.h"
#include "db/writeset.h"

namespace clouddb::db {

namespace {

/// Element-wise row equality under Value's ordering (int 5 equals 5.0).
bool RowsEqual(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

}  // namespace

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  if (std::optional<size_t> pk = schema_.primary_key_index()) {
    indexes_.emplace_back("PRIMARY", *pk, /*unique=*/true,
                          UsesIntKeys(schema_.columns()[*pk]));
  }
}

std::unique_ptr<Table> Table::Clone() const {
  auto copy = std::make_unique<Table>(name_, schema_);
  copy->slots_ = slots_;
  copy->live_rows_ = live_rows_;
  copy->indexes_.clear();
  copy->indexes_.reserve(indexes_.size());
  for (const Index& idx : indexes_) copy->indexes_.push_back(idx.Clone());
  return copy;
}

Result<RowId> Table::Insert(Row row) {
  CLOUDDB_RETURN_IF_ERROR(schema_.CoerceRow(&row));
  // The primary index's Insert already detects duplicates, so there is no
  // separate probe — one traversal instead of two. The row id is only
  // consumed once the insert is known to stick.
  RowId id = IdOf(slots_.size());
  Status st = IndexInsert(id, row);
  if (!st.ok()) {
    return Status::AlreadyExists(
        StrFormat("duplicate primary key %s in table '%s'",
                  row[*schema_.primary_key_index()].ToSqlLiteral().c_str(),
                  name_.c_str()));
  }
  slots_.push_back(std::move(row));
  ++live_rows_;
  return id;
}

Status Table::Delete(RowId id) {
  Row* row = LiveSlot(id);
  if (row == nullptr) {
    return Status::NotFound(StrFormat("row %lld not found in table '%s'",
                                      static_cast<long long>(id),
                                      name_.c_str()));
  }
  IndexErase(id, *row);
  *row = Row();  // dead slot; releases the values
  --live_rows_;
  return Status::Ok();
}

Status Table::Update(RowId id, Row new_row) {
  if (LiveSlot(id) == nullptr) {
    return Status::NotFound(StrFormat("row %lld not found in table '%s'",
                                      static_cast<long long>(id),
                                      name_.c_str()));
  }
  return UpdateLocated(id, std::move(new_row));
}

Status Table::UpdateLocated(RowId id, Row new_row) {
  CLOUDDB_RETURN_IF_ERROR(schema_.CoerceRow(&new_row));
  Row& old_row = *LiveSlot(id);
  if (const Index* pk = primary()) {
    const Value& new_pk = new_row[pk->column()];
    if (old_row[pk->column()] != new_pk && pk->Find(new_pk).has_value()) {
      return Status::AlreadyExists(
          StrFormat("duplicate primary key %s in table '%s'",
                    new_pk.ToSqlLiteral().c_str(), name_.c_str()));
    }
  }
  // Maintain only the indexes whose key column actually changed. The common
  // replicated UPDATE touches non-indexed columns, where a blanket
  // erase+reinsert would pay two B+Tree rebalances per index for nothing.
  for (Index& idx : indexes_) {
    if (old_row[idx.column()] == new_row[idx.column()]) continue;
    idx.Erase(old_row, id);
    idx.Insert(new_row, id);
  }
  old_row = std::move(new_row);
  return Status::Ok();
}

Status Table::RestoreRow(RowId id, Row row) {
  if (id < 1) {
    return Status::InvalidArgument(
        StrFormat("row id %lld out of range in table '%s'",
                  static_cast<long long>(id), name_.c_str()));
  }
  if (LiveSlot(id) != nullptr) {
    return Status::AlreadyExists(
        StrFormat("row %lld is live in table '%s'", static_cast<long long>(id),
                  name_.c_str()));
  }
  CLOUDDB_RETURN_IF_ERROR(schema_.CoerceRow(&row));
  if (!IndexInsert(id, row).ok()) {
    return Status::AlreadyExists("duplicate primary key on restore");
  }
  if (static_cast<size_t>(id) > slots_.size()) {
    slots_.resize(static_cast<size_t>(id));
  }
  slots_[static_cast<size_t>(id) - 1] = std::move(row);
  ++live_rows_;
  return Status::Ok();
}

Status Table::ApplyRowDelta(const RowOp& op) {
  switch (op.kind) {
    case RowOp::Kind::kInsert: {
      Result<RowId> id = Insert(Row(op.after));
      return id.ok() ? Status::Ok() : id.status();
    }
    case RowOp::Kind::kDelete: {
      CLOUDDB_ASSIGN_OR_RETURN(RowId id, LocateByImage(op.before));
      return Delete(id);
    }
    case RowOp::Kind::kUpdate: {
      CLOUDDB_ASSIGN_OR_RETURN(RowId id, LocateByImage(op.before));
      return UpdateLocated(id, Row(op.after));
    }
  }
  return Status::Internal("unknown row op kind");
}

Result<RowId> Table::LocateByImage(const Row& image) const {
  if (image.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        StrFormat("row image has %zu columns, table '%s' has %zu",
                  image.size(), name_.c_str(), schema_.num_columns()));
  }
  if (primary() != nullptr) {
    CLOUDDB_ASSIGN_OR_RETURN(
        RowId id, FindByPrimaryKey(image[*schema_.primary_key_index()]));
    const Row* row = Get(id);
    if (row == nullptr || !RowsEqual(*row, image)) {
      return Status::NotFound(StrFormat(
          "before image mismatch for %s in table '%s' (replica diverged)",
          image[*schema_.primary_key_index()].ToSqlLiteral().c_str(),
          name_.c_str()));
    }
    return id;
  }
  // No primary key: first content-equal row in RowId order. Any matching
  // row is interchangeable for multiset equality, and scanning in RowId
  // order keeps the choice deterministic.
  RowId found = 0;
  ForEachRow([&](RowId id, const Row& row) {
    if (RowsEqual(row, image)) found = id;
    return found == 0;
  });
  if (found != 0) return found;
  return Status::NotFound(StrFormat(
      "no row matching before image in table '%s' (replica diverged)",
      name_.c_str()));
}

uint64_t Table::ContentsHash() const {
  // FNV-1a over each row's values, summed (mod 2^64) across rows so the
  // result is independent of RowId assignment and iteration order.
  uint64_t total = 0;
  ForEachRow([&](RowId, const Row& row) {
    uint64_t h = 1469598103934665603ull;
    for (const Value& v : row) {
      h ^= v.Hash();
      h *= 1099511628211ull;
    }
    total += h;
    return true;
  });
  return total ^ (static_cast<uint64_t>(live_rows_) * 0x9e3779b97f4a7c15ull);
}

Result<RowId> Table::FindByPrimaryKey(const Value& key) const {
  const Index* pk = primary();
  if (pk == nullptr) {
    return Status::FailedPrecondition(
        StrFormat("table '%s' has no primary key", name_.c_str()));
  }
  std::optional<RowId> id = pk->Find(key);
  if (!id.has_value()) {
    return Status::NotFound(StrFormat("primary key %s not found",
                                      key.ToSqlLiteral().c_str()));
  }
  return *id;
}

Status Table::CreateIndex(const std::string& index_name,
                          const std::string& column) {
  if (HasIndexNamed(index_name)) {
    return Status::AlreadyExists(
        StrFormat("index '%s' already exists", index_name.c_str()));
  }
  CLOUDDB_ASSIGN_OR_RETURN(size_t col, schema_.ColumnIndex(column));
  Index idx(index_name, col, /*unique=*/false,
            UsesIntKeys(schema_.columns()[col]));
  idx.Load(slots_);
  indexes_.push_back(std::move(idx));
  // The new index can beat the memoized path for already-seen shapes.
  plan_memo_.clear();
  return Status::Ok();
}

const PlanHint* Table::FindPlanHint(const std::string& shape) const {
  auto it = plan_memo_.find(shape);
  return it == plan_memo_.end() ? nullptr : &it->second;
}

void Table::MemoizePlanHint(const std::string& shape, PlanHint hint) {
  if (plan_memo_.size() >= kPlanMemoMaxShapes) return;
  plan_memo_.emplace(shape, std::move(hint));
}

const Index* Table::IndexOn(size_t column_index) const {
  for (const Index& idx : indexes_) {
    if (idx.column() == column_index) return &idx;
  }
  return nullptr;
}

bool Table::HasIndexOn(size_t column_index) const {
  return IndexOn(column_index) != nullptr;
}

bool Table::HasIndexNamed(const std::string& index_name) const {
  return std::any_of(indexes_.begin(), indexes_.end(), [&](const Index& i) {
    return !i.unique() && EqualsIgnoreCase(i.name(), index_name);
  });
}

std::vector<std::pair<std::string, std::string>> Table::SecondaryIndexes()
    const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const Index& idx : indexes_) {
    if (idx.unique()) continue;
    out.emplace_back(idx.name(), schema_.columns()[idx.column()].name);
  }
  return out;
}

Status Table::ScanIndex(size_t column_index, const Value* lo,
                        bool lo_inclusive, const Value* hi, bool hi_inclusive,
                        const std::function<bool(RowId)>& visit) const {
  const Index* idx = IndexOn(column_index);
  if (idx == nullptr) {
    return Status::FailedPrecondition(
        StrFormat("no index on column %zu of table '%s'", column_index,
                  name_.c_str()));
  }
  idx->Scan(lo, lo_inclusive, hi, hi_inclusive, visit);
  return Status::Ok();
}

Status Table::ScanPrimary(const Value* lo, bool lo_inclusive, const Value* hi,
                          bool hi_inclusive,
                          const std::function<bool(RowId)>& visit) const {
  if (primary() == nullptr) {
    return Status::FailedPrecondition(
        StrFormat("table '%s' has no primary key", name_.c_str()));
  }
  return ScanIndex(primary()->column(), lo, lo_inclusive, hi, hi_inclusive,
                   visit);
}

void Table::ScanAll(
    const std::function<bool(RowId, const Row&)>& visit) const {
  ForEachRow(visit);
}

void Table::Truncate() {
  std::vector<Row>().swap(slots_);
  live_rows_ = 0;
  for (Index& idx : indexes_) idx.Clear();
}

bool Table::ContentsEqual(const Table& a, const Table& b) {
  if (a.schema_.num_columns() != b.schema_.num_columns()) return false;
  if (a.live_rows_ != b.live_rows_) return false;
  // Replicas that applied the same statements hold equal rows in the same
  // RowId order, so walk both stores in step first; only a mismatch pays
  // for the order-insensitive comparison below.
  std::vector<const Row*> ra, rb;
  ra.reserve(a.live_rows_);
  rb.reserve(b.live_rows_);
  a.ForEachRow([&](RowId, const Row& row) {
    ra.push_back(&row);
    return true;
  });
  b.ForEachRow([&](RowId, const Row& row) {
    rb.push_back(&row);
    return true;
  });
  auto in_step = [&] {
    for (size_t i = 0; i < ra.size(); ++i) {
      if (!RowsEqual(*ra[i], *rb[i])) return false;
    }
    return true;
  };
  if (in_step()) return true;
  // Compare as sorted multisets of rows: RowIds differ between replicas
  // when statements interleave differently; contents are what matter.
  auto row_less = [](const Row* x, const Row* y) {
    for (size_t i = 0; i < std::min(x->size(), y->size()); ++i) {
      int c = Value::Compare((*x)[i], (*y)[i]);
      if (c != 0) return c < 0;
    }
    return x->size() < y->size();
  };
  std::sort(ra.begin(), ra.end(), row_less);
  std::sort(rb.begin(), rb.end(), row_less);
  return in_step();
}

bool Table::ValidateIndexes(std::string* error) const {
  auto fail = [&](const std::string& msg) {
    if (error) *error = msg;
    return false;
  };
  for (const Index& idx : indexes_) {
    std::string tree_err;
    if (!idx.Validate(&tree_err)) {
      return fail(StrFormat("index '%s' tree invalid: %s", idx.name().c_str(),
                            tree_err.c_str()));
    }
    if (idx.size() != live_rows_) {
      return fail(
          StrFormat("index '%s' size mismatch", idx.name().c_str()));
    }
    bool all_held = true;
    ForEachRow([&](RowId id, const Row& row) {
      all_held = idx.Holds(row, id);
      return all_held;
    });
    if (!all_held) {
      return fail(
          StrFormat("row missing from index '%s'", idx.name().c_str()));
    }
  }
  return true;
}

Status Table::IndexInsert(RowId id, const Row& row) {
  // The primary key's index comes first, so a duplicate fails before any
  // secondary index has changed.
  for (Index& idx : indexes_) {
    if (!idx.Insert(row, id)) {
      return Status::AlreadyExists("duplicate primary key");
    }
  }
  return Status::Ok();
}

void Table::IndexErase(RowId id, const Row& row) {
  for (Index& idx : indexes_) idx.Erase(row, id);
}

}  // namespace clouddb::db
