#include "db/table.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "db/schema.h"
#include "db/value.h"

namespace clouddb::db {
namespace {

Schema UserSchema() {
  auto schema = Schema::Create({
      {"id", ValueType::kInt64, false, true},
      {"name", ValueType::kString, true, false},
      {"age", ValueType::kInt64, false, false},
  });
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

Row MakeUser(int64_t id, const std::string& name, int64_t age) {
  return {Value(id), Value(name), Value(age)};
}

class TableTest : public ::testing::Test {
 protected:
  TableTest() : table_("users", UserSchema()) {}
  Table table_;
};

TEST_F(TableTest, InsertAndGet) {
  auto id = table_.Insert(MakeUser(1, "ann", 30));
  ASSERT_TRUE(id.ok());
  const Row* row = table_.Get(*id);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ((*row)[1].AsString(), "ann");
  EXPECT_EQ(table_.num_rows(), 1u);
}

TEST_F(TableTest, InsertRejectsDuplicatePk) {
  ASSERT_TRUE(table_.Insert(MakeUser(1, "ann", 30)).ok());
  auto dup = table_.Insert(MakeUser(1, "bob", 25));
  EXPECT_FALSE(dup.ok());
  EXPECT_TRUE(dup.status().IsAlreadyExists());
  EXPECT_EQ(table_.num_rows(), 1u);
}

TEST_F(TableTest, InsertRejectsBadRow) {
  EXPECT_FALSE(table_.Insert({Value(int64_t{1})}).ok());          // arity
  EXPECT_FALSE(
      table_.Insert({Value(int64_t{1}), Value::Null(), Value::Null()}).ok());
}

TEST_F(TableTest, FindByPrimaryKey) {
  ASSERT_TRUE(table_.Insert(MakeUser(5, "eve", 20)).ok());
  auto found = table_.FindByPrimaryKey(Value(int64_t{5}));
  ASSERT_TRUE(found.ok());
  EXPECT_EQ((*table_.Get(*found))[1].AsString(), "eve");
  EXPECT_TRUE(table_.FindByPrimaryKey(Value(int64_t{6})).status().IsNotFound());
}

TEST_F(TableTest, DeleteRemovesRowAndIndexEntries) {
  auto id = table_.Insert(MakeUser(1, "ann", 30));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(table_.Delete(*id).ok());
  EXPECT_EQ(table_.Get(*id), nullptr);
  EXPECT_TRUE(table_.FindByPrimaryKey(Value(int64_t{1})).status().IsNotFound());
  EXPECT_TRUE(table_.Delete(*id).IsNotFound());
  // PK is reusable after delete.
  EXPECT_TRUE(table_.Insert(MakeUser(1, "ann2", 31)).ok());
}

TEST_F(TableTest, UpdateChangesContentAndIndexes) {
  auto id = table_.Insert(MakeUser(1, "ann", 30));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(table_.Update(*id, MakeUser(2, "ann", 31)).ok());
  EXPECT_TRUE(table_.FindByPrimaryKey(Value(int64_t{1})).status().IsNotFound());
  ASSERT_TRUE(table_.FindByPrimaryKey(Value(int64_t{2})).ok());
  std::string err;
  EXPECT_TRUE(table_.ValidateIndexes(&err)) << err;
}

TEST_F(TableTest, UpdateRejectsPkCollision) {
  auto a = table_.Insert(MakeUser(1, "a", 1));
  ASSERT_TRUE(table_.Insert(MakeUser(2, "b", 2)).ok());
  auto st = table_.Update(*a, MakeUser(2, "a", 1));
  EXPECT_TRUE(st.IsAlreadyExists());
  // Original row unharmed.
  EXPECT_TRUE(table_.FindByPrimaryKey(Value(int64_t{1})).ok());
  std::string err;
  EXPECT_TRUE(table_.ValidateIndexes(&err)) << err;
}

TEST_F(TableTest, UpdateSamePkAllowed) {
  auto a = table_.Insert(MakeUser(1, "a", 1));
  EXPECT_TRUE(table_.Update(*a, MakeUser(1, "renamed", 2)).ok());
  EXPECT_EQ((*table_.Get(*a))[1].AsString(), "renamed");
}

TEST_F(TableTest, SecondaryIndexScan) {
  ASSERT_TRUE(table_.CreateIndex("idx_age", "age").ok());
  for (int64_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(table_.Insert(MakeUser(i, "u", i * 10)).ok());
  }
  std::vector<int64_t> ages;
  Value lo(int64_t{30});
  Value hi(int64_t{50});
  ASSERT_TRUE(table_
                  .ScanIndex(2, &lo, true, &hi, true,
                             [&](RowId id) {
                               ages.push_back((*table_.Get(id))[2].AsInt64());
                               return true;
                             })
                  .ok());
  EXPECT_EQ(ages, (std::vector<int64_t>{30, 40, 50}));
}

TEST_F(TableTest, SecondaryIndexHandlesDuplicateValues) {
  ASSERT_TRUE(table_.CreateIndex("idx_age", "age").ok());
  for (int64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(table_.Insert(MakeUser(i, "u", 99)).ok());
  }
  int count = 0;
  Value target(int64_t{99});
  ASSERT_TRUE(table_
                  .ScanIndex(2, &target, true, &target, true,
                             [&](RowId) {
                               ++count;
                               return true;
                             })
                  .ok());
  EXPECT_EQ(count, 5);
}

TEST_F(TableTest, CreateIndexBackfillsExistingRows) {
  for (int64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(table_.Insert(MakeUser(i, "u", i)).ok());
  }
  ASSERT_TRUE(table_.CreateIndex("idx_age", "age").ok());
  int count = 0;
  ASSERT_TRUE(table_
                  .ScanIndex(2, nullptr, true, nullptr, true,
                             [&](RowId) {
                               ++count;
                               return true;
                             })
                  .ok());
  EXPECT_EQ(count, 3);
  std::string err;
  EXPECT_TRUE(table_.ValidateIndexes(&err)) << err;
}

TEST_F(TableTest, CreateIndexRejectsDuplicatesAndUnknownColumns) {
  ASSERT_TRUE(table_.CreateIndex("idx", "age").ok());
  EXPECT_TRUE(table_.CreateIndex("idx", "name").IsAlreadyExists());
  EXPECT_FALSE(table_.CreateIndex("idx2", "missing").ok());
  EXPECT_TRUE(table_.HasIndexNamed("IDX"));  // case-insensitive
  EXPECT_TRUE(table_.HasIndexOn(2));
  EXPECT_FALSE(table_.HasIndexOn(1));
  EXPECT_TRUE(table_.HasIndexOn(0));  // the PK
}

TEST_F(TableTest, ScanPrimaryRange) {
  for (int64_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(table_.Insert(MakeUser(i, "u", i)).ok());
  }
  std::vector<int64_t> ids;
  Value lo(int64_t{4});
  ASSERT_TRUE(table_
                  .ScanPrimary(&lo, false, nullptr, true,
                               [&](RowId id) {
                                 ids.push_back((*table_.Get(id))[0].AsInt64());
                                 return ids.size() < 3;
                               })
                  .ok());
  EXPECT_EQ(ids, (std::vector<int64_t>{5, 6, 7}));
}

TEST_F(TableTest, ScanAllVisitsEveryRow) {
  for (int64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(table_.Insert(MakeUser(i, "u", i)).ok());
  }
  int visited = 0;
  table_.ScanAll([&](RowId, const Row&) {
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, 4);
}

TEST_F(TableTest, TruncateClearsRowsKeepsIndexes) {
  ASSERT_TRUE(table_.CreateIndex("idx_age", "age").ok());
  for (int64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(table_.Insert(MakeUser(i, "u", i)).ok());
  }
  table_.Truncate();
  EXPECT_EQ(table_.num_rows(), 0u);
  ASSERT_TRUE(table_.Insert(MakeUser(1, "u", 1)).ok());
  std::string err;
  EXPECT_TRUE(table_.ValidateIndexes(&err)) << err;
}

TEST_F(TableTest, RestoreRowReinstatesExactRowId) {
  auto id = table_.Insert(MakeUser(1, "ann", 30));
  ASSERT_TRUE(id.ok());
  Row saved = *table_.Get(*id);
  ASSERT_TRUE(table_.Delete(*id).ok());
  ASSERT_TRUE(table_.RestoreRow(*id, saved).ok());
  EXPECT_NE(table_.Get(*id), nullptr);
  EXPECT_TRUE(table_.FindByPrimaryKey(Value(int64_t{1})).ok());
  std::string err;
  EXPECT_TRUE(table_.ValidateIndexes(&err)) << err;
}

TEST_F(TableTest, RestoreRowRejectsLiveIdAndDuplicatePk) {
  auto id = table_.Insert(MakeUser(1, "ann", 30));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(table_.RestoreRow(*id, MakeUser(9, "x", 1)).IsAlreadyExists());
  // Delete then try restoring with a PK owned by another row.
  ASSERT_TRUE(table_.Insert(MakeUser(2, "bob", 25)).ok());
  Row saved = *table_.Get(*id);
  ASSERT_TRUE(table_.Delete(*id).ok());
  EXPECT_TRUE(table_.RestoreRow(*id, MakeUser(2, "x", 1)).IsAlreadyExists());
  EXPECT_TRUE(table_.RestoreRow(*id, saved).ok());
}

TEST_F(TableTest, ContentsEqualIgnoresRowIds) {
  Table other("users", UserSchema());
  ASSERT_TRUE(table_.Insert(MakeUser(1, "a", 1)).ok());
  ASSERT_TRUE(table_.Insert(MakeUser(2, "b", 2)).ok());
  // Insert in the opposite order: different RowIds, same contents.
  ASSERT_TRUE(other.Insert(MakeUser(2, "b", 2)).ok());
  ASSERT_TRUE(other.Insert(MakeUser(1, "a", 1)).ok());
  EXPECT_TRUE(Table::ContentsEqual(table_, other));
  ASSERT_TRUE(other.Insert(MakeUser(3, "c", 3)).ok());
  EXPECT_FALSE(Table::ContentsEqual(table_, other));
}

TEST_F(TableTest, IndexConsistencyUnderRandomChurn) {
  ASSERT_TRUE(table_.CreateIndex("idx_age", "age").ok());
  Rng rng(7);
  std::vector<RowId> live;
  for (int step = 0; step < 2000; ++step) {
    double action = rng.NextDouble();
    if (action < 0.5 || live.empty()) {
      auto id = table_.Insert(MakeUser(rng.UniformInt(0, 1 << 30), "u",
                                       rng.UniformInt(0, 100)));
      if (id.ok()) live.push_back(*id);
    } else if (action < 0.75) {
      size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      ASSERT_TRUE(table_.Delete(live[pick]).ok());
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
    } else {
      size_t pick = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      Row updated = *table_.Get(live[pick]);
      updated[2] = Value(rng.UniformInt(0, 100));
      ASSERT_TRUE(table_.Update(live[pick], updated).ok());
    }
  }
  std::string err;
  EXPECT_TRUE(table_.ValidateIndexes(&err)) << err;
  EXPECT_EQ(table_.num_rows(), live.size());
}

TEST(TableNoPkTest, TablesWithoutPrimaryKeyWork) {
  auto schema = Schema::Create({{"a", ValueType::kInt64, false, false}});
  ASSERT_TRUE(schema.ok());
  Table table("t", std::move(schema).value());
  EXPECT_FALSE(table.HasPrimaryKey());
  ASSERT_TRUE(table.Insert({Value(int64_t{1})}).ok());
  ASSERT_TRUE(table.Insert({Value(int64_t{1})}).ok());  // duplicates fine
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_TRUE(
      table.FindByPrimaryKey(Value(int64_t{1})).status().IsFailedPrecondition());
  EXPECT_TRUE(table.ScanPrimary(nullptr, true, nullptr, true, [](RowId) {
    return true;
  }).IsFailedPrecondition());
}

// ---------------------------------------------------------------------------
// Dense row store: RowId i lives in slot i - 1; deleted rows leave dead slots.

std::vector<RowId> LiveIds(const Table& table) {
  std::vector<RowId> ids;
  table.ForEachRow([&](RowId id, const Row&) {
    ids.push_back(id);
    return true;
  });
  return ids;
}

TEST_F(TableTest, DeletedRowsLeaveTombstonesAndIdsAreNeverReused) {
  for (int64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(table_.Insert(MakeUser(i, "u", i)).ok());
  }
  ASSERT_TRUE(table_.Delete(2).ok());
  ASSERT_TRUE(table_.Delete(5).ok());
  EXPECT_EQ(table_.Get(2), nullptr);
  EXPECT_EQ(table_.Get(5), nullptr);
  EXPECT_EQ(table_.Get(0), nullptr);
  EXPECT_EQ(table_.Get(6), nullptr);
  EXPECT_TRUE(table_.Update(2, MakeUser(2, "u", 2)).IsNotFound());
  EXPECT_EQ(table_.num_rows(), 3u);
  EXPECT_EQ(LiveIds(table_), (std::vector<RowId>{1, 3, 4}));
  // The last id was deleted, yet the next insert still gets a fresh one.
  auto id = table_.Insert(MakeUser(5, "again", 5));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 6);
  std::string err;
  EXPECT_TRUE(table_.ValidateIndexes(&err)) << err;
}

TEST_F(TableTest, DeleteThenRestoreRevivesTheSameSlot) {
  ASSERT_TRUE(table_.CreateIndex("idx_age", "age").ok());
  for (int64_t i = 1; i <= 3; ++i) {
    ASSERT_TRUE(table_.Insert(MakeUser(i, "u", 7)).ok());
  }
  Row saved = *table_.Get(2);
  ASSERT_TRUE(table_.Delete(2).ok());
  ASSERT_TRUE(table_.RestoreRow(2, saved).ok());
  EXPECT_EQ(LiveIds(table_), (std::vector<RowId>{1, 2, 3}));
  // Equal index values still scan in RowId order.
  std::vector<RowId> by_age;
  Value seven(int64_t{7});
  ASSERT_TRUE(table_
                  .ScanIndex(2, &seven, true, &seven, true,
                             [&](RowId id) {
                               by_age.push_back(id);
                               return true;
                             })
                  .ok());
  EXPECT_EQ(by_age, (std::vector<RowId>{1, 2, 3}));
  auto next = table_.Insert(MakeUser(4, "u", 7));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 4);
  // A restore past the end grows the store; later ids follow it.
  ASSERT_TRUE(table_.RestoreRow(9, MakeUser(9, "late", 1)).ok());
  EXPECT_EQ(LiveIds(table_), (std::vector<RowId>{1, 2, 3, 4, 9}));
  next = table_.Insert(MakeUser(10, "u", 1));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 10);
  EXPECT_TRUE(table_.RestoreRow(0, saved).IsInvalidArgument());
  std::string err;
  EXPECT_TRUE(table_.ValidateIndexes(&err)) << err;
}

TEST_F(TableTest, TruncateThenInsertStartsAFreshStore) {
  ASSERT_TRUE(table_.CreateIndex("idx_age", "age").ok());
  for (int64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(table_.Insert(MakeUser(i, "u", i)).ok());
  }
  ASSERT_TRUE(table_.Delete(3).ok());
  table_.Truncate();
  EXPECT_EQ(table_.Get(1), nullptr);
  EXPECT_TRUE(LiveIds(table_).empty());
  auto a = table_.Insert(MakeUser(3, "a", 1));
  auto b = table_.Insert(MakeUser(1, "b", 1));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LT(*a, *b);  // later rows still follow earlier ones
  EXPECT_EQ(LiveIds(table_), (std::vector<RowId>{*a, *b}));
  EXPECT_EQ(table_.num_rows(), 2u);
  std::string err;
  EXPECT_TRUE(table_.ValidateIndexes(&err)) << err;
}

TEST_F(TableTest, ForEachChunkSkipsDeadSlots) {
  for (int64_t i = 1; i <= 10; ++i) {
    ASSERT_TRUE(table_.Insert(MakeUser(i, "u", i)).ok());
  }
  for (RowId id : {2, 4, 6, 8, 10}) ASSERT_TRUE(table_.Delete(id).ok());
  std::vector<RowId> ids;
  std::vector<size_t> chunk_sizes;
  table_.ForEachChunk<4>(
      [&](const RowId* chunk_ids, const Row* const* rows, size_t len) {
        chunk_sizes.push_back(len);
        for (size_t j = 0; j < len; ++j) {
          EXPECT_EQ(rows[j], table_.Get(chunk_ids[j]));
          ids.push_back(chunk_ids[j]);
        }
        return true;
      });
  EXPECT_EQ(ids, (std::vector<RowId>{1, 3, 5, 7, 9}));
  EXPECT_EQ(chunk_sizes, (std::vector<size_t>{4, 1}));
}

// ---------------------------------------------------------------------------
// Index keys: a BIGINT NOT NULL column gets int64 keys, a nullable BIGINT
// column keeps Value keys. Every probe must find the same rows through both.

class IntKeyTest : public ::testing::Test {
 protected:
  IntKeyTest() : table_("k", KeySchema()) {
    EXPECT_TRUE(table_.CreateIndex("idx_k", "k").ok());
    EXPECT_TRUE(table_.CreateIndex("idx_n", "n").ok());
    for (int64_t v : std::vector<int64_t>{-3, -2, -1, 0, 1, 2, 3, 2, 0,
                                         INT64_MAX, INT64_MIN}) {
      EXPECT_TRUE(table_.Insert({Value(v), Value(v)}).ok());
    }
  }

  static Schema KeySchema() {
    auto schema = Schema::Create({
        {"k", ValueType::kInt64, /*not_null=*/true, false},
        {"n", ValueType::kInt64, /*not_null=*/false, false},
    });
    EXPECT_TRUE(schema.ok());
    return std::move(schema).value();
  }

  /// The RowIds a probe on `column` visits, in scan order.
  std::vector<RowId> Probe(size_t column, const Value* lo, bool lo_inclusive,
                           const Value* hi, bool hi_inclusive) {
    std::vector<RowId> ids;
    EXPECT_TRUE(table_
                    .ScanIndex(column, lo, lo_inclusive, hi, hi_inclusive,
                               [&](RowId id) {
                                 ids.push_back(id);
                                 return true;
                               })
                    .ok());
    return ids;
  }

  /// The `k` values a probe on the int64-keyed column visits, after
  /// checking the Value-keyed column returns the same rows in the same order.
  std::vector<int64_t> ProbeBoth(const Value* lo, bool lo_inclusive,
                                 const Value* hi, bool hi_inclusive) {
    std::vector<RowId> int_keyed = Probe(0, lo, lo_inclusive, hi, hi_inclusive);
    EXPECT_EQ(int_keyed, Probe(1, lo, lo_inclusive, hi, hi_inclusive));
    std::vector<int64_t> values;
    for (RowId id : int_keyed) values.push_back((*table_.Get(id))[0].AsInt64());
    return values;
  }

  Table table_;
};

TEST_F(IntKeyTest, EveryBoundKindMatchesTheValueKeyedIndex) {
  std::vector<Value> bounds = {
      Value(int64_t{2}),  Value(int64_t{-1}), Value(2.0),
      Value(2.5),         Value(-2.5),        Value(0.0),
      Value(1e300),       Value(-1e300),      Value("x"),
      Value::Null(),      Value(INT64_MAX),   Value(INT64_MIN)};
  for (const Value& b : bounds) {
    for (bool inclusive : {true, false}) {
      SCOPED_TRACE(b.ToSqlLiteral() + (inclusive ? " inclusive" : ""));
      ProbeBoth(&b, inclusive, nullptr, true);  // k > b / k >= b
      ProbeBoth(nullptr, true, &b, inclusive);  // k < b / k <= b
      ProbeBoth(&b, inclusive, &b, inclusive);  // k = b when inclusive
    }
  }
}

TEST_F(IntKeyTest, BoundsTranslateByValueOrder) {
  using V = std::vector<int64_t>;
  Value two_and_half(2.5);
  Value minus_two_and_half(-2.5);
  Value text("x");
  Value null = Value::Null();
  Value five(5.0);
  Value two(2.0);
  Value max(INT64_MAX);
  // A double bound becomes its ceiling (lower) or floor (upper).
  EXPECT_EQ(ProbeBoth(&two_and_half, false, nullptr, true), (V{3, INT64_MAX}));
  EXPECT_EQ(ProbeBoth(&minus_two_and_half, true, &two_and_half, false),
            (V{-2, -1, 0, 0, 1, 2, 2}));
  // An integral double finds its rows in an equality probe.
  EXPECT_EQ(ProbeBoth(&two, true, &two, true), (V{2, 2}));
  EXPECT_TRUE(ProbeBoth(&five, true, &five, true).empty());
  EXPECT_TRUE(ProbeBoth(&two_and_half, true, &two_and_half, true).empty());
  // Strings sort above every number; NULL below.
  EXPECT_TRUE(ProbeBoth(&text, true, nullptr, true).empty());
  EXPECT_EQ(ProbeBoth(nullptr, true, &text, false).size(), 11u);
  EXPECT_EQ(ProbeBoth(&null, false, nullptr, true).size(), 11u);
  EXPECT_TRUE(ProbeBoth(nullptr, true, &null, true).empty());
  // The int64 extremes, exclusive, leave nothing beyond them.
  EXPECT_TRUE(ProbeBoth(&max, false, nullptr, true).empty());
  EXPECT_EQ(ProbeBoth(&max, true, nullptr, true), (V{INT64_MAX}));
}

TEST(IntKeyPrimaryTest, PrimaryKeyLookupAcceptsIntegralDoubles) {
  auto schema = Schema::Create({{"event_id", ValueType::kInt64, false, true},
                                {"title", ValueType::kString, false, false}});
  ASSERT_TRUE(schema.ok());
  Table table("events", std::move(schema).value());
  ASSERT_TRUE(table.Insert({Value(int64_t{5}), Value("five")}).ok());
  auto found = table.FindByPrimaryKey(Value(5.0));
  ASSERT_TRUE(found.ok());
  EXPECT_EQ((*table.Get(*found))[1].AsString(), "five");
  EXPECT_TRUE(table.FindByPrimaryKey(Value(5.5)).status().IsNotFound());
  EXPECT_TRUE(table.FindByPrimaryKey(Value("5")).status().IsNotFound());
  // A duplicate by value order is a duplicate, whatever its type.
  EXPECT_TRUE(table.Insert({Value(int64_t{5}), Value("again")})
                  .status()
                  .IsAlreadyExists());
}

// ---------------------------------------------------------------------------
// Clone: the copy a replica is seeded from.

TEST_F(TableTest, CloneCopiesRowIdsRowsAndEveryIndex) {
  ASSERT_TRUE(table_.CreateIndex("idx_age", "age").ok());
  ASSERT_TRUE(table_.CreateIndex("idx_name", "name").ok());
  for (int64_t i = 1; i <= 200; ++i) {
    ASSERT_TRUE(table_.Insert(MakeUser(i, "u" + std::to_string(i % 7), i % 13))
                    .ok());
  }
  for (RowId id = 3; id <= 200; id += 5) ASSERT_TRUE(table_.Delete(id).ok());
  std::unique_ptr<Table> copy = table_.Clone();
  EXPECT_EQ(copy->name(), table_.name());
  EXPECT_EQ(copy->schema().ToString(), table_.schema().ToString());
  EXPECT_EQ(copy->num_rows(), table_.num_rows());
  EXPECT_TRUE(Table::ContentsEqual(table_, *copy));
  EXPECT_EQ(copy->SecondaryIndexes(), table_.SecondaryIndexes());
  EXPECT_EQ(LiveIds(*copy), LiveIds(table_));
  std::string err;
  EXPECT_TRUE(copy->ValidateIndexes(&err)) << err;
  // Ids keep counting from where the source stood.
  auto next = copy->Insert(MakeUser(1000, "new", 1));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 201);
  // The copy is independent of its source.
  ASSERT_TRUE(copy->Delete(1).ok());
  EXPECT_NE(table_.Get(1), nullptr);
  EXPECT_TRUE(table_.FindByPrimaryKey(Value(int64_t{1000})).status().IsNotFound());
  EXPECT_TRUE(copy->ValidateIndexes(&err)) << err;
}

}  // namespace
}  // namespace clouddb::db
