#ifndef CLOUDDB_DB_STATEMENT_CACHE_H_
#define CLOUDDB_DB_STATEMENT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "db/sql_ast.h"
#include "db/sql_lexer.h"
#include "db/value.h"
#include "db/vec_expr.h"

namespace clouddb::db {

/// Reference fingerprint construction: the normalized fingerprint of a token
/// stream plus its literal values in token order. Every token is emitted
/// with a single trailing space, so the fingerprint is whitespace-folded and
/// unambiguous (no token contains a space). Literals of any type collapse to
/// `?` — the literal's type travels with the bound value, not the shape.
/// The cache itself uses FingerprintSql (sql_lexer.h), which builds the same
/// string without a token vector; this construction is the tests' reference.
std::string FingerprintTokens(const std::vector<Token>& tokens,
                              std::vector<Value>* params);

/// Counters exposed for benchmarks, the Cloudstone report, and tests.
struct StatementCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;          // fingerprint absent; template parsed+inserted
  int64_t evictions = 0;       // LRU capacity evictions
  int64_t invalidations = 0;   // entries dropped by Invalidate() (DDL)
  int64_t bypasses = 0;        // statements not eligible for caching
  int64_t programs_compiled = 0;     // WHERE predicates lowered to bytecode
  int64_t programs_invalidated = 0;  // compiled programs dropped by DDL
};

/// A parsed statement template: the AST with every literal replaced by an
/// Expr::kParameter placeholder. Shared (not cloned) across executions;
/// immutable after insertion. Held by shared_ptr so an execution queued
/// behind the CPU scheduler survives eviction or DDL invalidation of its
/// cache entry. PrepareSql also wraps a plain ParseSql AST (literals in
/// place, no parameters) in one, flagged `one_off`, for statements that do
/// not go through a cache.
struct PreparedStatement {
  std::string fingerprint;
  Statement statement;
  size_t param_count = 0;
  /// The WHERE clause lowered to vectorized bytecode at insert time, when
  /// the predicate falls inside CompilePredicate's coverage. The program
  /// references the statement's own Expr tree, so it lives and dies with
  /// this struct — Invalidate() dropping the entry drops the program. It is
  /// schema-independent and re-bound on every execution (see VecBinding),
  /// which is what keeps a holder that outlives DDL invalidation safe.
  VecProgram where_program;
  bool has_where_program = false;
  /// A one-off wrap, never inserted into a cache: its WHERE is compiled on
  /// the fly at each execution instead (Database's jit_predicates).
  bool one_off = false;
};

/// One executable call: a template plus the literal values extracted from a
/// concrete SQL text, bound positionally to the template's parameters.
struct PreparedCall {
  std::shared_ptr<const PreparedStatement> prepared;
  std::vector<Value> params;
};

/// Deterministic LRU cache of parsed statement templates keyed on a
/// normalized fingerprint (literals masked to `?`, keyword case and
/// whitespace folded, identifier case preserved — aggregate output column
/// names echo the query's spelling, so folding identifiers could change
/// visible results).
///
/// Recency is tracked purely by list position maintained on each access —
/// no wall clock, no timestamps — so cache behavior is a deterministic
/// function of the statement sequence and replays identically across runs
/// and replicas (a hard requirement: the simulation's results must be
/// independent of host timing).
///
/// Only DML (SELECT/INSERT/UPDATE/DELETE) is cached. DDL and transaction
/// control bypass the cache, and executing DDL must call Invalidate().
class StatementCache {
 public:
  explicit StatementCache(size_t capacity = kDefaultCapacity);

  StatementCache(const StatementCache&) = delete;
  StatementCache& operator=(const StatementCache&) = delete;

  /// Fingerprints `sql` and returns the cached template plus this text's
  /// literal values. On a miss the literal-masked token stream is parsed and
  /// inserted first. Repeated text is simply a hit on its entry.
  ///
  /// Failure modes, which PrepareSql handles by falling back to plain
  /// ParseSql (byte-identical errors and behavior):
  ///  - NotSupported: statement shape is not cacheable (DDL, BEGIN/COMMIT/
  ///    ROLLBACK, empty input) or the template failed to parse.
  ///  - any tokenizer error, returned verbatim.
  Result<PreparedCall> Prepare(const std::string& sql);

  /// Drops every entry (DDL changed the catalog under the cached plans).
  void Invalidate();

  size_t size() const { return lru_.size(); }
  size_t capacity() const { return capacity_; }
  const StatementCacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = StatementCacheStats{}; }

  /// Fingerprints in most-recently-used order (test hook for LRU behavior).
  std::vector<std::string> FingerprintsByRecency() const;

  static constexpr size_t kDefaultCapacity = 256;

 private:
  struct Entry {
    std::string fingerprint;
    std::shared_ptr<const PreparedStatement> prepared;
  };

  size_t capacity_;
  // MRU at the front; index_ points into the list for O(1) touch.
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  StatementCacheStats stats_;
};

/// The one step from SQL text to an executable call, shared by Database and
/// the proxy's read/write classifier. With a cache (non-null), a cacheable
/// shape gets the cached template and this text's literal values. Every
/// other case (no cache, DDL, transaction control, a template that fails to
/// parse) gets a one-off wrap of the plain ParseSql AST with no params. On
/// failure returns exactly ParseSql's status.
Result<PreparedCall> PrepareSql(const std::string& sql, StatementCache* cache);

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_STATEMENT_CACHE_H_
