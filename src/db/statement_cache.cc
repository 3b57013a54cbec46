#include "db/statement_cache.h"

#include <memory>
#include <utility>
#include <variant>

#include "db/sql_lexer.h"
#include "db/sql_parser.h"
#include "common/result.h"
#include "common/status.h"
#include "db/sql_ast.h"
#include "db/value.h"
#include "db/vec_expr.h"

namespace clouddb::db {

namespace {

/// True when the fingerprint's leading token can begin a cacheable
/// statement. Everything else (DDL, transaction control, garbage) takes the
/// plain parse path so its behavior — including error text — is identical
/// with the cache off. The check is exact: keywords are uppercased in the
/// fingerprint and every token carries a trailing space, so an identifier
/// spelled "selectx" ("selectx ") can never match "SELECT ".
bool CacheableFingerprint(const std::string& fp) {
  auto starts_with = [&](const char* prefix) {
    return fp.compare(0, std::char_traits<char>::length(prefix), prefix) == 0;
  };
  return starts_with("SELECT ") || starts_with("INSERT ") ||
         starts_with("UPDATE ") || starts_with("DELETE ");
}

}  // namespace

std::string FingerprintTokens(const std::vector<Token>& tokens,
                              std::vector<Value>* params) {
  std::string fp;
  fp.reserve(tokens.size() * 6);
  for (const Token& t : tokens) {
    switch (t.type) {
      case TokenType::kInteger:
        params->push_back(Value(t.int_value));
        fp += "? ";
        break;
      case TokenType::kDouble:
        params->push_back(Value(t.double_value));
        fp += "? ";
        break;
      case TokenType::kString:
        params->push_back(Value(t.text));
        fp += "? ";
        break;
      case TokenType::kEnd:
        break;
      default:
        fp += t.text;
        fp += ' ';
        break;
    }
  }
  return fp;
}

StatementCache::StatementCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

Result<PreparedCall> StatementCache::Prepare(const std::string& sql) {
  // Hit path: one fused scan over the text — no token vector, no parse.
  std::vector<Value> params;
  CLOUDDB_ASSIGN_OR_RETURN(std::string fingerprint,
                           FingerprintSql(sql, &params));
  if (!CacheableFingerprint(fingerprint)) {
    ++stats_.bypasses;
    return Status::NotSupported("statement shape not cacheable");
  }

  auto it = index_.find(fingerprint);
  if (it != index_.end()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);  // touch: move to MRU
    return PreparedCall{it->second->prepared, std::move(params)};
  }

  // Miss: parse the literal-masked token stream into a reusable template.
  // (The fingerprint scan above already validated the text lexically, so
  // TokenizeMasked cannot fail here.)
  CLOUDDB_ASSIGN_OR_RETURN(std::vector<Token> tokens, TokenizeMasked(sql));
  Result<Statement> parsed = ParseTokens(tokens);
  if (!parsed.ok()) {
    // Malformed SQL (or a shape the masked grammar cannot express). Let the
    // caller re-parse the original text so the reported error is
    // byte-identical to the cache-off path.
    ++stats_.bypasses;
    return Status::NotSupported("statement template failed to parse");
  }
  ++stats_.misses;
  auto prepared = std::make_shared<PreparedStatement>();
  prepared->fingerprint = fingerprint;
  prepared->statement = std::move(*parsed);
  prepared->param_count = params.size();
  // Lower the WHERE clause to vectorized bytecode once per template; every
  // execution through this entry then skips both the compile and the
  // tree-walking evaluator. Uncovered predicates simply leave
  // has_where_program false and execute scalar.
  const Expr* where = nullptr;
  if (const auto* sel = std::get_if<SelectStatement>(&prepared->statement)) {
    where = sel->where.get();
  } else if (const auto* upd =
                 std::get_if<UpdateStatement>(&prepared->statement)) {
    where = upd->where.get();
  } else if (const auto* del =
                 std::get_if<DeleteStatement>(&prepared->statement)) {
    where = del->where.get();
  }
  if (where != nullptr &&
      CompilePredicate(*where, &prepared->where_program)) {
    prepared->has_where_program = true;
    ++stats_.programs_compiled;
  }

  lru_.push_front(Entry{fingerprint, std::move(prepared)});
  index_.emplace(std::move(fingerprint), lru_.begin());
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().fingerprint);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return PreparedCall{lru_.front().prepared, std::move(params)};
}

void StatementCache::Invalidate() {
  stats_.invalidations += static_cast<int64_t>(lru_.size());
  for (const Entry& e : lru_) {
    if (e.prepared->has_where_program) ++stats_.programs_invalidated;
  }
  index_.clear();
  lru_.clear();
}

Result<PreparedCall> PrepareSql(const std::string& sql,
                                StatementCache* cache) {
  if (cache != nullptr) {
    Result<PreparedCall> call = cache->Prepare(sql);
    if (call.ok()) return call;
    // Uncacheable shape, a template that failed to parse, or a lexical
    // error: the plain parse below reports exactly what ParseSql reports.
  }
  CLOUDDB_ASSIGN_OR_RETURN(Statement stmt, ParseSql(sql));
  auto one_off = std::make_shared<PreparedStatement>();
  one_off->statement = std::move(stmt);
  one_off->one_off = true;
  return PreparedCall{std::move(one_off), {}};
}

std::vector<std::string> StatementCache::FingerprintsByRecency() const {
  std::vector<std::string> out;
  out.reserve(lru_.size());
  for (const Entry& e : lru_) out.push_back(e.fingerprint);
  return out;
}

}  // namespace clouddb::db
