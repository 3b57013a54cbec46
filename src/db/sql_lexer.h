#ifndef CLOUDDB_DB_SQL_LEXER_H_
#define CLOUDDB_DB_SQL_LEXER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "db/value.h"

namespace clouddb::db {

/// Token kinds produced by the SQL lexer.
enum class TokenType {
  kKeyword,     // recognized SQL keyword, normalized to upper case
  kIdentifier,  // table/column/index names
  kInteger,     // 64-bit integer literal
  kDouble,      // floating-point literal
  kString,      // 'single quoted', '' escapes a quote
  kSymbol,      // ( ) , * = != <> < <= > >= + - / .
  kParameter,   // `?` placeholder: a masked literal, produced only by
                // TokenizeMasked (int_value holds the parameter slot)
  kEnd,         // end of input
};

struct Token {
  TokenType type;
  std::string text;   // keyword/symbol spelling or identifier/literal text
  int64_t int_value = 0;
  double double_value = 0.0;
  size_t offset = 0;  // byte offset in the source, for error messages

  bool IsKeyword(const char* kw) const;
  bool IsSymbol(const char* sym) const;
};

// Tokenize, TokenizeMasked and FingerprintSql share one scanner (`ScanSql`
// in sql_lexer.cc), so they agree on every token boundary and on every
// lexical error, byte for byte.

/// Tokenizes `sql`. Keywords are case-insensitive. Returns the token list
/// terminated by a kEnd token, or an error pointing at the offending byte.
Result<std::vector<Token>> Tokenize(const std::string& sql);

/// Tokenize with every literal replaced by a kParameter token whose
/// int_value is its slot in source order and whose offset is the literal's:
/// the statement cache parses this stream into a reusable template.
Result<std::vector<Token>> TokenizeMasked(const std::string& sql);

/// The statement cache's fingerprint of `sql`, built without a token vector:
/// every token uppercased-if-keyword and emitted with one trailing space;
/// literals collapse to `?` with their values appended to `params` in token
/// order. Equals FingerprintTokens(Tokenize(sql)) (statement_cache.h).
Result<std::string> FingerprintSql(const std::string& sql,
                                   std::vector<Value>* params);

}  // namespace clouddb::db

#endif  // CLOUDDB_DB_SQL_LEXER_H_
