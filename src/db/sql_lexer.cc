#include "db/sql_lexer.h"

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "common/result.h"
#include "common/status.h"
#include "db/value.h"

namespace clouddb::db {

namespace {

// Every SQL keyword is pure letters, so the keyword probe can walk a flat
// A–Z trie with case folding done on the fly — one pass over the source
// bytes, no uppercase scratch copy and no hashing. A terminal node holds
// the canonical uppercase spelling (a string literal), which doubles as the
// "is a keyword" answer and the token text.
class KeywordTrie {
 public:
  KeywordTrie() {
    static const char* const kKeywords[] = {
        "CREATE", "TABLE",  "INDEX",  "ON",     "INSERT", "INTO",   "VALUES",
        "SELECT", "FROM",   "WHERE",  "ORDER",  "BY",     "ASC",    "DESC",
        "LIMIT",  "UPDATE", "SET",    "DELETE", "AND",    "NOT",    "NULL",
        "PRIMARY", "KEY",   "INT",    "BIGINT", "DOUBLE", "TEXT",   "VARCHAR",
        "TIMESTAMP", "BEGIN", "COMMIT", "ROLLBACK", "COUNT", "TRUNCATE",
        "IS",     "DROP",   "OR",     "IN",     "BETWEEN",
        "MIN",    "MAX",    "SUM",    "AVG",
    };
    nodes_.emplace_back();  // root
    for (const char* kw : kKeywords) Insert(kw);
  }

  /// Returns the canonical uppercase spelling when `word` is a keyword
  /// (matched case-insensitively), nullptr otherwise.
  const char* Match(const char* word, size_t len) const {
    if (len > kMaxKeywordLen) return nullptr;
    int node = 0;
    for (size_t k = 0; k < len; ++k) {
      char c = word[k];
      if (c >= 'a' && c <= 'z') c = static_cast<char>(c - ('a' - 'A'));
      if (c < 'A' || c > 'Z') return nullptr;  // digits/_ never in keywords
      node = nodes_[static_cast<size_t>(node)].next[c - 'A'];
      if (node == 0) return nullptr;
    }
    return nodes_[static_cast<size_t>(node)].canonical;
  }

  /// Longest keyword ("TIMESTAMP"); longer words skip the walk entirely.
  static constexpr size_t kMaxKeywordLen = 9;

 private:
  struct Node {
    // Child index per letter; 0 (the root, never a child) means "none".
    int16_t next[26] = {};
    const char* canonical = nullptr;
  };

  void Insert(const char* kw) {
    int node = 0;
    for (const char* p = kw; *p != '\0'; ++p) {
      int c = *p - 'A';
      if (nodes_[static_cast<size_t>(node)].next[c] == 0) {
        nodes_[static_cast<size_t>(node)].next[c] =
            static_cast<int16_t>(nodes_.size());
        nodes_.emplace_back();
      }
      node = nodes_[static_cast<size_t>(node)].next[c];
    }
    nodes_[static_cast<size_t>(node)].canonical = kw;
  }

  std::vector<Node> nodes_;
};

const KeywordTrie& Keywords() {
  static const auto* kTrie = new KeywordTrie();
  return *kTrie;
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
bool IsDigit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

// The one SQL scanner. It walks `sql` once and reports every token to
// `sink`, which decides what to build from it:
//   Word(start, len, keyword)   identifier, or keyword when `keyword` (the
//                               canonical uppercase spelling) is non-null
//   Integer(start, len, value) / Double(start, len, value)
//   String(start, value)        `value` with '' escapes resolved
//   Symbol(start, len)          the spelling is the source slice
// Every sink therefore sees the same token boundaries and the same lexical
// errors, byte for byte.
template <typename Sink>
Status ScanSql(const std::string& sql, Sink& sink) {
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    const size_t start = i;
    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(sql[j])) ++j;
      sink.Word(start, j - i, Keywords().Match(sql.data() + i, j - i));
      i = j;
      continue;
    }
    if (IsDigit(c) || (c == '.' && i + 1 < n && IsDigit(sql[i + 1]))) {
      size_t j = i;
      bool is_double = false;
      while (j < n && IsDigit(sql[j])) ++j;
      if (j < n && sql[j] == '.') {
        is_double = true;
        ++j;
        while (j < n && IsDigit(sql[j])) ++j;
      }
      if (j < n && (sql[j] == 'e' || sql[j] == 'E')) {
        size_t k = j + 1;
        if (k < n && (sql[k] == '+' || sql[k] == '-')) ++k;
        if (k < n && IsDigit(sql[k])) {
          is_double = true;
          j = k;
          while (j < n && IsDigit(sql[j])) ++j;
        }
      }
      // strtod/strtoll stop at exactly the character the scan above stopped
      // at, so they parse in place from the source buffer.
      if (is_double) {
        sink.Double(start, j - i, std::strtod(sql.c_str() + i, nullptr));
      } else {
        errno = 0;
        int64_t v = std::strtoll(sql.c_str() + i, nullptr, 10);
        if (errno == ERANGE) {
          return Status::InvalidArgument(
              StrFormat("integer literal out of range at offset %zu", start));
        }
        sink.Integer(start, j - i, v);
      }
      i = j;
      continue;
    }
    if (c == '\'') {
      std::string value;
      size_t j = i + 1;
      bool closed = false;
      // Copy whole runs up to each quote instead of byte-at-a-time appends.
      while (j < n) {
        size_t quote = sql.find('\'', j);
        if (quote == std::string::npos) break;  // unterminated
        value.append(sql, j, quote - j);
        if (quote + 1 < n && sql[quote + 1] == '\'') {  // '' escape
          value += '\'';
          j = quote + 2;
          continue;
        }
        closed = true;
        j = quote + 1;
        break;
      }
      if (!closed) {
        return Status::InvalidArgument(
            StrFormat("unterminated string literal at offset %zu", start));
      }
      sink.String(start, std::move(value));
      i = j;
      continue;
    }
    // Two-character symbols first.
    const char next = i + 1 < n ? sql[i + 1] : '\0';
    if ((c == '<' && (next == '=' || next == '>')) ||
        ((c == '>' || c == '!') && next == '=')) {
      sink.Symbol(start, 2);
      i += 2;
    } else if (std::string_view("(),*=<>+-/.;").find(c) !=
               std::string_view::npos) {
      sink.Symbol(start, 1);
      ++i;
    } else {
      return Status::InvalidArgument(
          StrFormat("unexpected character '%c' at offset %zu", c, start));
    }
  }
  return Status::Ok();
}

// Builds the token vector. With `mask_literals`, every literal becomes a
// kParameter token numbered in source order (the statement cache's template
// input); otherwise literals keep their type and value.
class TokenSink {
 public:
  TokenSink(const std::string& sql, bool mask_literals)
      : sql_(sql), mask_literals_(mask_literals) {
    // Tokens average a handful of bytes of source each; one upfront
    // reservation avoids the O(log n) vector regrowths per statement.
    tokens_.reserve(sql.size() / 4 + 4);
  }

  void Word(size_t start, size_t len, const char* keyword) {
    Add(keyword != nullptr ? TokenType::kKeyword : TokenType::kIdentifier,
        start)
        .text.assign(keyword != nullptr ? keyword : sql_.data() + start, len);
  }
  void Integer(size_t start, size_t len, int64_t value) {
    if (Masked(start)) return;
    Token& t = Add(TokenType::kInteger, start);
    t.text.assign(sql_, start, len);
    t.int_value = value;
  }
  void Double(size_t start, size_t len, double value) {
    if (Masked(start)) return;
    Token& t = Add(TokenType::kDouble, start);
    t.text.assign(sql_, start, len);
    t.double_value = value;
  }
  void String(size_t start, std::string value) {
    if (Masked(start)) return;
    Add(TokenType::kString, start).text = std::move(value);
  }
  void Symbol(size_t start, size_t len) {
    Add(TokenType::kSymbol, start).text.assign(sql_, start, len);
  }

  std::vector<Token> Finish() && {
    Add(TokenType::kEnd, sql_.size());
    return std::move(tokens_);
  }

 private:
  Token& Add(TokenType type, size_t offset) {
    Token& t = tokens_.emplace_back();
    t.type = type;
    t.offset = offset;
    return t;
  }
  bool Masked(size_t start) {
    if (!mask_literals_) return false;
    Token& t = Add(TokenType::kParameter, start);
    t.text = "?";
    t.int_value = next_param_++;
    return true;
  }

  const std::string& sql_;
  const bool mask_literals_;
  int64_t next_param_ = 0;
  std::vector<Token> tokens_;
};

// Builds the statement cache's fingerprint and literal vector directly from
// the scan: no token vector on the hit path.
class FingerprintSink {
 public:
  FingerprintSink(const std::string& sql, std::vector<Value>* params)
      : sql_(sql), params_(params) {
    // Every source byte maps to at most one fingerprint byte plus the token
    // separators; sql.size() + a small slack avoids regrowth.
    fp_.reserve(sql.size() + 8);
  }

  void Word(size_t start, size_t len, const char* keyword) {
    fp_.append(keyword != nullptr ? keyword : sql_.data() + start, len);
    fp_ += ' ';
  }
  void Integer(size_t, size_t, int64_t value) { Param(value); }
  void Double(size_t, size_t, double value) { Param(value); }
  void String(size_t, std::string value) { Param(std::move(value)); }
  void Symbol(size_t start, size_t len) {
    fp_.append(sql_, start, len);
    fp_ += ' ';
  }

  std::string Finish() && { return std::move(fp_); }

 private:
  // Builds the Value in place in `params_`.
  template <typename T>
  void Param(T value) {
    params_->emplace_back(std::move(value));
    fp_ += "? ";
  }

  const std::string& sql_;
  std::vector<Value>* params_;
  std::string fp_;
};

Result<std::vector<Token>> ScanTokens(const std::string& sql,
                                      bool mask_literals) {
  TokenSink sink(sql, mask_literals);
  CLOUDDB_RETURN_IF_ERROR(ScanSql(sql, sink));
  return std::move(sink).Finish();
}

}  // namespace

bool Token::IsKeyword(const char* kw) const {
  return type == TokenType::kKeyword && text == kw;
}

bool Token::IsSymbol(const char* sym) const {
  return type == TokenType::kSymbol && text == sym;
}

Result<std::vector<Token>> Tokenize(const std::string& sql) {
  return ScanTokens(sql, /*mask_literals=*/false);
}

Result<std::vector<Token>> TokenizeMasked(const std::string& sql) {
  return ScanTokens(sql, /*mask_literals=*/true);
}

Result<std::string> FingerprintSql(const std::string& sql,
                                   std::vector<Value>* params) {
  FingerprintSink sink(sql, params);
  CLOUDDB_RETURN_IF_ERROR(ScanSql(sql, sink));
  return std::move(sink).Finish();
}

}  // namespace clouddb::db
