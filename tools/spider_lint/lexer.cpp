#include "lint.hpp"

#include <cctype>

namespace spider::lint {

namespace {

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_cont(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }
bool digit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

/// Multi-character operators emitted as single punct tokens, longest
/// first so "<<=" never lexes as "<" "<=".
constexpr std::string_view kOps[] = {
    "<<=", ">>=", "->*", "...", "::", "->", "++", "--", "<<", ">>", "<=", ">=",
    "==",  "!=",  "&&",  "||",  "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
};

}  // namespace

std::vector<Token> lex(std::string_view src) {
  std::vector<Token> out;
  std::size_t i = 0;
  int line = 1;
  const std::size_t n = src.size();

  auto peek = [&](std::size_t off) -> char { return i + off < n ? src[i + off] : '\0'; };

  while (i < n) {
    char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && peek(1) == '/') {
      while (i < n && src[i] != '\n') ++i;
      continue;
    }
    // Block comment.
    if (c == '/' && peek(1) == '*') {
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      i = i + 2 <= n ? i + 2 : n;
      continue;
    }
    // Preprocessor directive: swallow the (continued) line.
    if (c == '#' && (out.empty() || out.back().line != line)) {
      std::size_t start = i;
      int start_line = line;
      while (i < n && src[i] != '\n') {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          ++line;
          i += 2;
          continue;
        }
        ++i;
      }
      out.push_back({Token::Kind::kDirective, std::string(src.substr(start, i - start)),
                     start_line});
      continue;
    }
    // Raw string literal R"delim(...)delim".
    if (c == 'R' && peek(1) == '"') {
      std::size_t delim_start = i + 2;
      std::size_t paren = src.find('(', delim_start);
      if (paren != std::string_view::npos) {
        // Built by appending: `")" + std::string(...)` trips GCC 12's
        // -Wrestrict false positive at -O3.
        std::string close = ")";
        close += src.substr(delim_start, paren - delim_start);
        close += '"';
        std::size_t end = src.find(close, paren + 1);
        std::size_t stop = end == std::string_view::npos ? n : end + close.size();
        int start_line = line;
        for (std::size_t k = i; k < stop; ++k) {
          if (src[k] == '\n') ++line;
        }
        out.push_back({Token::Kind::kString, std::string(src.substr(i, stop - i)), start_line});
        i = stop;
        continue;
      }
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      char quote = c;
      std::size_t start = i;
      int start_line = line;
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) {
          if (src[i + 1] == '\n') ++line;
          i += 2;
          continue;
        }
        if (src[i] == '\n') ++line;  // unterminated; keep line counts honest
        ++i;
      }
      if (i < n) ++i;  // closing quote
      out.push_back({quote == '"' ? Token::Kind::kString : Token::Kind::kChar,
                     std::string(src.substr(start, i - start)), start_line});
      continue;
    }
    // Identifier / keyword.
    if (ident_start(c)) {
      std::size_t start = i;
      while (i < n && ident_cont(src[i])) ++i;
      out.push_back({Token::Kind::kIdent, std::string(src.substr(start, i - start)), line});
      continue;
    }
    // Number (accepts ', hex, exponents — precision is irrelevant here).
    if (digit(c) || (c == '.' && digit(peek(1)))) {
      std::size_t start = i;
      while (i < n && (ident_cont(src[i]) || src[i] == '\'' || src[i] == '.' ||
                       ((src[i] == '+' || src[i] == '-') && i > start &&
                        (src[i - 1] == 'e' || src[i - 1] == 'E' || src[i - 1] == 'p' ||
                         src[i - 1] == 'P')))) {
        ++i;
      }
      out.push_back({Token::Kind::kNumber, std::string(src.substr(start, i - start)), line});
      continue;
    }
    // Multi-char operator.
    bool matched = false;
    for (std::string_view op : kOps) {
      if (src.substr(i, op.size()) == op) {
        out.push_back({Token::Kind::kPunct, std::string(op), line});
        i += op.size();
        matched = true;
        break;
      }
    }
    if (matched) continue;
    // Single-char punct (also the fallback for any unexpected byte).
    out.push_back({Token::Kind::kPunct, std::string(1, c), line});
    ++i;
  }
  return out;
}

std::map<int, std::set<std::string>> collect_suppressions(std::string_view src) {
  std::map<int, std::set<std::string>> out;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();
  bool code_seen_on_line = false;

  auto parse_comment = [&](std::size_t begin, std::size_t end, int at_line, bool alone) {
    std::string_view comment = src.substr(begin, end - begin);
    std::size_t tag = comment.find("spider-lint:");
    if (tag == std::string_view::npos) return;
    std::size_t allow = comment.find("allow(", tag);
    if (allow == std::string_view::npos) return;
    std::size_t close = comment.find(')', allow);
    if (close == std::string_view::npos) return;
    std::string_view list = comment.substr(allow + 6, close - (allow + 6));
    std::set<std::string> rules;
    std::string cur;
    for (char c : list) {
      if (c == ',' || c == ' ') {
        if (!cur.empty()) rules.insert(cur);
        cur.clear();
      } else {
        cur += c;
      }
    }
    if (!cur.empty()) rules.insert(cur);
    if (rules.empty()) return;
    out[at_line].insert(rules.begin(), rules.end());
    // A standalone suppression comment covers the following line.
    if (alone) out[at_line + 1].insert(rules.begin(), rules.end());
  };

  while (i < n) {
    char c = src[i];
    if (c == '\n') {
      ++line;
      code_seen_on_line = false;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      std::size_t start = i;
      while (i < n && src[i] != '\n') ++i;
      parse_comment(start, i, line, /*alone=*/!code_seen_on_line);
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      std::size_t start = i;
      int start_line = line;
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      i = i + 2 <= n ? i + 2 : n;
      parse_comment(start, i, start_line, /*alone=*/!code_seen_on_line);
      continue;
    }
    // Strings may contain "//" — skip them so they don't fake a comment.
    if (c == '"' || c == '\'') {
      char quote = c;
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) {
          if (src[i + 1] == '\n') ++line;
          i += 2;
          continue;
        }
        if (src[i] == '\n') ++line;
        ++i;
      }
      if (i < n) ++i;
      code_seen_on_line = true;
      continue;
    }
    code_seen_on_line = true;
    ++i;
  }
  return out;
}

}  // namespace spider::lint
