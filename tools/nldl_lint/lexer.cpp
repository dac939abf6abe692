#include "lexer.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <set>

namespace nldl::lint {

namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_digit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

/// Multi-char punctuators recognized by maximal munch. `<<`/`>>` are
/// deliberately absent (see lexer.hpp); `<=`/`>=` are kept because a bare
/// relational never opens or closes a template argument list this lint
/// cares about.
constexpr std::array<std::string_view, 18> kPuncts = {
    "->*", "...", "::", "->", "++", "--", "+=", "-=", "*=",
    "/=",  "%=",  "==", "!=", "<=", ">=", "&&", "||", "##",
};

/// Raw-string prefixes: R"..., uR"..., u8R"..., LR"..., UR"...
bool is_raw_string_prefix(std::string_view ident) {
  return ident == "R" || ident == "uR" || ident == "u8R" || ident == "LR" ||
         ident == "UR";
}

}  // namespace

TokenStream lex(std::string_view source) {
  TokenStream out;
  out.line_count =
      static_cast<std::size_t>(
          std::count(source.begin(), source.end(), '\n')) +
      1;
  out.comment_by_line.assign(out.line_count, std::string());

  std::size_t line = 1;
  std::size_t i = 0;
  const std::size_t n = source.size();

  auto push = [&](TokenKind kind, std::size_t begin, std::size_t end,
                  std::size_t begin_line) {
    out.tokens.push_back(
        {kind, source.substr(begin, end - begin), begin, begin_line});
  };

  while (i < n) {
    const char c = source[i];
    const char next = i + 1 < n ? source[i + 1] : '\0';

    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }

    // Line comment.
    if (c == '/' && next == '/') {
      std::size_t j = i + 2;
      while (j < n && source[j] != '\n') ++j;
      out.comment_by_line[line - 1].append(source.substr(i, j - i));
      i = j;
      continue;
    }

    // Block comment — text is distributed line by line so a suppression
    // inside a multi-line /* */ attaches to the line it is written on.
    if (c == '/' && next == '*') {
      std::size_t j = i + 2;
      std::size_t comment_line = line;
      std::size_t seg_start = i;
      while (j < n && !(source[j] == '*' && j + 1 < n && source[j + 1] == '/')) {
        if (source[j] == '\n') {
          out.comment_by_line[comment_line - 1].append(
              source.substr(seg_start, j - seg_start));
          ++comment_line;
          seg_start = j + 1;
        }
        ++j;
      }
      const std::size_t end = j < n ? j + 2 : n;
      out.comment_by_line[comment_line - 1].append(
          source.substr(seg_start, end - seg_start));
      line = comment_line;
      i = end;
      continue;
    }

    // Identifier (possibly a raw-string prefix).
    if (is_ident_start(c)) {
      std::size_t j = i;
      while (j < n && is_ident_char(source[j])) ++j;
      const std::string_view ident = source.substr(i, j - i);
      if (j < n && source[j] == '"' && is_raw_string_prefix(ident)) {
        // R"delim( ... )delim"
        std::size_t k = j + 1;
        while (k < n && source[k] != '(') ++k;
        std::string close(1, ')');
        close.append(source.substr(j + 1, k - (j + 1)));
        close.push_back('"');
        std::size_t body = k;
        const std::size_t begin_line = line;
        while (body < n && source.compare(body, close.size(), close) != 0) {
          if (source[body] == '\n') ++line;
          ++body;
        }
        const std::size_t end = body < n ? body + close.size() : n;
        push(TokenKind::kString, i, end, begin_line);
        i = end;
        continue;
      }
      push(TokenKind::kIdentifier, i, j, line);
      i = j;
      continue;
    }

    // Number (pp-number): starts with a digit, or '.' followed by a digit.
    if (is_digit(c) || (c == '.' && is_digit(next))) {
      std::size_t j = i;
      while (j < n) {
        const char d = source[j];
        if (is_ident_char(d) || d == '.') {
          // Exponent signs: e+, e-, E+, E-, p+, p- (hex floats).
          if ((d == 'e' || d == 'E' || d == 'p' || d == 'P') && j + 1 < n &&
              (source[j + 1] == '+' || source[j + 1] == '-') && j > i) {
            j += 2;
            continue;
          }
          ++j;
          continue;
        }
        if (d == '\'' && j + 1 < n && is_ident_char(source[j + 1])) {
          ++j;  // digit separator 1'000'000
          continue;
        }
        break;
      }
      push(TokenKind::kNumber, i, j, line);
      i = j;
      continue;
    }

    // String literal (a prefix like u8 was already consumed as an
    // identifier token; that is fine for this lint's purposes).
    if (c == '"') {
      std::size_t j = i + 1;
      const std::size_t begin_line = line;
      while (j < n && source[j] != '"') {
        if (source[j] == '\\' && j + 1 < n) {
          if (source[j + 1] == '\n') ++line;
          j += 2;
          continue;
        }
        if (source[j] == '\n') ++line;  // unterminated tolerance
        ++j;
      }
      const std::size_t end = j < n ? j + 1 : n;
      push(TokenKind::kString, i, end, begin_line);
      i = end;
      continue;
    }

    // Character literal.
    if (c == '\'') {
      std::size_t j = i + 1;
      const std::size_t begin_line = line;
      while (j < n && source[j] != '\'') {
        if (source[j] == '\\' && j + 1 < n) {
          j += 2;
          continue;
        }
        if (source[j] == '\n') break;  // stray quote, not a literal
        ++j;
      }
      const std::size_t end = j < n && source[j] == '\'' ? j + 1 : i + 1;
      push(TokenKind::kChar, i, end, begin_line);
      i = end;
      continue;
    }

    // Punctuator, maximal munch over the multi-char table.
    {
      std::size_t len = 1;
      for (const std::string_view p : kPuncts) {
        if (p.size() <= n - i && source.compare(i, p.size(), p) == 0) {
          len = p.size();
          break;
        }
      }
      push(TokenKind::kPunct, i, i + len, line);
      i += len;
    }
  }

  return out;
}

bool is_keyword(std::string_view s) {
  static const std::set<std::string_view> kKeywords = {
      "alignas",   "alignof",  "auto",     "bool",     "break",
      "case",      "catch",    "char",     "class",    "const",
      "consteval", "constexpr","constinit","continue", "decltype",
      "default",   "delete",   "do",       "double",   "else",
      "enum",      "explicit", "export",   "extern",   "false",
      "float",     "for",      "friend",   "goto",     "if",
      "inline",    "int",      "long",     "mutable",  "namespace",
      "new",       "noexcept", "nullptr",  "operator", "private",
      "protected", "public",   "requires", "return",   "short",
      "signed",    "sizeof",   "static",   "struct",   "switch",
      "template",  "this",     "throw",    "true",     "try",
      "typedef",   "typeid",   "typename", "union",    "unsigned",
      "using",     "virtual",  "void",     "volatile", "while",
      "final",     "override", "concept",  "co_await", "co_return",
      "co_yield",  "static_assert",
  };
  return kKeywords.count(s) != 0;
}

}  // namespace nldl::lint
