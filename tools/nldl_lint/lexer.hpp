// nldl-lint lexer — a single-pass C++ tokenizer feeding the rule engine.
//
// The PR 7 scanner matched regexes against comment-stripped LINES, which
// capped every rule at what fits on one line. v2 rules instead walk a
// real token stream: identifiers, numbers, punctuators, and literals,
// each carrying its byte offset and 1-based source line, so a rule can
// look across physical lines (multi-line templates, range-for headers
// split by clang-format, parallel_for call extents) without any per-line
// bookkeeping.
//
// Deliberate simplifications (this is a lint lexer, not a compiler):
//   - No preprocessing: `#`, `include`, `pragma` come out as ordinary
//     punct/identifier tokens; directive shapes are recognized by the
//     rule layer (`#` `include` <string>).
//   - `<<` and `>>` are emitted as two single-char tokens so template
//     argument lists can be matched by counting bare `<`/`>` — the same
//     choice C++ itself made in C++11 for `>>`.
//   - Comments are not tokens. Their text is accumulated per source line
//     in `comment_by_line`, which is the ONLY channel the suppression
//     parser reads — a directive quoted inside a string literal is inert,
//     and prose inside comments can never trigger a code rule.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace nldl::lint {

enum class TokenKind {
  kIdentifier,  ///< [A-Za-z_][A-Za-z0-9_]*
  kNumber,      ///< pp-number: 123, 1.5e-3, 0x1Fp2, 1'000'000, 2.0f
  kPunct,       ///< operators/punctuation, maximal munch (see kPuncts)
  kString,      ///< "..."/R"(...)" including prefix and quotes
  kChar,        ///< '...'
};

struct Token {
  TokenKind kind = TokenKind::kPunct;
  std::string_view text;   ///< view into the lexed source buffer
  std::size_t offset = 0;  ///< byte offset of text.front() in the source
  std::size_t line = 0;    ///< 1-based physical line of text.front()
};

struct TokenStream {
  std::vector<Token> tokens;  ///< code tokens only, in source order
  /// comment_by_line[i] is the concatenated comment text whose characters
  /// lie on 1-based line i+1 (a block comment contributes to every line
  /// it spans). Suppression directives are parsed from here and nowhere
  /// else.
  std::vector<std::string> comment_by_line;
  std::size_t line_count = 0;  ///< number of physical lines in the source
};

/// Tokenize `source`. Views in the result alias `source`, which must
/// outlive the stream.
[[nodiscard]] TokenStream lex(std::string_view source);

/// True for C++ reserved words (plus the contextual `final`/`override`),
/// which the rules never treat as declared or exported names.
[[nodiscard]] bool is_keyword(std::string_view s);

}  // namespace nldl::lint
