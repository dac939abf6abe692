#include "lint.hpp"

#include <algorithm>
#include <cctype>

namespace nldl::lint {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() &&
         std::isspace(static_cast<unsigned char>(s.front())) != 0) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())) != 0) {
    s.remove_suffix(1);
  }
  return s;
}

bool ends_with_ci(std::string_view text, std::string_view suffix) {
  if (text.size() < suffix.size()) return false;
  const std::size_t base = text.size() - suffix.size();
  for (std::size_t i = 0; i < suffix.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(text[base + i])) !=
        std::tolower(static_cast<unsigned char>(suffix[i]))) {
      return false;
    }
  }
  return true;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.compare(0, prefix.size(), prefix) == 0;
}

/// Floating literal: decimal with '.' or exponent, or hex with a p
/// exponent. "1u", "42" are not; "1.0f", "1e9", "0x1p3" are.
bool is_float_literal(std::string_view text) {
  if (starts_with(text, "0x") || starts_with(text, "0X")) {
    return text.find('p') != std::string_view::npos ||
           text.find('P') != std::string_view::npos;
  }
  for (const char c : text) {
    if (c == '.' || c == 'e' || c == 'E') return true;
  }
  return false;
}

/// Literal whose numeric value is exactly zero ("0", "0.0", "0.", "00",
/// "0e10", "0.0f"): the sanctioned sentinel-guard comparand for
/// double-eq. Scans the mantissa only.
bool is_zero_literal(std::string_view text) {
  std::string_view body = text;
  if (starts_with(body, "0x") || starts_with(body, "0X")) {
    body.remove_prefix(2);
  }
  bool saw_digit = false;
  for (const char c : body) {
    if (c == 'e' || c == 'E' || c == 'p' || c == 'P') break;  // exponent
    if (c == '.' || c == '\'') continue;
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) break;  // suffix
    if (c != '0') return false;
    saw_digit = true;
  }
  return saw_digit;
}

struct Suppression {
  std::vector<std::string> rules;
};

/// Parse a suppression directive from one line's comment text: the
/// marker (the linter's name plus a colon), then allow(rule list) and a
/// mandatory `: justification`. Returns true if a directive is present
/// at all; fills `out` on success or `error` on malformation. The exact
/// syntax is documented only in string literals (--list-rules, README):
/// spelling the marker in a real comment would itself parse as a
/// directive.
bool parse_suppression(std::string_view comment, Suppression& out,
                       std::string& error) {
  static constexpr std::string_view kMarker = "nldl-lint:";
  const std::size_t marker = comment.find(kMarker);
  if (marker == std::string_view::npos) return false;
  std::string_view rest = trim(comment.substr(marker + kMarker.size()));
  static constexpr std::string_view kAllow = "allow(";
  if (rest.compare(0, kAllow.size(), kAllow) != 0) {
    error = "malformed suppression: expected 'allow(<rule>): <justification>'";
    return true;
  }
  rest.remove_prefix(kAllow.size());
  const std::size_t close = rest.find(')');
  if (close == std::string_view::npos) {
    error = "malformed suppression: unterminated allow(...)";
    return true;
  }
  std::string_view rule_list = rest.substr(0, close);
  rest = trim(rest.substr(close + 1));
  while (!rule_list.empty()) {
    const std::size_t comma = rule_list.find(',');
    const std::string_view rule = trim(rule_list.substr(0, comma));
    if (rule.empty() || !is_rule(rule)) {
      error = "malformed suppression: unknown rule '" + std::string(rule) +
              "' (see nldl_lint --list-rules)";
      return true;
    }
    out.rules.emplace_back(rule);
    if (comma == std::string_view::npos) break;
    rule_list.remove_prefix(comma + 1);
  }
  if (out.rules.empty()) {
    error = "malformed suppression: empty rule list";
    return true;
  }
  if (rest.empty() || rest.front() != ':') {
    error =
        "malformed suppression: missing ': <justification>' after allow()";
    return true;
  }
  rest = trim(rest.substr(1));
  if (rest.empty()) {
    error = "malformed suppression: justification must not be empty";
    return true;
  }
  return true;
}

/// True when `path` lies in the tests/ driver tree (double-eq does not
/// apply there: tests legitimately pin exact float values).
bool in_tests_tree(std::string_view path) {
  return starts_with(path, "tests/") ||
         path.find("/tests/") != std::string_view::npos;
}

}  // namespace

const std::vector<Rule>& rules() {
  static const std::vector<Rule> kRules = {
      {"unordered-container",
       "std::unordered_{map,set,multimap,multiset} in checked code",
       "hash-container iteration order is unspecified and seed-dependent; "
       "any loop over one feeds platform-dependent order into results — "
       "use std::map/std::set or a sorted vector"},
      {"pointer-order",
       "ordered container or comparator keyed on raw pointer values",
       "pointer order depends on the allocator and ASLR, so sorted-by-"
       "pointer output changes run to run — key on a stable id instead"},
      {"nondet-source",
       "banned nondeterminism source (rand/random_device/time/clock::now)",
       "wall clocks, C PRNGs, and entropy sources must never feed a "
       "result, seed, or scheduling decision; reported wall times in the "
       "bench harness carry justified suppressions"},
      {"locale",
       "locale-dependent float formatting/parsing (stod/atof/strtod/"
       "sscanf/setlocale)",
       "a comma-decimal locale silently corrupts JSON artifacts and CLI "
       "parsing — use std::to_chars/std::from_chars (util::json_number)"},
      {"parallel-accum",
       "scheduling-order-dependent floating accumulation "
       "(atomic<double>, std::execution::par, omp, += in a parallel_for "
       "extent)",
       "float addition does not commute in rounding; parallel reductions "
       "must go through util::Sweep's strictly ordered fold to stay "
       "bit-identical across thread counts"},
      {"float-order",
       "compound float update ordered by hash iteration or thread "
       "scheduling (+= in a range-for over an unordered container, or on "
       "a floating identifier in a parallel_for extent)",
       "the accumulation order of a float sum is part of its value; "
       "iterating an unordered container or racing a shared target makes "
       "that order platform-dependent — iterate an ordered container or "
       "fold through util::Sweep"},
      {"double-eq",
       "==/!= with a floating-point operand outside tests/ (exact-zero "
       "sentinel guards exempt)",
       "exact float equality encodes a hidden bitwise assumption; outside "
       "pinned tests it is either a bug or a deliberate sentinel that "
       "deserves a written justification"},
      {"layer-violation",
       "#include edge contradicting the declared layer DAG "
       "(tools/nldl_lint/layers.cpp)",
       "the layer DAG is the architecture: a back-edge couples a lower "
       "layer to a higher one, breaks header standalone builds, and rots "
       "into cycles — move the code or declare a reviewed exception"},
      {"include-cycle",
       "cycle in the quoted-#include graph",
       "an include cycle means no header in it is self-contained and the "
       "build depends on inclusion order — break the cycle with a forward "
       "declaration or an interface split"},
      {"iwyu-lite",
       "#include of a project header none of whose exported names appear "
       "in this file",
       "stale includes hide the real dependency graph, slow builds, and "
       "mask layering drift; delete the include or mark a deliberate "
       "re-export with '// IWYU pragma: export'"},
  };
  return kRules;
}

bool is_rule(std::string_view id) {
  const auto& table = rules();
  return std::any_of(table.begin(), table.end(),
                     [id](const Rule& rule) { return rule.id == id; });
}

std::string strip_comments_and_strings(std::string_view source) {
  const TokenStream stream = lex(source);
  std::string out(source.size(), ' ');
  for (std::size_t i = 0; i < source.size(); ++i) {
    if (source[i] == '\n') out[i] = '\n';
  }
  for (const Token& tok : stream.tokens) {
    if (tok.kind == TokenKind::kString || tok.kind == TokenKind::kChar) {
      continue;
    }
    for (std::size_t i = 0; i < tok.text.size(); ++i) {
      if (tok.text[i] != '\n') out[tok.offset + i] = tok.text[i];
    }
  }
  return out;
}

void report(FileScan& file, std::size_t line, std::string_view rule,
            std::string message) {
  for (const Finding& prior : file.findings) {
    if (prior.line == line && prior.rule == rule) return;  // dedupe
  }
  if (line >= 1 && line <= file.suppressions.size()) {
    FileScan::LineSuppression& sup = file.suppressions[line - 1];
    if (std::find(sup.rules.begin(), sup.rules.end(), rule) !=
        sup.rules.end()) {
      sup.used = true;
      return;
    }
  }
  file.findings.push_back(
      {file.path, line, std::string(rule), std::move(message)});
}

void scan_file(FileScan& file) {
  file.stream = lex(file.source);
  const std::vector<Token>& toks = file.stream.tokens;
  const std::size_t n = toks.size();
  file.suppressions.assign(file.stream.line_count, {});

  // The bench layer (src/bench/, bench/) is where wall time is honest:
  // the sanctioned bench::WallClock::now() funnel may only appear there.
  const bool bench_layer = file.path.find("bench") != std::string::npos;
  const bool tests_tree = in_tests_tree(file.path);

  // Suppressions first, so malformed-directive findings precede same-line
  // rule findings after the final stable sort.
  for (std::size_t i = 0; i < file.stream.comment_by_line.size(); ++i) {
    Suppression sup;
    std::string error;
    if (parse_suppression(file.stream.comment_by_line[i], sup, error)) {
      if (!error.empty()) {
        file.findings.push_back({file.path, i + 1, "suppression", error});
      } else {
        file.suppressions[i].rules = std::move(sup.rules);
      }
    }
  }

  // Token accessors; index past the ends yields a harmless empty token.
  static const Token kNone{};
  auto at = [&](std::size_t i) -> const Token& {
    return i < n ? toks[i] : kNone;
  };
  auto prev = [&](std::size_t i) -> const Token& {
    return i > 0 ? toks[i - 1] : kNone;
  };
  auto is_p = [&](const Token& t, std::string_view text) {
    return t.kind == TokenKind::kPunct && t.text == text;
  };
  auto is_id = [&](const Token& t, std::string_view text) {
    return t.kind == TokenKind::kIdentifier && t.text == text;
  };

  // --- fact passes ----------------------------------------------------------

  // #include "..." directives.
  for (std::size_t i = 0; i + 2 < n; ++i) {
    if (is_p(toks[i], "#") && is_id(toks[i + 1], "include") &&
        toks[i + 2].kind == TokenKind::kString &&
        toks[i + 2].text.size() >= 2) {
      std::string_view path = toks[i + 2].text;
      path.remove_prefix(1);
      path.remove_suffix(1);
      file.includes.push_back({std::string(path), toks[i].line});
    }
  }

  // The identifier set (iwyu-lite usage side).
  for (const Token& tok : toks) {
    if (tok.kind == TokenKind::kIdentifier) file.idents.insert(tok.text);
  }

  // Floating-declared identifiers: `double x`, `float& y`, params
  // included; `auto z = 1.5;`. Pointers (`double* out`) are NOT floats —
  // comparing them is pointer equality. Template arguments
  // (`vector<double>`) declare containers, not scalars, and fall out
  // naturally because the next token is `>` or `,`.
  std::set<std::string_view> float_idents;
  for (std::size_t i = 0; i < n; ++i) {
    if (is_id(toks[i], "double") || is_id(toks[i], "float")) {
      std::size_t j = i + 1;
      while (j < n && (is_id(at(j), "const") || is_p(at(j), "&"))) {
        ++j;
      }
      if (at(j).kind == TokenKind::kIdentifier && !is_keyword(at(j).text)) {
        float_idents.insert(at(j).text);
      }
    } else if (is_id(toks[i], "auto") &&
               at(i + 1).kind == TokenKind::kIdentifier &&
               is_p(at(i + 2), "=") &&
               at(i + 3).kind == TokenKind::kNumber &&
               is_float_literal(at(i + 3).text)) {
      float_idents.insert(at(i + 1).text);
    }
  }

  // Identifiers declared as unordered containers:
  // `std::unordered_map<K, V> cache;` marks `cache`.
  std::set<std::string_view> unordered_idents;
  for (std::size_t i = 0; i < n; ++i) {
    if (toks[i].kind != TokenKind::kIdentifier ||
        !starts_with(toks[i].text, "unordered_")) {
      continue;
    }
    std::size_t j = i + 1;
    if (!is_p(at(j), "<")) continue;
    int angle = 0;
    for (; j < n; ++j) {
      if (is_p(toks[j], "<")) ++angle;
      if (is_p(toks[j], ">") && --angle == 0) break;
    }
    ++j;  // past the closing '>'
    while (is_p(at(j), "&")) ++j;
    if (at(j).kind == TokenKind::kIdentifier && !is_keyword(at(j).text)) {
      unordered_idents.insert(at(j).text);
    }
  }

  // Token extents of parallel_for(...) call arguments (lambda included),
  // and of NLDL_ASSERT/NLDL_REQUIRE-style assertion macros (double-eq is
  // exempt there: an assertion states an exact invariant loudly, which
  // is the opposite of silent float-equality control flow).
  std::vector<bool> in_parallel_for(n, false);
  std::vector<bool> in_assert(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    const bool par = is_id(toks[i], "parallel_for");
    const bool assert_macro = toks[i].kind == TokenKind::kIdentifier &&
                              starts_with(toks[i].text, "NLDL_");
    if ((!par && !assert_macro) || !is_p(at(i + 1), "(")) continue;
    std::vector<bool>& extent = par ? in_parallel_for : in_assert;
    int depth = 0;
    std::size_t j = i + 1;
    for (; j < n; ++j) {
      if (is_p(toks[j], "(")) ++depth;
      if (is_p(toks[j], ")") && --depth == 0) break;
      extent[j] = true;
    }
    extent[i] = true;
  }

  // --- single-file rules ----------------------------------------------------

  for (std::size_t i = 0; i < n; ++i) {
    const Token& tok = toks[i];

    if (tok.kind == TokenKind::kIdentifier) {
      const std::string_view id = tok.text;
      const bool std_qualified =
          is_p(prev(i), "::") && i >= 2 && is_id(toks[i - 2], "std");
      const bool member_access = is_p(prev(i), ".") || is_p(prev(i), "->");

      // unordered-container
      if (id == "unordered_map" || id == "unordered_set" ||
          id == "unordered_multimap" || id == "unordered_multiset") {
        report(file, tok.line, "unordered-container",
               "hash container '" + std::string(id) +
                   "': iteration order is unspecified — use an ordered "
                   "container or a sorted vector");
      }

      // pointer-order: std::{map,set,multimap,multiset}< ...* and
      // std::less< ...* >.
      if (std_qualified && (id == "map" || id == "set" || id == "multimap" ||
                            id == "multiset") &&
          is_p(at(i + 1), "<")) {
        for (std::size_t j = i + 2; j < n; ++j) {
          const Token& t = toks[j];
          if (is_p(t, "<") || is_p(t, ">") || is_p(t, ",") || is_p(t, ";") ||
              is_p(t, "(") || is_p(t, ")")) {
            break;
          }
          if (is_p(t, "*")) {
            report(file, tok.line, "pointer-order",
                   "ordered container keyed on a raw pointer: pointer "
                   "order is allocator/ASLR-dependent — key on a stable "
                   "id");
            break;
          }
        }
      }
      if (std_qualified && id == "less" && is_p(at(i + 1), "<")) {
        bool saw_star = false;
        for (std::size_t j = i + 2; j < n; ++j) {
          const Token& t = toks[j];
          if (is_p(t, "<")) break;
          if (is_p(t, ">")) {
            if (saw_star) {
              report(file, tok.line, "pointer-order",
                     "std::less over raw pointers orders by address — key "
                     "on a stable id");
            }
            break;
          }
          saw_star = is_p(t, "*");
        }
      }

      // nondet-source
      {
        const char* hit = nullptr;
        if ((std_qualified && id == "rand") || id == "srand") {
          hit = "C PRNG (rand/srand)";
        } else if (id == "random_device") {
          hit = "std::random_device (nondeterministic entropy)";
        } else if (id == "time" &&
                   (std_qualified ||
                    (is_p(at(i + 1), "(") && !member_access &&
                     !is_p(prev(i), "::")))) {
          hit = "wall-clock time()";
        } else if (id == "clock" && std_qualified) {
          hit = "processor clock()";
        } else if (ends_with_ci(id, "clock") && is_p(at(i + 1), "::") &&
                   is_id(at(i + 2), "now")) {
          if (ends_with_ci(id, "wallclock")) {
            if (!bench_layer) {
              hit = "bench::WallClock::now() outside the bench layer (the "
                    "sim domain never reads a real clock)";
            }
          } else {
            hit = "chrono clock ::now()";
          }
        }
        if (hit != nullptr) {
          report(file, tok.line, "nondet-source",
                 std::string(hit) +
                     ": must not feed results, seeds, or scheduling — seed "
                     "util::Rng explicitly; timers need a justified "
                     "suppression");
        }
      }

      // locale
      {
        const char* hit = nullptr;
        if ((id == "stod" || id == "stof" || id == "stold") &&
            (std_qualified ||
             (is_p(at(i + 1), "(") && !member_access && !is_p(prev(i), "::")))) {
          hit = "std::stod/stof family is locale-dependent";
        } else if ((id == "atof" || id == "strtod" || id == "strtof" ||
                    id == "strtold") &&
                   is_p(at(i + 1), "(")) {
          hit = "C float parsing (atof/strtod) is locale-dependent";
        } else if ((id == "sscanf" || id == "fscanf" || id == "scanf") &&
                   is_p(at(i + 1), "(")) {
          hit = "scanf-family float conversions are locale-dependent";
        } else if (id == "setlocale" ||
                   (std_qualified && id == "locale")) {
          hit = "locale mutation changes float formatting globally";
        } else if (id == "imbue" && is_p(prev(i), ".") &&
                   is_p(at(i + 1), "(")) {
          hit = "locale mutation changes float formatting globally";
        }
        if (hit != nullptr) {
          report(file, tok.line, "locale",
                 std::string(hit) +
                     " — use std::from_chars/std::to_chars "
                     "(util::json_number)");
        }
      }

      // parallel-accum: atomic floats, parallel policies, omp pragmas.
      if (std_qualified && id == "atomic" && is_p(at(i + 1), "<") &&
          (is_id(at(i + 2), "float") || is_id(at(i + 2), "double") ||
           (is_id(at(i + 2), "long") && is_id(at(i + 3), "double")))) {
        report(file, tok.line, "parallel-accum",
               "std::atomic over a floating type: fetch-add order follows "
               "thread scheduling — use util::Sweep's ordered reduction");
      }
      if (std_qualified && id == "execution" && is_p(at(i + 1), "::") &&
          at(i + 2).kind == TokenKind::kIdentifier &&
          starts_with(at(i + 2).text, "par")) {
        report(file, tok.line, "parallel-accum",
               "parallel execution policy reduces in unspecified order — "
               "use util::Sweep's ordered reduction");
      }
      if (id == "omp" && is_id(prev(i), "pragma") && i >= 2 &&
          is_p(toks[i - 2], "#")) {
        report(file, tok.line, "parallel-accum",
               "OpenMP pragmas schedule reductions nondeterministically — "
               "use util::ThreadPool + util::Sweep");
      }
    }

    // Compound updates inside a parallel_for extent: parallel-accum on
    // any target (the v1 syntactic rule), float-order additionally when
    // the target is floating-declared (the flow-sensitive sharpening).
    if ((is_p(tok, "+=") || is_p(tok, "-=")) && !is_id(prev(i), "operator") &&
        in_parallel_for[i]) {
      report(file, tok.line, "parallel-accum",
             "compound update inside a parallel_for extent: if the target "
             "is shared, accumulation order follows thread scheduling — "
             "reduce through util::Sweep's ordered fold");
      if (prev(i).kind == TokenKind::kIdentifier &&
          float_idents.count(prev(i).text) != 0) {
        report(file, tok.line, "float-order",
               "floating accumulation into '" + std::string(prev(i).text) +
                   "' inside a parallel_for extent: the sum's rounding "
                   "depends on thread scheduling — fold through "
                   "util::Sweep's ordered reduction");
      }
    }

    // double-eq (outside tests/ and assertion-macro extents).
    if ((is_p(tok, "==") || is_p(tok, "!=")) && !tests_tree && !in_assert[i]) {
      auto floaty = [&](const Token& t) {
        if (t.kind == TokenKind::kNumber) return is_float_literal(t.text);
        if (t.kind == TokenKind::kIdentifier) {
          return float_idents.count(t.text) != 0;
        }
        return false;
      };
      auto zero = [&](const Token& t) {
        return t.kind == TokenKind::kNumber && is_zero_literal(t.text);
      };
      // String/char literals and nullptr make the comparison non-float
      // regardless of what a same-named identifier is elsewhere in the
      // file (float_idents is file-scoped, not flow-scoped).
      auto non_float = [&](const Token& t) {
        return t.kind == TokenKind::kString || t.kind == TokenKind::kChar ||
               (t.kind == TokenKind::kIdentifier && t.text == "nullptr");
      };
      if (!zero(prev(i)) && !zero(at(i + 1)) && !non_float(prev(i)) &&
          !non_float(at(i + 1)) &&
          (floaty(prev(i)) || floaty(at(i + 1)))) {
        report(file, tok.line, "double-eq",
               "exact floating-point comparison: equality of computed "
               "floats encodes a bitwise assumption — compare against an "
               "exact-zero sentinel, restructure, or justify with a "
               "suppression");
      }
    }
  }

  // float-order, range-for case: `for (decl : range)` where the range
  // expression names an unordered container, with a compound floating
  // update anywhere in the loop body — matched across lines.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (!is_id(toks[i], "for") || !is_p(toks[i + 1], "(")) continue;
    int depth = 0;
    std::size_t colon = 0;
    std::size_t close = 0;
    for (std::size_t j = i + 1; j < n; ++j) {
      if (is_p(toks[j], "(")) ++depth;
      if (is_p(toks[j], ")") && --depth == 0) {
        close = j;
        break;
      }
      if (depth == 1 && is_p(toks[j], ":") && colon == 0) colon = j;
    }
    if (colon == 0 || close == 0) continue;  // not a range-for
    bool unordered_range = false;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (toks[j].kind == TokenKind::kIdentifier &&
          (starts_with(toks[j].text, "unordered_") ||
           unordered_idents.count(toks[j].text) != 0)) {
        unordered_range = true;
        break;
      }
    }
    if (!unordered_range) continue;
    // Body extent: a brace block or a single statement.
    std::size_t body_end = close;
    if (is_p(at(close + 1), "{")) {
      int braces = 0;
      for (std::size_t j = close + 1; j < n; ++j) {
        if (is_p(toks[j], "{")) ++braces;
        if (is_p(toks[j], "}") && --braces == 0) {
          body_end = j;
          break;
        }
      }
    } else {
      for (std::size_t j = close + 1; j < n; ++j) {
        if (is_p(toks[j], ";")) {
          body_end = j;
          break;
        }
      }
    }
    for (std::size_t j = close + 1; j <= body_end && j < n; ++j) {
      if ((is_p(toks[j], "+=") || is_p(toks[j], "-=")) &&
          !is_id(prev(j), "operator") &&
          prev(j).kind == TokenKind::kIdentifier &&
          float_idents.count(prev(j).text) != 0) {
        report(file, toks[j].line, "float-order",
               "floating accumulation into '" + std::string(prev(j).text) +
                   "' while iterating an unordered container: the sum's "
                   "rounding depends on hash-iteration order — iterate an "
                   "ordered container or sort first");
      }
    }
  }
}

void finish_file(FileScan& file) {
  if (file.finished) return;
  file.finished = true;
  for (std::size_t i = 0; i < file.suppressions.size(); ++i) {
    const FileScan::LineSuppression& sup = file.suppressions[i];
    if (!sup.rules.empty() && !sup.used) {
      file.findings.push_back(
          {file.path, i + 1, "suppression",
           "unused suppression (no finding of the allowed rule on this "
           "line) — delete it"});
    }
  }
  std::stable_sort(file.findings.begin(), file.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
}

std::vector<Finding> scan_source(std::string_view path_label,
                                 std::string_view source) {
  FileScan file;
  file.path.assign(path_label);
  file.source.assign(source);
  scan_file(file);
  finish_file(file);
  return std::move(file.findings);
}

std::string to_string(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": error: [" +
         finding.rule + "] " + finding.message;
}

}  // namespace nldl::lint
