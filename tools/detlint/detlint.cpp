#include "detlint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace onion::detlint {

namespace {

// ---------------------------------------------------------------------------
// Tokenizer: a C++-shaped token stream (identifiers, numbers, literals,
// punctuation) with line numbers, plus the allow-comments collected per
// line. Preprocessor directives tokenize like ordinary text; includes are
// parsed line-wise separately.
// ---------------------------------------------------------------------------

struct Token {
  enum Kind { Ident, Number, String, Punct };
  Kind kind = Punct;
  std::string text;
  int line = 1;
};

struct Allow {
  std::string rule;
  std::string reason;
};

struct Scan {
  std::vector<Token> tokens;
  std::map<int, std::vector<Allow>> allows;  // line -> suppressions
};

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Parses `detlint:allow(Dn reason)` markers out of one comment's text.
void collect_allows(const std::string& comment, int line, Scan& scan) {
  std::size_t pos = 0;
  while ((pos = comment.find("detlint:allow(", pos)) != std::string::npos) {
    pos += 14;  // past "detlint:allow("
    const std::size_t close = comment.find(')', pos);
    if (close == std::string::npos) break;
    const std::string body = comment.substr(pos, close - pos);
    const std::size_t space = body.find_first_of(" \t");
    Allow allow;
    allow.rule = body.substr(0, space);
    if (space != std::string::npos) {
      std::size_t rs = body.find_first_not_of(" \t", space);
      if (rs != std::string::npos) allow.reason = body.substr(rs);
    }
    scan.allows[line].push_back(std::move(allow));
    pos = close + 1;
  }
}

/// Two-char punctuation worth keeping whole. `<<` and `>>` stay split so
/// template-angle matching can count single brackets.
bool munch2(const std::string& s, std::size_t i, std::string& out) {
  static const char* kPairs[] = {"::", "->", "+=", "-=", "*=", "/=", "==",
                                 "!=", "<=", ">=", "&&", "||", "++", "--"};
  if (i + 1 >= s.size()) return false;
  const char two[3] = {s[i], s[i + 1], 0};
  for (const char* p : kPairs)
    if (two[0] == p[0] && two[1] == p[1]) {
      out = p;
      return true;
    }
  return false;
}

Scan tokenize(const std::string& src) {
  Scan scan;
  int line = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const std::size_t end = src.find('\n', i);
      const std::string body =
          src.substr(i + 2, (end == std::string::npos ? n : end) - i - 2);
      collect_allows(body, line, scan);
      i = end == std::string::npos ? n : end;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const std::size_t end = src.find("*/", i + 2);
      const std::size_t stop = end == std::string::npos ? n : end;
      collect_allows(src.substr(i + 2, stop - i - 2), line, scan);
      line += static_cast<int>(
          std::count(src.begin() + static_cast<std::ptrdiff_t>(i),
                     src.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(n, stop + 2)),
                     '\n'));
      i = std::min(n, stop + 2);
      continue;
    }
    // Raw string literal: R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      const std::size_t open = src.find('(', i + 2);
      if (open != std::string::npos) {
        const std::string delim = src.substr(i + 2, open - i - 2);
        const std::string closer = ")" + delim + "\"";
        const std::size_t end = src.find(closer, open + 1);
        const std::size_t stop =
            end == std::string::npos ? n : end + closer.size();
        scan.tokens.push_back({Token::String, "<raw>", line});
        line += static_cast<int>(
            std::count(src.begin() + static_cast<std::ptrdiff_t>(i),
                       src.begin() + static_cast<std::ptrdiff_t>(stop),
                       '\n'));
        i = stop;
        continue;
      }
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t j = i + 1;
      std::string text;
      while (j < n && src[j] != quote) {
        if (src[j] == '\\' && j + 1 < n) ++j;
        if (src[j] == '\n') ++line;
        text.push_back(src[j]);
        ++j;
      }
      scan.tokens.push_back({Token::String, text, line});
      i = j + 1;
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_char(src[j])) ++j;
      scan.tokens.push_back({Token::Ident, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i;
      while (j < n && (ident_char(src[j]) || src[j] == '.' ||
                       ((src[j] == '+' || src[j] == '-') && j > i &&
                        (src[j - 1] == 'e' || src[j - 1] == 'E'))))
        ++j;
      scan.tokens.push_back({Token::Number, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    std::string two;
    if (munch2(src, i, two)) {
      scan.tokens.push_back({Token::Punct, two, line});
      i += 2;
      continue;
    }
    scan.tokens.push_back({Token::Punct, std::string(1, c), line});
    ++i;
  }
  return scan;
}

// ---------------------------------------------------------------------------
// Token-stream helpers.
// ---------------------------------------------------------------------------

bool is(const Token& t, const char* text) { return t.text == text; }

/// Index just past the bracket that closes tokens[open] (tokens[open] must
/// be the opener). Returns tokens.size() when unbalanced.
std::size_t skip_balanced(const std::vector<Token>& ts, std::size_t open,
                          const char* l, const char* r) {
  int depth = 0;
  for (std::size_t i = open; i < ts.size(); ++i) {
    if (is(ts[i], l)) ++depth;
    if (is(ts[i], r) && --depth == 0) return i + 1;
  }
  return ts.size();
}

/// Skips a template argument list starting at the `<` at `open`; bails (and
/// returns npos) if a `;` or `{` interrupts — then the `<` was less-than.
std::size_t skip_angles(const std::vector<Token>& ts, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < ts.size(); ++i) {
    if (is(ts[i], "<")) ++depth;
    if (is(ts[i], ">") && --depth == 0) return i + 1;
    if (is(ts[i], ";") || is(ts[i], "{")) break;
  }
  return std::string::npos;
}

const std::set<std::string> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset", "flat_hash_map", "flat_hash_set"};

const std::set<std::string> kStdEngines = {
    "mt19937",      "mt19937_64", "minstd_rand",          "minstd_rand0",
    "ranlux24",     "ranlux48",   "default_random_engine", "knuth_b"};

const std::set<std::string> kNonTypeKeywords = {
    "return", "if",    "while",     "for",   "else",     "do",
    "case",   "goto",  "new",       "delete", "throw",    "sizeof",
    "switch", "break", "continue",  "using",  "typedef",  "namespace",
    "public", "private", "protected", "co_return", "co_await", "co_yield"};

/// Names declared (variables, members, or functions returning one) with an
/// unordered container type in this file.
std::set<std::string> unordered_decl_names(const std::vector<Token>& ts) {
  std::set<std::string> names;
  for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
    if (ts[i].kind != Token::Ident || !kUnorderedTypes.count(ts[i].text))
      continue;
    if (!is(ts[i + 1], "<")) continue;
    std::size_t j = skip_angles(ts, i + 1);
    if (j == std::string::npos) continue;
    // Past the closing `>`: skip cv/ref/ptr noise, then take the declared
    // name. `unordered_map<K,V>::iterator it` style also lands on `it`.
    while (j < ts.size() &&
           (is(ts[j], "const") || is(ts[j], "&") || is(ts[j], "*") ||
            is(ts[j], "::") ||
            (ts[j].kind == Token::Ident && is(ts[j], "iterator"))))
      ++j;
    if (j < ts.size() && ts[j].kind == Token::Ident &&
        !kNonTypeKeywords.count(ts[j].text))
      names.insert(ts[j].text);
  }
  return names;
}

std::string dirname(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

/// Quoted-include scan (line-wise; the tokenizer does not track
/// preprocessor structure).
std::vector<std::string> parse_includes(const std::string& src) {
  std::vector<std::string> out;
  std::istringstream in(src);
  std::string line;
  while (std::getline(in, line)) {
    std::size_t p = line.find_first_not_of(" \t");
    if (p == std::string::npos || line[p] != '#') continue;
    p = line.find_first_not_of(" \t", p + 1);
    if (p == std::string::npos || line.compare(p, 7, "include") != 0)
      continue;
    const std::size_t q1 = line.find('"', p + 7);
    if (q1 == std::string::npos) continue;
    const std::size_t q2 = line.find('"', q1 + 1);
    if (q2 == std::string::npos) continue;
    out.push_back(line.substr(q1 + 1, q2 - q1 - 1));
  }
  return out;
}

class Linter {
 public:
  Linter(const std::vector<SourceFile>& files, const Config& config)
      : config_(config) {
    for (const SourceFile& f : files) {
      FileInfo info;
      info.path = f.path;
      info.scan = tokenize(f.content);
      info.unordered_names = unordered_decl_names(info.scan.tokens);
      for (const std::string& inc : parse_includes(f.content))
        info.raw_includes.push_back(inc);
      files_.emplace(f.path, std::move(info));
    }
    resolve_includes();
    compute_taint();
  }

  LintResult run() {
    for (const char* rule : {"D1", "D2", "D3", "D4"})
      result_.counts[rule];  // present even when zero
    for (auto& [path, info] : files_) {
      rule_d1(info);
      rule_d2(info);
      rule_d3(info);
      rule_d4(info);
    }
    std::sort(result_.diagnostics.begin(), result_.diagnostics.end(),
              [](const Diagnostic& a, const Diagnostic& b) {
                return std::tie(a.file, a.line, a.rule) <
                       std::tie(b.file, b.line, b.rule);
              });
    return std::move(result_);
  }

 private:
  struct FileInfo {
    std::string path;
    Scan scan;
    std::vector<std::string> raw_includes;
    std::vector<std::string> includes;  // resolved
    bool sink_tainted = false;
    std::set<std::string> unordered_names;
  };

  void resolve_includes() {
    for (auto& [path, info] : files_) {
      for (const std::string& inc : info.raw_includes) {
        // Project includes are rooted at src/; fall back to
        // includer-relative, then verbatim (fixture snippets).
        for (const std::string& candidate :
             {"src/" + inc, dirname(path).empty() ? inc
                                                  : dirname(path) + "/" + inc,
              inc}) {
          if (files_.count(candidate)) {
            info.includes.push_back(candidate);
            break;
          }
        }
      }
    }
  }

  void compute_taint() {
    // A file is sink-tainted when its include closure (itself included)
    // contains a sink header. Iterative DFS with memoization; cycles
    // resolve to "not tainted unless a sink is reachable elsewhere".
    const std::set<std::string> sinks(config_.sink_headers.begin(),
                                      config_.sink_headers.end());
    for (auto& [path, info] : files_) {
      std::set<std::string> seen;
      std::vector<std::string> stack = {path};
      bool tainted = false;
      while (!stack.empty() && !tainted) {
        const std::string cur = stack.back();
        stack.pop_back();
        if (!seen.insert(cur).second) continue;
        if (sinks.count(cur)) tainted = true;
        const auto it = files_.find(cur);
        if (it == files_.end()) continue;
        for (const std::string& next : it->second.includes)
          stack.push_back(next);
      }
      info.sink_tainted = tainted;
    }
  }

  /// Unordered-declared names visible to this TU: its own plus its
  /// include closure's (members declared in headers, used in the .cpp).
  std::set<std::string> visible_unordered(const FileInfo& tu) const {
    std::set<std::string> names;
    std::set<std::string> seen;
    std::vector<const FileInfo*> stack = {&tu};
    while (!stack.empty()) {
      const FileInfo* cur = stack.back();
      stack.pop_back();
      if (!seen.insert(cur->path).second) continue;
      names.insert(cur->unordered_names.begin(),
                   cur->unordered_names.end());
      for (const std::string& inc : cur->includes) {
        const auto it = files_.find(inc);
        if (it != files_.end()) stack.push_back(&it->second);
      }
    }
    return names;
  }

  void report(const FileInfo& info, int line, const char* rule,
              std::string message) {
    Diagnostic d;
    d.file = info.path;
    d.line = line;
    d.rule = rule;
    d.message = std::move(message);
    // `// detlint:allow(Dn reason)` on the same line or the line above.
    for (const int l : {line, line - 1}) {
      const auto it = info.scan.allows.find(l);
      if (it == info.scan.allows.end()) continue;
      for (const Allow& a : it->second)
        if (a.rule == d.rule) {
          d.suppressed = true;
          d.suppress_reason = a.reason;
        }
    }
    auto& counts = result_.counts[d.rule];
    if (d.suppressed)
      ++counts.suppressions;
    else
      ++counts.violations;
    result_.diagnostics.push_back(std::move(d));
  }

  // --- D1: unordered iteration in sink-tainted TUs ---------------------
  void rule_d1(const FileInfo& info) {
    if (!info.sink_tainted) return;
    const std::set<std::string> names = visible_unordered(info);
    if (names.empty()) return;
    const std::vector<Token>& ts = info.scan.tokens;
    for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
      // Range-for whose range expression names an unordered container.
      if (is(ts[i], "for") && is(ts[i + 1], "(")) {
        const std::size_t close = skip_balanced(ts, i + 1, "(", ")");
        std::size_t colon = std::string::npos;
        int depth = 0;
        for (std::size_t j = i + 1; j < close; ++j) {
          if (is(ts[j], "(") || is(ts[j], "[")) ++depth;
          if (is(ts[j], ")") || is(ts[j], "]")) --depth;
          if (depth == 1 && is(ts[j], ":")) {
            colon = j;
            break;
          }
        }
        if (colon == std::string::npos) continue;
        for (std::size_t j = colon + 1; j + 1 < close; ++j) {
          if (ts[j].kind == Token::Ident && names.count(ts[j].text)) {
            report(info, ts[i].line, "D1",
                   "range-for over unordered container '" + ts[j].text +
                       "' in a sink-reachable translation unit: hash-map "
                       "iteration order is stdlib-specific and would leak "
                       "into fingerprinted output; iterate a sorted copy "
                       "or an ordered container instead");
            break;
          }
        }
        continue;
      }
      // Explicit iterator walk: name.begin() / name.cbegin() / ... — the
      // bare name only: `obj.name.begin()` resolves `name` in obj's
      // scope, where an identically-named member may be a vector.
      if (ts[i].kind == Token::Ident && names.count(ts[i].text) &&
          (i == 0 || (!is(ts[i - 1], ".") && !is(ts[i - 1], "->") &&
                      !is(ts[i - 1], "::"))) &&
          i + 3 < ts.size() && is(ts[i + 1], ".") &&
          (is(ts[i + 2], "begin") || is(ts[i + 2], "cbegin") ||
           is(ts[i + 2], "rbegin") || is(ts[i + 2], "crbegin")) &&
          is(ts[i + 3], "(")) {
        report(info, ts[i].line, "D1",
               "iterator over unordered container '" + ts[i].text +
                   "' in a sink-reachable translation unit: traversal "
                   "order is stdlib-specific; sort before consuming");
      }
    }
  }

  // --- D2: nondeterminism sources outside common/rng + common/clock ----
  void rule_d2(const FileInfo& info) {
    for (const std::string& exempt : config_.rng_exempt)
      if (info.path == exempt) return;
    const std::vector<Token>& ts = info.scan.tokens;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (ts[i].kind != Token::Ident) continue;
      const std::string& t = ts[i].text;
      const bool member_call =
          i > 0 && (is(ts[i - 1], ".") || is(ts[i - 1], "->"));
      if (t == "random_device") {
        report(info, ts[i].line, "D2",
               "std::random_device is nondeterministic by design; seed an "
               "onion::Rng explicitly (common/rng) instead");
      } else if (kStdEngines.count(t)) {
        report(info, ts[i].line, "D2",
               "stdlib RNG engine '" + t +
                   "' bypasses the seeded onion::Rng streams (and its "
                   "distributions are not portable across stdlibs)");
      } else if (t == "srand" || (t == "rand" && !member_call &&
                                  i + 1 < ts.size() && is(ts[i + 1], "("))) {
        report(info, ts[i].line, "D2",
               "C rand()/srand() draws from hidden global state; use the "
               "explicitly seeded onion::Rng");
      } else if (t == "system_clock") {
        report(info, ts[i].line, "D2",
               "system_clock reads wall-clock time into the run; use "
               "SimTime (common/clock) for simulated time, or "
               "steady_clock strictly for wall-duration reporting");
      } else if (t == "time" && !member_call && i + 3 < ts.size() &&
                 is(ts[i + 1], "(") &&
                 (is(ts[i + 2], "nullptr") || is(ts[i + 2], "NULL") ||
                  is(ts[i + 2], "0")) &&
                 is(ts[i + 3], ")")) {
        report(info, ts[i].line, "D2",
               "time(nullptr) seeds wall-clock time into the run; "
               "deterministic code takes an explicit seed");
      }
    }
  }

  // --- D3: pointer-keyed ordered containers ----------------------------
  void rule_d3(const FileInfo& info) {
    const std::vector<Token>& ts = info.scan.tokens;
    for (std::size_t i = 2; i + 1 < ts.size(); ++i) {
      if (ts[i].kind != Token::Ident) continue;
      const std::string& t = ts[i].text;
      if (t != "map" && t != "set" && t != "multimap" && t != "multiset")
        continue;
      if (!is(ts[i - 1], "::") || !is(ts[i - 2], "std")) continue;
      if (!is(ts[i + 1], "<")) continue;
      // First template argument: tokens at depth 1 until `,` or `>`.
      int depth = 0;
      std::size_t last = std::string::npos;
      for (std::size_t j = i + 1; j < ts.size(); ++j) {
        if (is(ts[j], "<") || is(ts[j], "(")) ++depth;
        if (is(ts[j], ">") || is(ts[j], ")")) {
          if (--depth == 0) break;
          continue;
        }
        if (depth == 1 && is(ts[j], ",")) break;
        if (is(ts[j], ";") || is(ts[j], "{")) break;  // was less-than
        last = j;
      }
      if (last != std::string::npos && is(ts[last], "*")) {
        report(info, ts[i].line, "D3",
               "std::" + t +
                   " keyed by a pointer: iteration order is allocation "
                   "order, which varies run to run; key by a stable id "
                   "and look the object up instead");
      }
    }
  }

  // --- D4: shared compound assignment inside parallel_for_index --------
  void rule_d4(const FileInfo& info) {
    const std::vector<Token>& ts = info.scan.tokens;
    for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
      if (!(ts[i].kind == Token::Ident &&
            is(ts[i], "parallel_for_index") && is(ts[i + 1], "(")))
        continue;
      const std::size_t close = skip_balanced(ts, i + 1, "(", ")");
      for (std::size_t k = i + 2; k + 1 < close; ++k) {
        if (!(is(ts[k], "+=") || is(ts[k], "-=") || is(ts[k], "*=") ||
              is(ts[k], "/=")))
          continue;
        const std::string base = lhs_base_ident(ts, k, i + 2);
        if (base.empty()) continue;
        if (declared_in_extent(ts, base, i + 2, k)) continue;
        report(info, ts[k].line, "D4",
               "compound assignment to captured '" + base +
                   "' inside a parallel_for_index body: a data race, and "
                   "for floating point the accumulation order depends on "
                   "the thread schedule; write to a per-index slot and "
                   "reduce sequentially, or use a std::atomic with a "
                   "documented detlint:allow(D4 ...) annotation");
      }
      i = close;
    }
  }

  /// Walks left from the compound-assign token to the base identifier of
  /// its left-hand side (through `x[i]`, `obj.field`, `p->field`).
  static std::string lhs_base_ident(const std::vector<Token>& ts,
                                    std::size_t op, std::size_t lo) {
    std::size_t j = op;
    while (j > lo) {
      --j;
      if (is(ts[j], "]")) {  // skip the index expression
        int depth = 0;
        while (j > lo) {
          if (is(ts[j], "]")) ++depth;
          if (is(ts[j], "[") && --depth == 0) break;
          --j;
        }
        continue;
      }
      if (is(ts[j], ")")) {  // skip a call/paren group
        int depth = 0;
        while (j > lo) {
          if (is(ts[j], ")")) ++depth;
          if (is(ts[j], "(") && --depth == 0) break;
          --j;
        }
        continue;
      }
      if (ts[j].kind == Token::Ident) {
        // obj.field / p->field: keep walking to the owning object.
        if (j > lo && (is(ts[j - 1], ".") || is(ts[j - 1], "->") ||
                       is(ts[j - 1], "::"))) {
          --j;
          continue;
        }
        return ts[j].text;
      }
      if (!is(ts[j], ".") && !is(ts[j], "->") && !is(ts[j], "::") &&
          !is(ts[j], "*"))
        return {};  // start of statement without an identifier base
    }
    return {};
  }

  /// Heuristic "declared inside the lambda/extent": an occurrence of the
  /// name whose preceding token reads like a declarator (auto, a type
  /// name, `>`, `&`, `*`).
  static bool declared_in_extent(const std::vector<Token>& ts,
                                 const std::string& name, std::size_t lo,
                                 std::size_t hi) {
    for (std::size_t j = lo + 1; j < hi; ++j) {
      if (ts[j].kind != Token::Ident || ts[j].text != name) continue;
      const Token& prev = ts[j - 1];
      if (is(prev, ">") || is(prev, "&") || is(prev, "*")) return true;
      if (prev.kind == Token::Ident && !kNonTypeKeywords.count(prev.text) &&
          prev.text != name)
        return true;
    }
    return false;
  }

  Config config_;
  std::map<std::string, FileInfo> files_;
  LintResult result_;
};

}  // namespace

std::string Diagnostic::to_string() const {
  std::string out = file + ":" + std::to_string(line) + ": [" + rule +
                    "] " + message;
  if (suppressed) {
    out += " (suppressed";
    if (!suppress_reason.empty()) out += ": " + suppress_reason;
    out += ")";
  }
  return out;
}

bool LintResult::ok() const { return violation_count() == 0; }

std::size_t LintResult::violation_count() const {
  std::size_t n = 0;
  for (const auto& [rule, c] : counts) n += c.violations;
  return n;
}

LintResult lint_files(const std::vector<SourceFile>& files,
                      const Config& config) {
  Linter linter(files, config);
  return linter.run();
}

LintResult lint_source(const std::string& path, const std::string& content,
                       const Config& config) {
  return lint_files({{path, content}}, config);
}

LintResult lint_tree(const std::string& root) {
  namespace fs = std::filesystem;
  const fs::path base(root);
  std::vector<SourceFile> files;
  for (const char* dir : {"src", "bench", "examples", "tests"}) {
    const fs::path top = base / dir;
    if (!fs::exists(top)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(top)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp" && ext != ".h") continue;
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      files.push_back({fs::relative(entry.path(), base).generic_string(),
                       buf.str()});
    }
  }
  // Deterministic file order => deterministic diagnostic order.
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });

  return lint_files(files, Config{});
}

}  // namespace onion::detlint
