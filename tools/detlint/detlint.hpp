// detlint — the repo's determinism & concurrency contract, machine-checked.
//
// Every result this reproduction reports is gated on byte-identical seeded
// replays (equal spec + equal seed => byte-identical snapshot/event/ROC
// streams) and thread-count-invariant merges. Those properties are easy to
// break silently: iterate an unordered_map into a fingerprint sink, seed
// from std::random_device outside common/rng, key an ordered container by
// pointer, or accumulate floating point inside a parallel_for_index body.
// detlint is a self-contained token/AST-lite analyzer (no libclang) that
// turns each of those failure modes into a named, suppressible rule:
//
//   D1  no unordered-container iteration in a translation unit whose
//       include closure reaches a sink/fingerprint/serialize header
//       (common/bytes.hpp, scenario/snapshot.hpp, detection/roc.hpp)
//   D2  no std::random_device, rand()/srand(), time(nullptr),
//       system_clock, or stdlib RNG engines outside common/rng and
//       common/clock — all randomness flows through the seeded Rng
//   D3  no pointer-keyed std::map/std::set: pointer order is allocator
//       order, which is run-to-run nondeterministic
//   D4  no compound assignment to captured (shared) state inside a
//       parallel_for_index body: a data race, and floating-point
//       accumulation order would depend on the thread schedule
//
// (Serialized-schema drift needs no rule: every serialized struct lists
// its fields once in fields(), and common/codec.hpp static_asserts that
// the list covers every member.)
//
// Suppression: `// detlint:allow(Dn reason)` on the offending line or the
// line directly above. A reason is mandatory; suppressions are counted and
// reported so growth is visible per PR.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace onion::detlint {

/// One rule hit, violation or suppressed, formatted `file:line: [Dn] msg`.
struct Diagnostic {
  std::string file;  // path as given (repo-relative in tree runs)
  int line = 0;
  std::string rule;     // "D1".."D4"
  std::string message;  // human explanation, no trailing newline
  bool suppressed = false;
  std::string suppress_reason;  // non-empty iff suppressed

  std::string to_string() const;
};

/// An in-memory source file; tree runs load these from disk, the unit
/// tests feed fixture snippets directly.
struct SourceFile {
  std::string path;     // forward-slash, repo-relative (keys the graph)
  std::string content;
};

struct Config {
  /// D1 taint roots: a TU is sink-reachable when its include closure
  /// contains any of these (or it is one of them).
  std::vector<std::string> sink_headers = {
      "src/common/bytes.hpp",
      "src/scenario/snapshot.hpp",
      "src/detection/roc.hpp",
  };
  /// D2-exempt files: the blessed homes of nondeterminism plumbing.
  std::vector<std::string> rng_exempt = {
      "src/common/rng.hpp",
      "src/common/rng.cpp",
      "src/common/clock.hpp",
  };
};

struct RuleCounts {
  std::size_t violations = 0;
  std::size_t suppressions = 0;
};

struct LintResult {
  std::vector<Diagnostic> diagnostics;  // violations + suppressed, in order
  /// Per-rule totals ("D1".."D4"), present even when zero.
  std::map<std::string, RuleCounts> counts;

  bool ok() const;  // no unsuppressed violations
  std::size_t violation_count() const;
};

/// Lints a set of files as one program: builds the include graph over
/// exactly these files (quoted includes resolved against src/ and the
/// including file's directory), computes sink taint, and runs D1–D4.
LintResult lint_files(const std::vector<SourceFile>& files,
                      const Config& config);

/// Convenience for unit tests: lints one snippet.
LintResult lint_source(const std::string& path, const std::string& content,
                       const Config& config);

/// Loads *.cpp / *.hpp under root/{src,bench,examples,tests} and lints
/// the tree. Paths in diagnostics are repo-relative.
LintResult lint_tree(const std::string& root);

}  // namespace onion::detlint
