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
//   D5  every serialized-schema declaration — each owner in the
//       Config::d5_owners table: snapshot fields, trace event kinds, the
//       grid wire structs, the streaming trace-file schema (TraceHeader/
//       TraceFooter plus the whole ScenarioSpec tree its header echoes),
//       and the ROC / replay-grid point structs — must be listed in the
//       committed serialization manifest; fields marked `conditional`
//       must keep the "empty = byte-identical" guard in their serializer
//       (the PR-5 pattern that keeps golden fingerprints stable across
//       schema growth)
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
  std::string rule;     // "D1".."D5"
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

/// One entry of the D5 serialization manifest.
struct ManifestEntry {
  std::string owner;   // a schema owner from Config::d5_owners, e.g.
                       // "MetricsSnapshot", "TraceEventKind", "RocPoint",
                       // "ScenarioSpec", "TraceFooter"
  std::string name;    // field / enumerator
  bool conditional = false;  // must be guarded in serialize()
};

/// One D5 schema owner: a serialized struct (or enum) type, the header
/// declaring it, and the TU holding its serializer — where the
/// conditional `if (....empty())` guards are looked for. Growing the
/// serialized surface is one row here plus manifest entries; rule D5
/// iterates this table, nothing is hard-coded per owner.
struct D5Owner {
  std::string owner;
  bool is_enum = false;
  std::string header;
  std::string impl;
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
  /// D5 manifest (parsed from tools/detlint/serialized_fields.txt in tree
  /// runs). Empty disables D5.
  std::vector<ManifestEntry> manifest;
  /// The serialized-schema table D5 checks the manifest against. Owners
  /// whose header is absent from the linted file set are skipped, so
  /// fixture-based unit tests can bind any subset.
  std::vector<D5Owner> d5_owners = {
      // Snapshot stream and campaign events.
      {"MetricsSnapshot", false, "src/scenario/snapshot.hpp",
       "src/scenario/snapshot.cpp"},
      {"TraceEventKind", true, "src/scenario/trace.hpp",
       "src/scenario/snapshot.cpp"},
      // Multi-process grid wire schema.
      {"CellResult", false, "src/scenario/runner.hpp",
       "src/scenario/wire.cpp"},
      {"GridReport", false, "src/scenario/runner.hpp",
       "src/scenario/wire.cpp"},
      {"FailedCell", false, "src/scenario/runner.hpp",
       "src/scenario/wire.cpp"},
      // Streaming trace-file schema (header/footer frames plus the full
      // ScenarioSpec echo the header carries — growing any spec struct
      // without updating the trace_io codec fails here).
      {"TraceHeader", false, "src/scenario/trace_io.hpp",
       "src/scenario/trace_io.cpp"},
      {"TraceFooter", false, "src/scenario/trace_io.hpp",
       "src/scenario/trace_io.cpp"},
      {"ScenarioSpec", false, "src/scenario/spec.hpp",
       "src/scenario/trace_io.cpp"},
      {"ChurnSpec", false, "src/scenario/spec.hpp",
       "src/scenario/trace_io.cpp"},
      {"AttackKind", true, "src/scenario/spec.hpp",
       "src/scenario/trace_io.cpp"},
      {"RankMetric", true, "src/scenario/spec.hpp",
       "src/scenario/trace_io.cpp"},
      {"AttackPhase", false, "src/scenario/spec.hpp",
       "src/scenario/trace_io.cpp"},
      {"AttackWave", false, "src/scenario/spec.hpp",
       "src/scenario/trace_io.cpp"},
      {"WavePlan", false, "src/scenario/spec.hpp",
       "src/scenario/trace_io.cpp"},
      {"DefenseSpec", false, "src/scenario/spec.hpp",
       "src/scenario/trace_io.cpp"},
      {"MetricsSpec", false, "src/scenario/spec.hpp",
       "src/scenario/trace_io.cpp"},
      {"SessionModel", true, "src/scenario/session.hpp",
       "src/scenario/trace_io.cpp"},
      {"SessionSpec", false, "src/scenario/session.hpp",
       "src/scenario/trace_io.cpp"},
      // ROC sweep points (family columns are conditional) and the
      // replay-level grid points.
      {"RocPoint", false, "src/detection/roc.hpp",
       "src/detection/roc.cpp"},
      {"RocFamilyCount", false, "src/detection/roc.hpp",
       "src/detection/roc.cpp"},
      {"ReplayGridPoint", false, "src/detection/replay_grid.hpp",
       "src/detection/replay_grid.cpp"},
      // Replay-grid wire schema (frames carried by
      // detection::ReplayGridJob, codecs in scenario/wire.cpp).
      {"ReplayGridCell", false, "src/detection/replay_grid.hpp",
       "src/scenario/wire.cpp"},
      {"ReplayGridReport", false, "src/detection/replay_grid.hpp",
       "src/scenario/wire.cpp"},
  };
};

struct RuleCounts {
  std::size_t violations = 0;
  std::size_t suppressions = 0;
};

struct LintResult {
  std::vector<Diagnostic> diagnostics;  // violations + suppressed, in order
  /// Per-rule totals ("D1".."D5"), present even when zero.
  std::map<std::string, RuleCounts> counts;

  bool ok() const;  // no unsuppressed violations
  std::size_t violation_count() const;
};

/// Lints a set of files as one program: builds the include graph over
/// exactly these files (quoted includes resolved against src/ and the
/// including file's directory), computes sink taint, and runs D1–D5.
LintResult lint_files(const std::vector<SourceFile>& files,
                      const Config& config);

/// Convenience for unit tests: lints snippets with D5 disabled unless the
/// config carries a manifest.
LintResult lint_source(const std::string& path, const std::string& content,
                       const Config& config);

/// Parses the committed manifest format: one `Owner.name [conditional]`
/// per line, `#` comments. Throws std::runtime_error on malformed lines.
std::vector<ManifestEntry> parse_manifest(const std::string& text);

/// Loads *.cpp / *.hpp under root/{src,bench,examples,tests} plus the
/// manifest at root/tools/detlint/serialized_fields.txt, and lints the
/// tree. Paths in diagnostics are repo-relative.
LintResult lint_tree(const std::string& root);

}  // namespace onion::detlint
