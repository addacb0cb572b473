// Unit tests for tools/detlint: each rule D1–D4 must fire on a seeded
// fixture violation with the right [Dn] tag, stay quiet on the idiomatic
// deterministic pattern, and honor `// detlint:allow(Dn reason)`
// suppressions. The tree-wide run is a separate ctest (detlint_tree);
// these fixtures pin the rule semantics themselves.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "detlint.hpp"

namespace onion::detlint {
namespace {

/// Diagnostics (violations only) for `rule`, across all files.
std::vector<Diagnostic> violations(const LintResult& result,
                                   const std::string& rule) {
  std::vector<Diagnostic> out;
  for (const Diagnostic& d : result.diagnostics)
    if (d.rule == rule && !d.suppressed) out.push_back(d);
  return out;
}

std::vector<Diagnostic> suppressed(const LintResult& result,
                                   const std::string& rule) {
  std::vector<Diagnostic> out;
  for (const Diagnostic& d : result.diagnostics)
    if (d.rule == rule && d.suppressed) out.push_back(d);
  return out;
}

const char* kSinkHeader = "src/common/bytes.hpp";

// --- D1: unordered iteration in sink-reachable TUs --------------------

TEST(DetlintD1, RangeForOverUnorderedInTaintedTuFires) {
  const std::string tu = R"(
#include "common/bytes.hpp"
#include <unordered_map>
void f() {
  std::unordered_map<int, int> counts;
  for (const auto& [k, v] : counts) { (void)k; (void)v; }
}
)";
  const LintResult r =
      lint_files({{kSinkHeader, ""}, {"src/foo/tainted.cpp", tu}}, {});
  const auto hits = violations(r, "D1");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file, "src/foo/tainted.cpp");
  EXPECT_EQ(hits[0].line, 6);
  EXPECT_NE(hits[0].message.find("counts"), std::string::npos);
}

TEST(DetlintD1, UntaintedTuMayIterateUnordered) {
  const std::string tu = R"(
#include <unordered_set>
void f() {
  std::unordered_set<int> seen;
  for (int x : seen) (void)x;
}
)";
  const LintResult r = lint_files({{"src/foo/free.cpp", tu}}, {});
  EXPECT_TRUE(violations(r, "D1").empty());
}

TEST(DetlintD1, TaintPropagatesTransitivelyThroughTheIncludeGraph) {
  // tu -> mid.hpp -> bytes.hpp: two hops to the sink still taint.
  const std::string mid = "#include \"common/bytes.hpp\"\n";
  const std::string tu = R"(
#include "foo/mid.hpp"
#include <unordered_map>
void f() {
  std::unordered_map<int, int> m;
  for (auto it = m.begin(); it != m.end(); ++it) (void)it;
}
)";
  const LintResult r = lint_files({{kSinkHeader, ""},
                                   {"src/foo/mid.hpp", mid},
                                   {"src/foo/deep.cpp", tu}},
                                  {});
  ASSERT_EQ(violations(r, "D1").size(), 1u);
}

TEST(DetlintD1, MemberDeclaredInIncludedHeaderFires) {
  // The unordered member lives in the header; the .cpp iterates it.
  const std::string header = R"(
#include "common/bytes.hpp"
#include <unordered_map>
struct Registry {
  std::unordered_map<int, int> services_;
  void walk();
};
)";
  const std::string impl = R"(
#include "foo/registry.hpp"
void Registry::walk() {
  for (auto& [k, v] : services_) { (void)k; (void)v; }
}
)";
  const LintResult r = lint_files({{kSinkHeader, ""},
                                   {"src/foo/registry.hpp", header},
                                   {"src/foo/registry.cpp", impl}},
                                  {});
  const auto hits = violations(r, "D1");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file, "src/foo/registry.cpp");
}

TEST(DetlintD1, MembershipLookupsAreFine) {
  const std::string tu = R"(
#include "common/bytes.hpp"
#include <unordered_set>
int f(const std::vector<int>& xs) {
  std::unordered_set<int> seen(xs.begin(), xs.end());
  int hits = 0;
  for (int x : xs)
    if (seen.count(x) > 0) ++hits;
  return hits;
}
)";
  const LintResult r =
      lint_files({{kSinkHeader, ""}, {"src/foo/lookup.cpp", tu}}, {});
  EXPECT_TRUE(violations(r, "D1").empty());
}

TEST(DetlintD1, AllowCommentSuppressesWithReason) {
  const std::string tu = R"(
#include "common/bytes.hpp"
#include <unordered_set>
int f() {
  std::unordered_set<int> seen;
  int n = 0;
  // detlint:allow(D1 order-insensitive count)
  for (int x : seen) n += x > 0 ? 1 : 0;
  return n;
}
)";
  const LintResult r =
      lint_files({{kSinkHeader, ""}, {"src/foo/allowed.cpp", tu}}, {});
  EXPECT_TRUE(violations(r, "D1").empty());
  const auto soft = suppressed(r, "D1");
  ASSERT_EQ(soft.size(), 1u);
  EXPECT_EQ(soft[0].suppress_reason, "order-insensitive count");
  EXPECT_EQ(r.counts.at("D1").suppressions, 1u);
  EXPECT_TRUE(r.ok());
}

TEST(DetlintD1, AllowForTheWrongRuleDoesNotSuppress) {
  const std::string tu = R"(
#include "common/bytes.hpp"
#include <unordered_set>
void f() {
  std::unordered_set<int> seen;
  // detlint:allow(D2 wrong rule)
  for (int x : seen) (void)x;
}
)";
  const LintResult r =
      lint_files({{kSinkHeader, ""}, {"src/foo/wrong.cpp", tu}}, {});
  EXPECT_EQ(violations(r, "D1").size(), 1u);
  EXPECT_FALSE(r.ok());
}

// --- D2: nondeterminism sources ---------------------------------------

TEST(DetlintD2, RandomDeviceFires) {
  const std::string tu = R"(
#include <random>
int f() { std::random_device rd; return static_cast<int>(rd()); }
)";
  const LintResult r = lint_files({{"src/foo/rd.cpp", tu}}, {});
  const auto hits = violations(r, "D2");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 3);
}

TEST(DetlintD2, StdEnginesAndCRandFire) {
  const std::string tu = R"(
#include <cstdlib>
#include <random>
int f() {
  std::mt19937 gen(42);
  srand(7);
  return rand() + static_cast<int>(gen());
}
)";
  const LintResult r = lint_files({{"src/foo/engines.cpp", tu}}, {});
  EXPECT_EQ(violations(r, "D2").size(), 3u);
}

TEST(DetlintD2, WallClockSeedingFires) {
  const std::string tu = R"(
#include <chrono>
#include <ctime>
long f() {
  auto now = std::chrono::system_clock::now();
  (void)now;
  return time(nullptr);
}
)";
  const LintResult r = lint_files({{"src/foo/clock.cpp", tu}}, {});
  EXPECT_EQ(violations(r, "D2").size(), 2u);
}

TEST(DetlintD2, ExemptFilesAndSteadyClockAreFine) {
  const std::string rng = R"(
#include <random>
int seed_entropy() { std::random_device rd; return static_cast<int>(rd()); }
)";
  const std::string timing = R"(
#include <chrono>
double g() {
  const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now() - start).count();
}
)";
  const LintResult r = lint_files(
      {{"src/common/rng.cpp", rng}, {"src/foo/timing.cpp", timing}}, {});
  EXPECT_TRUE(violations(r, "D2").empty());
}

// --- D3: pointer-keyed ordered containers -----------------------------

TEST(DetlintD3, PointerKeyedMapAndSetFire) {
  const std::string tu = R"(
#include <map>
#include <set>
struct Node;
std::map<Node*, int> ranks;
std::set<const Node*> visited;
)";
  const LintResult r = lint_files({{"src/foo/ptrkey.cpp", tu}}, {});
  const auto hits = violations(r, "D3");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].line, 5);
  EXPECT_EQ(hits[1].line, 6);
}

TEST(DetlintD3, PointerValuesAndIdKeysAreFine) {
  const std::string tu = R"(
#include <map>
#include <set>
struct Node;
std::map<int, Node*> by_id;
std::set<long> ids;
)";
  const LintResult r = lint_files({{"src/foo/idkey.cpp", tu}}, {});
  EXPECT_TRUE(violations(r, "D3").empty());
}

// --- D4: shared accumulation inside parallel_for_index ----------------

TEST(DetlintD4, CapturedCompoundAssignmentFires) {
  const std::string tu = R"(
#include "common/parallel.hpp"
double f(int n) {
  double total = 0.0;
  onion::parallel_for_index(n, 0, [&](std::size_t i) {
    total += static_cast<double>(i);
  });
  return total;
}
)";
  const LintResult r = lint_files({{"src/foo/race.cpp", tu}}, {});
  const auto hits = violations(r, "D4");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 6);
  EXPECT_NE(hits[0].message.find("total"), std::string::npos);
}

TEST(DetlintD4, PerSlotWritesAndLocalsAreFine) {
  const std::string tu = R"(
#include "common/parallel.hpp"
#include <vector>
std::vector<double> f(int n) {
  std::vector<double> out(static_cast<std::size_t>(n), 0.0);
  onion::parallel_for_index(n, 0, [&](std::size_t i) {
    double acc = 0.0;
    for (int k = 0; k < 10; ++k) acc += static_cast<double>(k);
    out[i] = acc;
  });
  return out;
}
)";
  const LintResult r = lint_files({{"src/foo/slots.cpp", tu}}, {});
  EXPECT_TRUE(violations(r, "D4").empty());
}

TEST(DetlintD4, DocumentedReductionAnnotationSuppresses) {
  const std::string tu = R"(
#include "common/parallel.hpp"
#include <atomic>
long f(int n) {
  std::atomic<long> total{0};
  onion::parallel_for_index(n, 0, [&](std::size_t i) {
    // detlint:allow(D4 atomic integer reduction; order-independent sum)
    total += static_cast<long>(i);
  });
  return total.load();
}
)";
  const LintResult r = lint_files({{"src/foo/atomic.cpp", tu}}, {});
  EXPECT_TRUE(violations(r, "D4").empty());
  EXPECT_EQ(r.counts.at("D4").suppressions, 1u);
}

// --- Output format and counts -----------------------------------------

TEST(DetlintOutput, DiagnosticFormatsAsFileLineRule) {
  Diagnostic d{"src/foo/bar.cpp", 12, "D1", "message text", false, ""};
  EXPECT_EQ(d.to_string(), "src/foo/bar.cpp:12: [D1] message text");
  d.suppressed = true;
  d.suppress_reason = "why";
  EXPECT_EQ(d.to_string(),
            "src/foo/bar.cpp:12: [D1] message text (suppressed: why)");
}

TEST(DetlintOutput, AllRuleCountsArePresentEvenWhenZero) {
  const LintResult r = lint_source("src/foo/empty.cpp", "int x = 0;\n", {});
  for (const char* rule : {"D1", "D2", "D3", "D4"}) {
    ASSERT_TRUE(r.counts.count(rule)) << rule;
    EXPECT_EQ(r.counts.at(rule).violations, 0u);
  }
  EXPECT_TRUE(r.ok());
}

TEST(DetlintOutput, DiagnosticsAreSortedByFileThenLine) {
  const std::string a = R"(
#include <random>
void f() { std::random_device rd; (void)rd; }
void g() { std::random_device rd2; (void)rd2; }
)";
  const std::string b = R"(
#include <random>
void h() { std::random_device rd; (void)rd; }
)";
  const LintResult r =
      lint_files({{"src/zz/a.cpp", a}, {"src/aa/b.cpp", b}}, {});
  ASSERT_EQ(r.diagnostics.size(), 3u);
  EXPECT_EQ(r.diagnostics[0].file, "src/aa/b.cpp");
  EXPECT_EQ(r.diagnostics[1].file, "src/zz/a.cpp");
  EXPECT_LT(r.diagnostics[1].line, r.diagnostics[2].line);
}

}  // namespace
}  // namespace onion::detlint
