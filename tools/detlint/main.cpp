// detlint CLI. Exit status 0 = clean (suppressions allowed), 1 =
// unsuppressed violations, 2 = usage/config error.
//
//   detlint [--root DIR] [--counts] [--verbose]
//
// Runs over DIR/{src,bench,examples,tests} (default: current directory).
// --counts appends machine-greppable per-rule totals (`detlint-counts
// D1 violations=0 suppressions=1`) so CI can chart suppression growth;
// --verbose also prints suppressed hits with their reasons.
#include <cstdio>
#include <exception>
#include <string>

#include "detlint.hpp"

namespace {

const char* kRuleSummary =
    "detlint rules (suppress with `// detlint:allow(Dn reason)` on the\n"
    "offending line or the line above; the reason is mandatory):\n"
    "  D1  no unordered-container iteration in sink-reachable TUs\n"
    "  D2  no random_device/rand/srand/time(nullptr)/system_clock/std\n"
    "      engines outside common/rng + common/clock\n"
    "  D3  no pointer-keyed std::map / std::set\n"
    "  D4  no compound assignment to captured state inside\n"
    "      parallel_for_index bodies\n";

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  bool counts = false;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--counts") {
      counts = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--list-rules") {
      std::fputs(kRuleSummary, stdout);
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: detlint [--root DIR] [--counts] [--verbose] "
                  "[--list-rules]\n\n%s", kRuleSummary);
      return 0;
    } else {
      std::fprintf(stderr, "detlint: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }

  onion::detlint::LintResult result;
  try {
    result = onion::detlint::lint_tree(root);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "detlint: %s\n", e.what());
    return 2;
  }

  for (const onion::detlint::Diagnostic& d : result.diagnostics) {
    if (d.suppressed && !verbose) continue;
    std::fprintf(d.suppressed ? stdout : stderr, "%s\n",
                 d.to_string().c_str());
  }
  if (counts) {
    for (const auto& [rule, c] : result.counts)
      std::printf("detlint-counts %s violations=%zu suppressions=%zu\n",
                  rule.c_str(), c.violations, c.suppressions);
  }
  if (!result.ok()) {
    std::fprintf(stderr,
                 "detlint: %zu violation(s); see tools/detlint/README.md "
                 "for the rule catalog and how to suppress\n",
                 result.violation_count());
    return 1;
  }
  return 0;
}
