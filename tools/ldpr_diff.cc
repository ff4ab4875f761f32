// ldpr_diff: compares two `ldpr_bench --out` result trees by
// (scenario, table, row) join instead of byte-diff, so runs from
// different machines — or different revisions, where RNG streams
// legitimately change — stay comparable.
//
//   # Same-seed runs of the same binary must agree exactly
//   # (timing columns excluded — they are wall-clock measurements):
//   ldpr_diff --exact results-t1 results-t8
//
//   # Cross-revision regression gate (the CI baseline check):
//   ldpr_diff --tolerance=0.25 baseline/ head/
//
// Exit codes: 0 = trees agree under the chosen mode, 1 = violations
// (a compact drift table plus the violating cells is printed),
// 2 = usage or load errors.  Default mode is --exact.  --exact and
// --quiet may appear bare (never taking the tree path after them) or
// as =true/=false/=1/=0; the other flags take --name=value or
// --name value.

#include <cstdio>
#include <string>

#include "runner/result_diff.h"
#include "util/flags.h"

namespace ldpr {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: ldpr_diff [--exact | --tolerance=REL] [--abs-floor=F]\n"
      "                 [--max-violations=N] [--quiet] TREE_A TREE_B\n"
      "\n"
      "Compares two `ldpr_bench --out` trees row by row.  --exact\n"
      "(default) requires bit-equal metrics; --tolerance=REL accepts\n"
      "relative drift up to REL.  Timing columns (declared by each\n"
      "scenario's manifest) are reported but never gate.\n");
  return 2;
}

int Run(int argc, char** argv) {
  FlagParser flags(argc, argv, {"exact", "quiet"});
  const bool exact_flag = flags.GetBool("exact", false);
  const bool has_tolerance = flags.Has("tolerance");
  const double tolerance = flags.GetDouble("tolerance", 0.05);
  const double abs_floor = flags.GetDouble("abs-floor", 1e-12);
  const uint64_t max_violations = flags.GetUint("max-violations", 20);
  const bool quiet = flags.GetBool("quiet", false);
  if (!flags.status().ok()) {
    std::fprintf(stderr, "error: %s\n", flags.status().ToString().c_str());
    return Usage();
  }
  if (exact_flag && has_tolerance) {
    std::fprintf(stderr, "error: --exact and --tolerance are exclusive\n");
    return Usage();
  }
  if (flags.positional().size() != 2) return Usage();
  if (tolerance < 0) {
    std::fprintf(stderr, "error: --tolerance must be >= 0\n");
    return 2;
  }

  DiffOptions options;
  options.exact = !has_tolerance;
  options.tolerance = tolerance;
  options.abs_floor = abs_floor;

  const std::string& path_a = flags.positional()[0];
  const std::string& path_b = flags.positional()[1];
  auto tree_a = LoadResultTree(path_a);
  if (!tree_a.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", path_a.c_str(),
                 tree_a.status().ToString().c_str());
    return 2;
  }
  auto tree_b = LoadResultTree(path_b);
  if (!tree_b.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", path_b.c_str(),
                 tree_b.status().ToString().c_str());
    return 2;
  }

  const DiffReport report = DiffResultTrees(*tree_a, *tree_b, options);
  if (!quiet) {
    if (options.exact) {
      std::printf("ldpr_diff --exact: %s vs %s\n\n", path_a.c_str(),
                  path_b.c_str());
    } else {
      std::printf("ldpr_diff --tolerance=%g: %s vs %s\n\n",
                  options.tolerance, path_a.c_str(), path_b.c_str());
    }
    std::printf(
        "%s",
        FormatDriftTable(report, static_cast<size_t>(max_violations)).c_str());
  }
  if (!report.ok()) {
    std::fprintf(stderr, "\nldpr_diff: %zu violation(s)\n",
                 report.violations.size());
    return 1;
  }
  if (!quiet) std::printf("\nldpr_diff: trees agree\n");
  return 0;
}

}  // namespace
}  // namespace ldpr

int main(int argc, char** argv) { return ldpr::Run(argc, argv); }
