// ldpr_lint: the determinism/portability linter (src/lint/).
//
//   # The CI gate — exits 0 only when the tree is clean:
//   ldpr_lint --repo=. src tools bench tests examples
//
//   # Findings print as `file:line: [rule-id] message`.  For CI:
//   ldpr_lint --repo=. --format=sarif src ...    # code-scanning upload
//   ldpr_lint --repo=. --format=github src ...   # inline annotations
//
//   # Write the measured src/ include DAG (R6's evidence):
//   ldpr_lint --repo=. --dot=build/include_graph.dot src ...
//
//   # Mechanical guard repair (R5): dry-run plan, then rewrite.
//   ldpr_lint --repo=. --fix=header-guards src
//   ldpr_lint --repo=. --fix=header-guards --apply src
//
// --apply is a boolean: bare (a root after it stays a root) or
// --apply=true/false/1/0.  The other flags take --name=value or
// --name value.
//
// Rules R1-R8 are documented in src/lint/lint.h and
// docs/architecture.md ("Static guarantees").  Suppress a deliberate
// exception with a `// lint: <key>-ok(<reason>)` pragma on (or just
// above) the line, or an entry in ci/lint_allowlist.txt; stale
// allowlist entries are themselves findings.
//
// Exit codes: 0 = clean (or no fixes pending), 1 = findings (or fixes
// pending in --fix dry-run), 2 = usage or IO errors.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/fix.h"
#include "lint/format.h"
#include "lint/lint.h"
#include "util/flags.h"

namespace ldpr {
namespace {

namespace fs = std::filesystem;

int Usage() {
  std::fprintf(
      stderr,
      "usage: ldpr_lint [--repo=DIR] [--allowlist=FILE]\n"
      "                 [--format=plain|sarif|github] [--dot=FILE]\n"
      "                 [--fix=header-guards [--apply]] ROOT...\n"
      "\n"
      "Scans the given directories (or files) for violations of the\n"
      "repo's determinism/portability contracts (rules R1-R8; see\n"
      "src/lint/lint.h).  --repo defaults to the current directory\n"
      "and locates CMakeLists.txt, the CI workflow, ci/lint_layers.txt\n"
      "and relative roots; --allowlist defaults to\n"
      "ci/lint_allowlist.txt under the repo root.  --dot writes the\n"
      "measured src/ include DAG.  --fix=header-guards plans R5 guard\n"
      "renames (dry-run; exit 1 while fixes are pending) and rewrites\n"
      "the headers in place under --apply.\n");
  return 2;
}

bool WriteFileOrComplain(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  if (!out) {
    std::fprintf(stderr, "ldpr_lint: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

int RunFixHeaderGuards(const lint::LintOptions& options, bool apply) {
  auto tree = lint::ScanTree(options);
  if (!tree.ok()) {
    std::fprintf(stderr, "ldpr_lint: %s\n", tree.status().ToString().c_str());
    return 2;
  }
  const std::vector<lint::HeaderGuardFix> fixes =
      lint::PlanHeaderGuardFixes(tree.value());
  for (const lint::HeaderGuardFix& fix : fixes) {
    std::printf("%s: %s -> %s%s\n", fix.path.c_str(), fix.old_guard.c_str(),
                fix.new_guard.c_str(), apply ? "" : " (dry run)");
    if (!apply) continue;
    const fs::path disk = fs::path(options.repo_root) / fix.path;
    std::ifstream in(disk, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (!in) {
      std::fprintf(stderr, "ldpr_lint: cannot read %s\n", disk.c_str());
      return 2;
    }
    if (!WriteFileOrComplain(disk.string(),
                             lint::ApplyHeaderGuardFix(buffer.str(), fix))) {
      return 2;
    }
  }
  std::fprintf(stderr, "ldpr_lint: %zu header guard fix(es) %s\n",
               fixes.size(), apply ? "applied" : "pending (use --apply)");
  // Dry-run acts as a gate (pending fixes => dirty tree); after
  // --apply the tree is fixed, so report success.
  return apply || fixes.empty() ? 0 : 1;
}

int Run(int argc, char** argv) {
  FlagParser flags(argc, argv, {"apply"});
  lint::LintOptions options;
  options.repo_root = flags.GetString("repo", ".");
  options.allowlist_path = flags.GetString("allowlist", "ci/lint_allowlist.txt");
  options.roots = flags.positional();
  const std::string format = flags.GetString("format", "plain");
  const std::string dot_path = flags.GetString("dot", "");
  const std::string fix_mode = flags.GetString("fix", "");
  const bool apply = flags.GetBool("apply", false);

  if (!flags.status().ok()) {
    std::fprintf(stderr, "error: %s\n", flags.status().ToString().c_str());
    return Usage();
  }
  if (options.roots.empty()) return Usage();
  if (format != "plain" && format != "sarif" && format != "github") {
    std::fprintf(stderr, "unknown --format=%s\n", format.c_str());
    return Usage();
  }
  if (!fix_mode.empty()) {
    if (fix_mode != "header-guards") {
      std::fprintf(stderr, "unknown --fix=%s\n", fix_mode.c_str());
      return Usage();
    }
    return RunFixHeaderGuards(options, apply);
  }
  if (apply) {
    std::fprintf(stderr, "--apply requires --fix=MODE\n");
    return Usage();
  }

  auto result = lint::RunLint(options);
  if (!result.ok()) {
    std::fprintf(stderr, "ldpr_lint: %s\n",
                 result.status().ToString().c_str());
    return 2;
  }
  const std::vector<lint::Finding>& findings = result.value().findings;
  if (format == "sarif") {
    std::fputs(lint::FindingsToSarif(findings).c_str(), stdout);
  } else if (format == "github") {
    std::fputs(lint::FindingsToGithub(findings).c_str(), stdout);
  } else {
    for (const lint::Finding& finding : findings) {
      std::printf("%s\n", lint::FormatFinding(finding).c_str());
    }
  }
  if (!dot_path.empty() &&
      !WriteFileOrComplain(dot_path, result.value().include_graph_dot)) {
    return 2;
  }
  std::fprintf(stderr, "ldpr_lint: %zu finding(s) in %zu file(s) scanned\n",
               findings.size(), result.value().files_scanned);
  return findings.empty() ? 0 : 1;
}

}  // namespace
}  // namespace ldpr

int main(int argc, char** argv) { return ldpr::Run(argc, argv); }
