// R4 — test registration and sanitizer-matrix consistency.
//
// The suite only protects what it runs.  This rule cross-checks four
// sources of truth that historically drift apart by hand-editing:
//   - CMakeLists.txt must register every tests/*_test.cc (the repo
//     does this with one glob; if the glob disappears, every test
//     file must be named explicitly or the rule fires);
//   - in .github/workflows/ci.yml, the TSan and ASan jobs must run
//     every test they build and build every test they run, and each
//     such test must exist on disk (scanned, or under the repo root
//     when the scan left tests/ out);
//   - every test CMakeLists links against the scenario registrations
//     (ldpr_scenarios) must appear in BOTH sanitizer matrices — the
//     registration files are exactly where new scenario code lands,
//     so they must be sanitized from day one;
//   - every tools/*.cc main must have a CMake target (a source
//     mention) and at least one CI smoke invocation (`/<tool> ...`) —
//     an unbuilt tool bit-rots, an uninvoked one regresses silently.
//
// This is a repo-level rule: it reads CMakeLists.txt and the CI
// workflow out of the scanned tree (raw lines — they are not C++),
// and has no pragma escape; fix the wiring instead.

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "lint/lint.h"

namespace ldpr {
namespace lint {
namespace {

bool EndsWith(const std::string& s, const char* suffix_cstr) {
  const std::string suffix(suffix_cstr);
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

/// All `foo_test` identifiers on a line; `runs_only` keeps just the
/// `./foo_test` invocation form.
void CollectTestNames(const std::string& line, bool runs_only,
                      std::vector<std::string>* names) {
  for (size_t i = 0; i < line.size(); ++i) {
    if (!IsIdentChar(line[i])) continue;
    size_t end = i;
    while (end < line.size() && IsIdentChar(line[end])) ++end;
    const std::string token = line.substr(i, end - i);
    if (EndsWith(token, "_test")) {
      const bool is_run = i >= 2 && line[i - 1] == '/' && line[i - 2] == '.';
      if ((runs_only ? is_run : !is_run) && !Contains(*names, token)) {
        names->push_back(token);
      }
    }
    i = end;
  }
}

/// One sanitizer job's build/run sets, sliced out of the workflow by
/// its `  <name>:` header line.
struct CiJob {
  std::string name;
  size_t header_line = 0;  // 1-based, for findings
  std::vector<std::string> built;
  std::vector<std::string> run;
};

CiJob ParseJob(const SourceFile& workflow, const std::string& job_name) {
  CiJob job;
  job.name = job_name;
  bool inside = false;
  for (size_t i = 0; i < workflow.raw_lines.size(); ++i) {
    const std::string& line = workflow.raw_lines[i];
    if (line == "  " + job_name + ":") {
      inside = true;
      job.header_line = i + 1;
      continue;
    }
    if (!inside) continue;
    // The next 2-space-indented `name:` line starts another job.
    if (line.size() > 2 && line[0] == ' ' && line[1] == ' ' && line[2] != ' ' &&
        line.back() == ':') {
      break;
    }
    CollectTestNames(line, /*runs_only=*/true, &job.run);
    CollectTestNames(line, /*runs_only=*/false, &job.built);
  }
  return job;
}

}  // namespace

void CheckTestRegistration(const LintTree& tree, std::vector<Finding>* out) {
  const SourceFile* cmake = tree.Find("CMakeLists.txt");
  const SourceFile* workflow = tree.Find(".github/workflows/ci.yml");
  if (cmake == nullptr) return;  // fixture trees without build files

  std::vector<std::string> test_files;  // names, e.g. "grr_test"
  for (const SourceFile& file : tree.files) {
    if (file.path.compare(0, 6, "tests/") == 0 &&
        EndsWith(file.path, "_test.cc")) {
      test_files.push_back(
          file.path.substr(6, file.path.size() - 6 - 3));  // strip ".cc"
    }
  }
  // A scan need not cover tests/, so a test the scan did not load is
  // looked up on disk under the repo root (fixture trees have none).
  const auto test_exists = [&](const std::string& test) {
    if (Contains(test_files, test)) return true;
    std::error_code ec;
    return !tree.repo_root.empty() &&
           std::filesystem::is_regular_file(
               std::filesystem::path(tree.repo_root) / "tests" /
                   (test + ".cc"),
               ec);
  };

  // (a) the registration glob — or an explicit mention of every test.
  bool has_glob = false;
  for (const std::string& line : cmake->raw_lines) {
    if (line.find("tests/*_test.cc") != std::string::npos) has_glob = true;
  }
  if (!has_glob) {
    for (const std::string& test : test_files) {
      bool mentioned = false;
      for (const std::string& line : cmake->raw_lines) {
        if (line.find("tests/" + test + ".cc") != std::string::npos) {
          mentioned = true;
        }
      }
      if (!mentioned) {
        out->push_back(Finding{
            "CMakeLists.txt", 1, "R4",
            "tests/" + test + ".cc is not registered: no tests/*_test.cc "
            "glob and no explicit add_executable source mention"});
      }
    }
  }

  // (b) every tools/*.cc main has a build target: its source file
  // must be named somewhere in CMakeLists.txt (add_executable).
  std::vector<std::string> tool_stems;
  for (const SourceFile& file : tree.files) {
    if (file.path.compare(0, 6, "tools/") == 0 && EndsWith(file.path, ".cc")) {
      tool_stems.push_back(file.path.substr(6, file.path.size() - 6 - 3));
    }
  }
  for (const std::string& tool : tool_stems) {
    bool mentioned = false;
    for (const std::string& line : cmake->raw_lines) {
      if (line.find("tools/" + tool + ".cc") != std::string::npos) {
        mentioned = true;
      }
    }
    if (!mentioned) {
      out->push_back(Finding{
          "CMakeLists.txt", 1, "R4",
          "tools/" + tool + ".cc has no CMake target: add_executable must "
          "name the source file"});
    }
  }

  // Tests linked against the scenario registrations.
  std::vector<std::string> scenario_linked;
  for (const std::string& line : cmake->raw_lines) {
    if (line.find("ldpr_scenarios") == std::string::npos) continue;
    std::vector<std::string> names;
    CollectTestNames(line, /*runs_only=*/false, &names);
    for (const std::string& name : names) {
      if (!Contains(scenario_linked, name)) scenario_linked.push_back(name);
    }
  }

  if (workflow == nullptr) return;
  for (const char* job_cstr : {"tsan", "asan"}) {
    const std::string job_name(job_cstr);
    const CiJob job = ParseJob(*workflow, job_name);
    if (job.header_line == 0) {
      out->push_back(Finding{workflow->path, 1, "R4",
                             "sanitizer job '" + job_name +
                                 "' is missing from the CI workflow"});
      continue;
    }
    for (const std::string& test : job.built) {
      if (!Contains(job.run, test)) {
        out->push_back(Finding{
            workflow->path, job.header_line, "R4",
            job_name + " job builds " + test + " but never runs it"});
      }
      if (!test_exists(test)) {
        out->push_back(Finding{workflow->path, job.header_line, "R4",
                               job_name + " job names " + test +
                                   " but tests/" + test + ".cc does not exist"});
      }
    }
    for (const std::string& test : job.run) {
      if (!Contains(job.built, test)) {
        out->push_back(Finding{
            workflow->path, job.header_line, "R4",
            job_name + " job runs " + test + " without building it"});
      }
    }
    for (const std::string& test : scenario_linked) {
      if (!test_exists(test)) continue;  // not a test target
      if (!Contains(job.run, test)) {
        out->push_back(Finding{
            workflow->path, job.header_line, "R4",
            "scenario-registration test " + test + " is missing from the " +
                job_name + " matrix — new scenario code must be sanitized "
                "from day one"});
      }
    }
  }

  // (c) every tool is smoke-invoked somewhere in CI: a `/<tool>`
  // occurrence followed by a non-identifier character (so ldpr does
  // not match ldpr_bench's path).
  for (const std::string& tool : tool_stems) {
    const std::string needle = "/" + tool;
    bool invoked = false;
    for (const std::string& line : workflow->raw_lines) {
      for (size_t at = line.find(needle); at != std::string::npos;
           at = line.find(needle, at + 1)) {
        const size_t after = at + needle.size();
        if (after >= line.size() || !IsIdentChar(line[after])) {
          invoked = true;
          break;
        }
      }
      if (invoked) break;
    }
    if (!invoked) {
      out->push_back(Finding{
          workflow->path, 1, "R4",
          "tools/" + tool + ".cc is never invoked by CI: add a smoke step "
          "running the built binary"});
    }
  }
}

}  // namespace lint
}  // namespace ldpr
