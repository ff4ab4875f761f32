// perfbench: runs one benchmark workload and prints one JSON
// object (its last stdout line) that perfbench/run.py turns into
// metrics and output checks.
//
//   perfbench --workload paper_grid --seed 0 --seconds 30 \
//       --threads 4 --trace 0
//
// --trace 0: repeats the workload — every scenario through the
// runner's public RunScenario, one after another (a closed loop with
// one client) — until --seconds have passed, and reports per-pass
// wall time, trials, users and every scenario's rows.
//
// --trace 1: one RunScenario pass (per-scenario runner time and the
// reference rows), one untraced pass through the public per-unit entry
// points, then traced re-enactment passes until --seconds have passed.
// Each traced unit must equal its untraced entry point bit for bit and
// the folded rows must equal RunScenario's; counters must repeat
// exactly across traced passes.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "reenact.h"
#include "runner/scenario_runner.h"
#include "scenarios.h"
#include "trace.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Captures a scenario's tables as RowTables.
class CaptureSink : public ldpr::ResultSink {
 public:
  void BeginTable(const std::string& title,
                  const std::vector<std::string>& columns) override {
    tables_.push_back({title, columns, {}, {}});
  }
  void AddRow(const std::string& label,
              const std::vector<double>& values) override {
    tables_.back().labels.push_back(label);
    tables_.back().values.push_back(values);
  }
  ldpr::Status Finish() override { return ldpr::Status::Ok(); }
  std::vector<RowTable>& tables() { return tables_; }

 private:
  std::vector<RowTable> tables_;
};

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) == 0);
}

bool SameTables(const std::vector<RowTable>& a, const std::vector<RowTable>& b) {
  if (a.size() != b.size()) return false;
  for (size_t t = 0; t < a.size(); ++t) {
    if (a[t].title != b[t].title || a[t].columns != b[t].columns ||
        a[t].labels != b[t].labels || a[t].values.size() != b[t].values.size())
      return false;
    for (size_t r = 0; r < a[t].values.size(); ++r)
      if (!SameBits(a[t].values[r], b[t].values[r])) return false;
  }
  return true;
}

// ------------------------------------------------------------- JSON

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Exact text of a double ("%a"; "nan"/"inf" included).
std::string Hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return Quote(buf);
}

template <typename T, typename F>
std::string List(const std::vector<T>& items, const F& render) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i)
    out += (i ? "," : "") + render(items[i]);
  return out + "]";
}

std::string TablesJson(const std::vector<RowTable>& tables) {
  return List(tables, [](const RowTable& t) {
    std::string rows = "[";
    for (size_t r = 0; r < t.labels.size(); ++r) {
      rows += (r ? "," : "") + std::string("{\"label\":") + Quote(t.labels[r]) +
              ",\"values\":" + List(t.values[r], Hex) + "}";
    }
    return "{\"title\":" + Quote(t.title) +
           ",\"columns\":" + List(t.columns, Quote) + ",\"rows\":" + rows +
           "]}";
  });
}

template <typename V, typename F>
std::string MapJson(const std::map<std::string, V>& m, const F& render) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    out += (first ? "" : ",") + Quote(k) + ":" + render(v);
    first = false;
  }
  return out + "}";
}

// Seconds inside layer spans.
double LayerSeconds(const UnitTrace& trace) {
  double total = 0;
  for (const auto& entry : trace.span_s) total += entry.second;
  return total;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// ------------------------------------------------------------- memory

// Samples the allocator's in-use bytes (glibc mallinfo2: arena plus
// mmapped chunks) every 10 ms on its own thread, from construction
// until PeakMb().  In-use bytes, unlike the resident set, do not carry
// freed memory the allocator keeps, which on this workload mix swings
// the resident set by a third from run to run.
class HeapSampler {
 public:
  HeapSampler() : thread_([this] { Loop(); }) {}
  ~HeapSampler() { Stop(); }
  HeapSampler(const HeapSampler&) = delete;
  HeapSampler& operator=(const HeapSampler&) = delete;

  /// Ends sampling; returns the largest sample in MB.
  double PeakMb() {
    Stop();
    return peak_mb_;
  }

 private:
  void Stop() {
    if (!thread_.joinable()) return;
    stop_ = true;
    thread_.join();
  }

  void Loop() {
    while (!stop_) {
      const struct mallinfo2 info = mallinfo2();
      peak_mb_ = std::max(
          peak_mb_,
          static_cast<double>(info.uordblks + info.hblkhd) / 1048576.0);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  std::atomic<bool> stop_{false};
  double peak_mb_ = 0;
  std::thread thread_;  // last: starts once the members it uses exist
};

// ------------------------------------------------------------- runs

// Back-to-back set-up samples taken before anything else runs.
constexpr int kSetupSamples = 15;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  size_t threads = 4;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value);
    } else if (key == "--threads") {
      args.threads = std::max(1, std::atoi(value));
    } else if (key == "--trace") {
      args.trace = std::atoi(value);
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "error: flag without a value\n");
    return false;
  }
  return !args.workload.empty();
}

struct Prepared {
  const ldpr::Scenario* scenario;
  ScenarioRun run;
  Work work;
};

// One RunScenario call with the run's knobs; returns its tables.
ldpr::StatusOr<std::vector<RowTable>> RunOnce(const Prepared& p,
                                              uint64_t seed) {
  ldpr::ScenarioRunOptions options;
  options.seed = seed;
  options.trials = p.run.trials;
  options.scale = p.run.scale;
  CaptureSink sink;
  const auto report = ldpr::RunScenario(*p.scenario, options, sink);
  if (!report.ok()) return report.status();
  return std::move(sink.tables());
}

std::string ScenariosJson(const std::vector<Prepared>& prepared,
                          const std::vector<std::vector<RowTable>>& rows) {
  std::string out = "[";
  for (size_t i = 0; i < prepared.size(); ++i) {
    const ldpr::ScenarioSpec& spec = prepared[i].scenario->spec;
    out += (i ? "," : "") + std::string("{\"id\":") + Quote(spec.id) +
           ",\"timing_columns\":" + List(spec.timing_columns, Quote) +
           ",\"tables\":" + TablesJson(rows[i]) + "}";
  }
  return out + "]";
}

int Run(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed S --seconds T "
                 "--threads N --trace 0|1\n");
    return 2;
  }
  // The global pool reads LDPR_THREADS once, at first parallel work.
  setenv("LDPR_THREADS", std::to_string(args.threads).c_str(), 1);
  ldpr::bench::RegisterAllScenarios();
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "error: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const uint64_t seed = ScenarioSeed(args.seed);

  // Set-up is sampled first, while no other thread of the process
  // exists: taken between passes, the samples were slowed by the heap
  // sampler and by the pass's cache and allocator state.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupSamples; ++i)
    setup_s.push_back(SetupOnce(*workload));

  std::vector<Prepared> prepared;
  for (const ScenarioRun& run : workload->runs) {
    const ldpr::Scenario* scenario =
        ldpr::ScenarioRegistry::Global().Find(run.id);
    if (scenario == nullptr) {
      std::fprintf(stderr, "error: scenario %s is not registered\n",
                   run.id.c_str());
      return 1;
    }
    auto datasets = ResolveDatasets(scenario->spec, run.scale);
    if (!datasets.ok()) {
      std::fprintf(stderr, "error: %s\n", datasets.status().ToString().c_str());
      return 1;
    }
    auto work = CountWork(*scenario, run, *datasets);
    if (!work.ok()) {
      std::fprintf(stderr, "error: %s\n", work.status().ToString().c_str());
      return 1;
    }
    prepared.push_back({scenario, run, *work});
  }

  std::string json = "{\"workload\":" + Quote(workload->name) +
                     ",\"seed\":" + std::to_string(args.seed) +
                     ",\"threads\":" + std::to_string(args.threads);

  // Pass 0 (both modes): the workload through RunScenario.  Timed
  // mode repeats it until --seconds have passed.
  std::vector<std::vector<RowTable>> first_rows;
  std::vector<std::string> pass_mismatches;
  std::string passes = "[";
  std::map<std::string, double> runner_s;
  HeapSampler heap;
  const Clock::time_point loop_start = Clock::now();
  for (size_t pass = 0;; ++pass) {
    const Clock::time_point pass_start = Clock::now();
    Work work;
    std::vector<double> scenario_s;
    for (size_t i = 0; i < prepared.size(); ++i) {
      const Clock::time_point scenario_start = Clock::now();
      auto rows = RunOnce(prepared[i], seed);
      if (!rows.ok()) {
        std::fprintf(stderr, "error: scenario %s: %s\n",
                     prepared[i].run.id.c_str(),
                     rows.status().ToString().c_str());
        return 1;
      }
      scenario_s.push_back(SecondsSince(scenario_start));
      runner_s["runner." + prepared[i].run.id + "_s"] = scenario_s.back();
      work.trials += prepared[i].work.trials;
      work.users += prepared[i].work.users;
      if (pass == 0) {
        first_rows.push_back(std::move(*rows));
      } else if (!SameTables(first_rows[i], *rows)) {
        pass_mismatches.push_back(prepared[i].run.id);
      }
    }
    const double pass_s = SecondsSince(pass_start);
    passes += (pass ? "," : "") + std::string("{\"seconds\":") +
              Num(pass_s) + ",\"scenario_s\":" + List(scenario_s, Num) +
              ",\"trials\":" + std::to_string(work.trials) +
              ",\"users\":" + std::to_string(work.users) + "}";
    if (args.trace != 0 || SecondsSince(loop_start) >= args.seconds) break;
  }
  json += ",\"peak_heap_mb\":" + Num(heap.PeakMb());
  json += ",\"setup_s\":" + List(setup_s, Num);
  json += ",\"passes\":" + passes + "]";
  json += ",\"scenarios\":" + ScenariosJson(prepared, first_rows);
  json += ",\"pass_mismatches\":" + List(pass_mismatches, Quote);

  if (args.trace != 0) {
    // Untraced pass through the per-unit public entry points.
    const Clock::time_point untraced_start = Clock::now();
    std::vector<std::vector<std::vector<double>>> reference;
    for (const Prepared& p : prepared) {
      auto untraced = Reenact(*p.scenario, p.run, seed, /*traced=*/false);
      if (!untraced.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     untraced.status().ToString().c_str());
        return 1;
      }
      reference.push_back(std::move(untraced->unit_outputs));
    }
    const double untraced_s = SecondsSince(untraced_start);

    // Traced passes until --seconds have passed since the loop began.
    std::vector<UnitTrace> pass_traces;
    std::vector<double> traced_s;
    std::vector<std::string> unit_mismatches, row_mismatches;
    size_t units = 0;
    do {
      const Clock::time_point pass_start = Clock::now();
      UnitTrace pass_trace;
      for (size_t i = 0; i < prepared.size(); ++i) {
        const Prepared& p = prepared[i];
        auto traced = Reenact(*p.scenario, p.run, seed, /*traced=*/true);
        if (!traced.ok()) {
          std::fprintf(stderr, "error: %s\n",
                       traced.status().ToString().c_str());
          return 1;
        }
        if (pass_traces.empty()) {
          units += traced->unit_outputs.size();
          bool same = traced->unit_outputs.size() == reference[i].size();
          for (size_t u = 0; same && u < reference[i].size(); ++u)
            same = SameBits(traced->unit_outputs[u], reference[i][u]);
          if (!same) unit_mismatches.push_back(p.run.id);
          if (!SameTables(traced->tables, first_rows[i]))
            row_mismatches.push_back(p.run.id);
        }
        pass_trace.Merge(traced->trace);
      }
      traced_s.push_back(SecondsSince(pass_start));
      pass_traces.push_back(std::move(pass_trace));
    } while (SecondsSince(loop_start) < args.seconds);

    // Counters must repeat exactly across traced passes.
    const UnitTrace& first = pass_traces.front();
    bool repeat_ok = true;
    for (const UnitTrace& t : pass_traces) {
      repeat_ok = repeat_ok && t.counts == first.counts &&
                  t.maxima == first.maxima && t.sums == first.sums &&
                  t.ipa_craft_reports == first.ipa_craft_reports;
    }
    const auto median_of = [&](const auto& get) {
      std::vector<double> v;
      for (const UnitTrace& t : pass_traces) v.push_back(get(t));
      return Median(v);
    };
    std::map<std::string, double> span_s;
    for (const auto& entry : first.span_s) {
      const std::string& name = entry.first;
      span_s[name] = median_of([&](const UnitTrace& t) {
        const auto it = t.span_s.find(name);
        return it == t.span_s.end() ? 0.0 : it->second;
      });
    }
    std::string ipa = "[";
    for (const auto& [m, reports] : first.ipa_craft_reports) {
      const double s = median_of(
          [&](const UnitTrace& t) { return t.ipa_craft_s.at(m); });
      ipa += (ipa.size() > 1 ? "," : "") + std::string("[") +
             std::to_string(m) + "," + Num(s) + "," +
             std::to_string(reports) + "]";
    }
    const auto count_json = [](uint64_t v) { return std::to_string(v); };
    json += ",\"trace\":{\"untraced_s\":" + Num(untraced_s) +
            ",\"traced_s\":" + List(traced_s, Num) +
            ",\"runner_s\":" + MapJson(runner_s, Num) +
            ",\"units\":" + std::to_string(units) +
            ",\"unit_mismatches\":" + List(unit_mismatches, Quote) +
            ",\"row_mismatches\":" + List(row_mismatches, Quote) +
            ",\"repeat_ok\":" + (repeat_ok ? "true" : "false") +
            ",\"span_s\":" + MapJson(span_s, Num) +
            ",\"counts\":" + MapJson(first.counts, count_json) +
            ",\"maxima\":" + MapJson(first.maxima, count_json) +
            ",\"sums\":" + MapJson(first.sums, Num) +
            ",\"ipa\":" + ipa + "]" +
            ",\"busy_s\":" +
            Num(median_of([](const UnitTrace& t) { return t.busy_s; })) +
            ",\"glue_s\":" + Num(median_of([](const UnitTrace& t) {
              return std::max(0.0, t.busy_s - LayerSeconds(t));
            })) +
            ",\"coverage\":" + Num(median_of([](const UnitTrace& t) {
              return t.busy_s > 0 ? LayerSeconds(t) / t.busy_s : 0.0;
            })) +
            ",\"pool_wait_s\":" +
            Num(median_of([](const UnitTrace& t) { return t.pool_wait_s; })) +
            ",\"pool_idle_s\":" +
            Num(median_of([](const UnitTrace& t) { return t.pool_idle_s; })) +
            "}";
  }

  json += "}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
