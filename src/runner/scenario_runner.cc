#include "runner/scenario_runner.h"

#include <cmath>
#include <cstdlib>

#include "data/synthetic.h"
#include "sim/experiment.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace ldpr {

namespace {

// LDPR_BENCH_SCALE, clamped to [1e-4, 1]; default 0.05.
StatusOr<double> DefaultBenchScale() {
  const char* env = std::getenv("LDPR_BENCH_SCALE");
  if (env == nullptr) return 0.05;
  const auto v = ParseNumber("LDPR_BENCH_SCALE", env);
  if (!v.ok()) return v.status();
  if (!std::isfinite(*v))
    return InvalidArgumentError(
        std::string("LDPR_BENCH_SCALE expects a finite number, got: ") + env);
  return Clamp(*v, 1e-4, 1.0);
}

// LDPR_BENCH_TRIALS, at least 1; default 3.
StatusOr<size_t> DefaultBenchTrials() {
  const char* env = std::getenv("LDPR_BENCH_TRIALS");
  if (env == nullptr) return size_t{3};
  const auto v = ParseInteger("LDPR_BENCH_TRIALS", env);
  if (!v.ok()) return v.status();
  return *v < 1 ? size_t{1} : static_cast<size_t>(*v);
}

// The registered bench dataset generators.  A generator owns its
// default shape; the resizable synthetic families additionally accept
// per-row d/n overrides (the scaling-law dataset axes), while the
// paper's fixed-shape stand-ins reject them.
struct BenchDatasetGenerator {
  const char* name;
  const char* display;
  bool resizable;
  size_t default_d;
  uint64_t default_n;
  Dataset (*make)(size_t d, uint64_t n);
};

constexpr size_t kSyntheticDefaultD = 102;
constexpr uint64_t kSyntheticDefaultN = 100000;

Dataset MakeIpumsBench(size_t, uint64_t) { return MakeIpumsLike(); }
Dataset MakeFireBench(size_t, uint64_t) { return MakeFireLike(); }
Dataset MakeZipfBench(size_t d, uint64_t n) {
  return MakeZipfDataset("zipf", d, n, /*s=*/1.0, /*shuffle_seed=*/17);
}
Dataset MakeUniformBench(size_t d, uint64_t n) {
  return MakeUniformDataset("uniform", d, n);
}

constexpr BenchDatasetGenerator kBenchDatasetGenerators[] = {
    {"ipums", "IPUMS-like", false, 0, 0, MakeIpumsBench},
    {"fire", "Fire-like", false, 0, 0, MakeFireBench},
    {"zipf", "zipf", true, kSyntheticDefaultD, kSyntheticDefaultN,
     MakeZipfBench},
    {"uniform", "uniform", true, kSyntheticDefaultD, kSyntheticDefaultN,
     MakeUniformBench},
};

const BenchDatasetGenerator* FindBenchDatasetGenerator(
    const std::string& name) {
  for (const BenchDatasetGenerator& gen : kBenchDatasetGenerators) {
    if (name == gen.name) return &gen;
  }
  return nullptr;
}

}  // namespace

StatusOr<Dataset> ResolveBenchDataset(const std::string& name, double scale,
                                      size_t d_override,
                                      uint64_t n_override) {
  if (scale <= 0.0 || scale > 1.0)
    return InvalidArgumentError("dataset scale out of (0, 1]");
  const BenchDatasetGenerator* gen = FindBenchDatasetGenerator(name);
  if (gen == nullptr)
    return InvalidArgumentError("unknown scenario dataset: " + name);
  if ((d_override != 0 || n_override != 0) && !gen->resizable)
    return InvalidArgumentError(
        "dataset '" + name +
        "' has a fixed shape and accepts no d/n overrides (use a "
        "synthetic generator for dataset-axis sweeps)");
  const size_t d = d_override != 0 ? d_override : gen->default_d;
  const uint64_t n = n_override != 0 ? n_override : gen->default_n;
  return ScaleDataset(gen->make(d, n), scale);
}

bool BenchDatasetResizable(const std::string& name) {
  const BenchDatasetGenerator* gen = FindBenchDatasetGenerator(name);
  return gen != nullptr && gen->resizable;
}

std::string BenchDatasetDisplayName(const std::string& name) {
  const BenchDatasetGenerator* gen = FindBenchDatasetGenerator(name);
  return gen != nullptr ? gen->display : name;
}

namespace {

// Runs a lowered grid scenario.  Per dataset, rows group by their
// dataset *variant* — the row-level n/d overrides of the scaling-law
// axes; rows without overrides share the pre-resolved dataset — and
// each variant's configs batch into one RunExperiments call, a flat
// fan-out over every (config, trial) pair of the variant.  Variants
// run one after another, so the scaling scenarios' per-trial timing
// columns never share the machine with another variant.  Results
// scatter back to their (table, row) slots and emit in lowering
// order, so the sink output is independent of the grouping.
Status RunGridScenario(const Scenario& scenario, const LoweredScenario& lowered,
                       const std::vector<Dataset>& datasets,
                       ScenarioContext& ctx) {
  const std::vector<std::string>& columns = scenario.spec.columns;
  std::vector<std::vector<std::vector<ExperimentResult>>> results(
      lowered.tables.size());
  for (size_t t = 0; t < lowered.tables.size(); ++t)
    results[t].resize(lowered.tables[t].rows.size());

  for (size_t ds = 0; ds < datasets.size(); ++ds) {
    struct RowRef {
      size_t table;
      size_t row;
    };
    struct Variant {
      uint64_t n;
      size_t d;
      std::vector<RowRef> rows;
    };
    std::vector<Variant> variants;  // first-appearance order
    for (size_t t = 0; t < lowered.tables.size(); ++t) {
      const LoweredTable& table = lowered.tables[t];
      if (table.dataset_index != ds) continue;
      for (size_t r = 0; r < table.rows.size(); ++r) {
        const LoweredRow& row = table.rows[r];
        Variant* variant = nullptr;
        for (Variant& v : variants) {
          if (v.n == row.n_override && v.d == row.d_override) {
            variant = &v;
            break;
          }
        }
        if (variant == nullptr) {
          variants.push_back({row.n_override, row.d_override, {}});
          variant = &variants.back();
        }
        variant->rows.push_back({t, r});
      }
    }

    for (const Variant& variant : variants) {
      std::vector<ExperimentConfig> batch;
      for (const RowRef& ref : variant.rows) {
        const std::vector<ExperimentConfig>& configs =
            lowered.tables[ref.table].rows[ref.row].configs;
        batch.insert(batch.end(), configs.begin(), configs.end());
      }
      if (batch.empty()) continue;

      Dataset resized;
      const Dataset* dataset = &datasets[ds];
      if (variant.n != 0 || variant.d != 0) {
        auto resolved = ResolveBenchDataset(ctx.spec.datasets[ds], ctx.scale,
                                            variant.d, variant.n);
        if (!resolved.ok()) return resolved.status();
        resized = std::move(*resolved);
        dataset = &resized;
      }

      // The manifest records the widest split any variant applied.
      ThreadBudget budget;
      const std::vector<ExperimentResult> batch_results =
          RunExperiments(batch, *dataset, ctx.threads, &budget);
      if (budget.outer >= ctx.report.outer_workers) {
        ctx.report.outer_workers = budget.outer;
        ctx.report.shards = budget.inner;
      }

      size_t next = 0;
      for (const RowRef& ref : variant.rows) {
        const size_t count =
            lowered.tables[ref.table].rows[ref.row].configs.size();
        results[ref.table][ref.row].assign(batch_results.begin() + next,
                                           batch_results.begin() + next +
                                               count);
        next += count;
      }
      LDPR_CHECK(next == batch_results.size());
    }
  }

  for (size_t t = 0; t < lowered.tables.size(); ++t) {
    const LoweredTable& table = lowered.tables[t];
    ctx.sink.BeginTable(table.title, columns);
    for (size_t r = 0; r < table.rows.size(); ++r) {
      const std::vector<double> values = scenario.format_row(results[t][r]);
      LDPR_CHECK(values.size() == columns.size());
      ctx.sink.AddRow(table.rows[r].label, values);
      ++ctx.report.rows;
    }
    ctx.sink.EndTable();
    ++ctx.report.tables;
  }
  return Status::Ok();
}

}  // namespace

StatusOr<ScenarioRunReport> RunScenario(const Scenario& scenario,
                                        const ScenarioRunOptions& options,
                                        ResultSink& sink) {
  const ScenarioSpec& spec = scenario.spec;
  Status valid = ValidateScenarioSpec(spec);
  if (!valid.ok()) return valid;

  const uint64_t seed = options.seed != 0 ? options.seed : spec.defaults.seed;
  size_t trials = options.trials;
  if (trials == 0) {
    auto env_trials = DefaultBenchTrials();
    if (!env_trials.ok()) return env_trials.status();
    trials = *env_trials;
  }
  double scale = options.scale;
  if (scale == 0) {
    auto env_scale = DefaultBenchScale();
    if (!env_scale.ok()) return env_scale.status();
    scale = *env_scale;
  }
  const auto threads_or = ThreadCountFromEnv();
  if (!threads_or.ok()) return threads_or.status();
  const size_t threads = *threads_or;

  // Grid scenarios lower before the banner renders: a dataset whose
  // every row overrides the shape (the dataset-axis sweeps) never
  // runs at its default size, and the banner/manifest should say so
  // rather than present the default as a run shape.
  LoweredScenario lowered;
  std::vector<bool> runs_default_shape(spec.datasets.size(), true);
  if (!spec.custom) {
    auto lowered_or = LowerScenario(spec, trials, seed);
    if (!lowered_or.ok()) return lowered_or.status();
    lowered = std::move(*lowered_or);
    runs_default_shape.assign(spec.datasets.size(), false);
    for (const LoweredTable& table : lowered.tables) {
      for (const LoweredRow& row : table.rows) {
        if (row.n_override == 0 && row.d_override == 0)
          runs_default_shape[table.dataset_index] = true;
      }
    }
  }

  // Resolve every declared dataset up front — the banner reports
  // their scaled sizes and the grid engine runs against them (rows
  // with shape overrides resolve their variants later).
  std::vector<Dataset> datasets;
  ScenarioRunInfo info;
  info.id = spec.id;
  info.title = spec.title;
  info.seed = seed;
  info.scale = scale;
  info.trials = trials;
  info.threads = threads;
  for (size_t ds = 0; ds < spec.datasets.size(); ++ds) {
    auto dataset = ResolveBenchDataset(spec.datasets[ds], scale);
    if (!dataset.ok()) return dataset.status();
    std::string display = BenchDatasetDisplayName(spec.datasets[ds]);
    if (!runs_default_shape[ds]) display += " (shape swept per row)";
    info.datasets.push_back(
        {std::move(display), dataset->domain_size(), dataset->num_users()});
    datasets.push_back(std::move(*dataset));
  }
  sink.BeginScenario(info);

  ScenarioRunReport report;
  report.info = info;
  ScenarioContext ctx{spec,    seed, trials, scale, threads,
                      datasets, sink, report};

  if (spec.custom) {
    Status status = scenario.run(ctx);
    if (!status.ok()) return status;
    return report;
  }

  Status status = RunGridScenario(scenario, lowered, datasets, ctx);
  if (!status.ok()) return status;
  return report;
}

void RunCellTable(ScenarioContext& ctx, const std::string& title,
                  const std::vector<std::string>& labels, uint64_t seed,
                  const CellTrialFn& fn, size_t group) {
  const size_t cells = labels.size();
  const size_t trials = ctx.trials;
  const size_t total = cells * trials;
  const ThreadBudget budget = SplitThreadBudget(0, total);
  ctx.report.outer_workers = budget.outer;
  ctx.report.shards = budget.inner;
  std::vector<std::vector<double>> units(total);
  ParallelFor(budget.outer, total, [&](size_t i) {
    units[i] = fn(i / trials, budget.inner, DeriveSeed(seed, i));
  });

  const std::vector<std::string>& columns = ctx.spec.columns;
  ctx.sink.BeginTable(title, columns);
  for (size_t cell = 0; cell < cells; ++cell) {
    std::vector<RunningStat> stats(columns.size());
    for (size_t t = 0; t < trials; ++t) {
      const std::vector<double>& unit = units[cell * trials + t];
      LDPR_CHECK(unit.size() == columns.size());
      for (size_t c = 0; c < unit.size(); ++c) stats[c].Add(unit[c]);
    }
    std::vector<double> means;
    for (const RunningStat& stat : stats) means.push_back(stat.mean());
    ctx.sink.AddRow(labels[cell], means);
    ++ctx.report.rows;
    if (group != 0 && (cell + 1) % group == 0 && cell + 1 < cells)
      ctx.sink.AddSeparator();
  }
  ctx.sink.EndTable();
  ++ctx.report.tables;
}

}  // namespace ldpr
