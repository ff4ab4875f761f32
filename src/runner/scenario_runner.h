// The scenario run engine: resolves run knobs (seed/scale/trials from
// options, environment, or spec defaults), lowers grid scenarios to
// their ExperimentConfig grids, runs each dataset variant's grid as
// one flat (config x trial) fan-out (RunExperiments in
// sim/experiment.h), and streams every row through the ResultSink.  Custom
// scenarios get a ScenarioContext and the RunTrialGrid helper
// instead (the streaming_* scenarios run one RunStream per trial
// inside RunTrialGrid — serial per trial, parallel across cells).
//
// Determinism: a scenario's sink output is a pure function of
// (spec, seed, scale, trials) — the thread budget never reaches the
// metrics (see docs/architecture.md), which is what lets the
// scenario_*_determinism ctest entries diff --out files across
// LDPR_THREADS values.

#ifndef LDPR_RUNNER_SCENARIO_RUNNER_H_
#define LDPR_RUNNER_SCENARIO_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "runner/registry.h"
#include "runner/result_sink.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace ldpr {

/// Run knobs; zero fields fall back to the environment
/// (LDPR_BENCH_SCALE, LDPR_BENCH_TRIALS) and then to the paper
/// defaults (scale 0.05, trials 3, spec seed).
struct ScenarioRunOptions {
  uint64_t seed = 0;
  size_t trials = 0;
  double scale = 0;
};

/// LDPR_BENCH_SCALE, clamped to [1e-4, 1]; default 0.05.
double DefaultBenchScale();

/// LDPR_BENCH_TRIALS, at least 1; default 3.
size_t DefaultBenchTrials();

/// Builds the dataset a spec names — one of the registered bench
/// generators ("ipums", "fire", "zipf", "uniform") — scaled by
/// `scale`.  Non-zero `d_override` / `n_override` re-shape the
/// generator before scaling (the dataset-axis sweeps: n_override is
/// the pre-scale user count, so an axis value of 1e6 at scale 0.05
/// yields 50k users); only the resizable synthetic generators
/// ("zipf", "uniform") accept overrides.
StatusOr<Dataset> ResolveBenchDataset(const std::string& name, double scale,
                                      size_t d_override = 0,
                                      uint64_t n_override = 0);

/// True when `name` is a registered generator that accepts d/n
/// overrides (the synthetic "zipf"/"uniform" families).
bool BenchDatasetResizable(const std::string& name);

/// Banner name of a spec dataset ("IPUMS-like").
std::string BenchDatasetDisplayName(const std::string& name);

/// Runs one scenario end to end: banner, grid (or custom loop), row
/// emission.  The caller owns sink.Finish().
StatusOr<ScenarioRunReport> RunScenario(const Scenario& scenario,
                                        const ScenarioRunOptions& options,
                                        ResultSink& sink);

/// Runs the (cell x trial) grid of a custom scenario across the
/// LDPR_THREADS budget: flat index i = cell * trials + trial runs
/// fn(cell, shards, DeriveSeed(seed, i)) on the budgeted outer
/// fan-out (SplitThreadBudget in util/thread_pool.h), where `shards`
/// is each trial's within-trial aggregation share.  Rows come back
/// in flat order, so merging them per cell in trial order keeps
/// scenario output byte-identical at any thread count.  When
/// `budget_out` is set, the applied split is recorded there (custom
/// scenarios forward it to their ScenarioRunReport).
template <typename Row, typename TrialFn>
std::vector<Row> RunTrialGrid(size_t cells, size_t trials, uint64_t seed,
                              const TrialFn& fn,
                              ThreadBudget* budget_out = nullptr) {
  const size_t total = cells * trials;
  const ThreadBudget budget = SplitThreadBudget(0, total);
  if (budget_out != nullptr) *budget_out = budget;
  std::vector<Row> rows(total);
  ParallelFor(budget.outer, total, [&](size_t i) {
    rows[i] = fn(i / trials, budget.inner, DeriveSeed(seed, i));
  });
  return rows;
}

}  // namespace ldpr

#endif  // LDPR_RUNNER_SCENARIO_RUNNER_H_
