// The scenario run engine: resolves run knobs (seed/scale/trials from
// options, environment, or spec defaults), lowers grid scenarios to
// their ExperimentConfig grids, runs each dataset variant's grid as
// one flat (config x trial) fan-out (RunExperiments in
// sim/experiment.h), and streams every row through the ResultSink.  Custom
// scenarios get a ScenarioContext instead and emit each table through
// RunCellTable: a trial returns its row's columns, and the runner fans
// the (cell x trial) grid out and averages each cell's trials into one
// row (the streaming_* scenarios run one RunStream per trial — serial
// per trial, parallel across cells).
//
// Determinism: a scenario's sink output is a pure function of
// (spec, seed, scale, trials) — the thread budget never reaches the
// metrics (see docs/architecture.md), which is what lets the
// scenario_*_determinism ctest entries diff --out files across
// LDPR_THREADS values.

#ifndef LDPR_RUNNER_SCENARIO_RUNNER_H_
#define LDPR_RUNNER_SCENARIO_RUNNER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "runner/registry.h"
#include "runner/result_sink.h"

namespace ldpr {

/// Run knobs; zero fields fall back to the environment
/// (LDPR_BENCH_SCALE, clamped to [1e-4, 1]; LDPR_BENCH_TRIALS, at
/// least 1) and then to the paper defaults (scale 0.05, trials 3,
/// spec seed).  A set variable that does not parse as a number fails
/// the run with InvalidArgument.
struct ScenarioRunOptions {
  uint64_t seed = 0;
  size_t trials = 0;
  double scale = 0;
};

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

/// One trial of a custom-scenario cell: fn(cell, shards, trial_seed)
/// returns the trial's row, one value per spec column.  `shards` is
/// the trial's within-trial aggregation share of the thread budget.
using CellTrialFn =
    std::function<std::vector<double>(size_t cell, size_t shards,
                                      uint64_t trial_seed)>;

/// Runs and emits one table of a custom scenario, one row per label.
/// Flat unit i = cell * ctx.trials + trial runs
/// fn(cell, shards, DeriveSeed(seed, i)) on the budgeted outer fan-out
/// (SplitThreadBudget in util/thread_pool.h); each column of a cell's
/// row is the RunningStat mean of its trials in trial order, so the
/// table is byte-identical at any thread count.  A separator follows
/// every `group` rows except the last (0: none).  Records the applied
/// split and the table/row counts in ctx.report.  Aborts when a trial
/// row's width differs from spec.columns.
void RunCellTable(ScenarioContext& ctx, const std::string& title,
                  const std::vector<std::string>& labels, uint64_t seed,
                  const CellTrialFn& fn, size_t group = 0);

}  // namespace ldpr

#endif  // LDPR_RUNNER_SCENARIO_RUNNER_H_
