// Experiment harness: runs multi-trial poisoning + recovery
// experiments and collects the paper's metrics (MSE, Eq. (36);
// frequency gain, Eq. (37)) for each method:
//
//   Before      — the raw poisoned estimate f~_Z;
//   Detection   — Cao et al.'s detection baseline (needs targets);
//   LDPRecover  — non-knowledge recovery;
//   LDPRecover* — partial-knowledge recovery, fed either the true
//                 target set (MGA) or the top-r/2 frequency gainers
//                 (AA and other untargeted attacks), matching
//                 Section VI-A4.
//
// MSE is measured against the exact genuine frequencies f_X; FG is
// measured against the genuine LDP estimate f~_X per Eq. (37).
//
// Threading contract (docs/architecture.md): RunExperiments runs a
// whole grid of configs as one flat, dynamically scheduled fan-out
// over every (config, trial) pair, dispatched trial-major (trial 0 of
// every config, then trial 1, ...).  It owns one thread budget and
// splits it between that fan-out and each trial's within-trial
// aggregation shards, so the two levels never oversubscribe the
// machine: workers = min(threads, units), shards = threads / workers.
// Many units => every worker runs whole trials and aggregates
// serially; a single huge trial => the whole budget goes to its
// aggregation shards.  RunExperiment is the one-config case.  Results
// are byte-identical under every split because per-trial and
// per-shard RNG streams are counter-derived and every merge happens
// in index order.

#ifndef LDPR_SIM_EXPERIMENT_H_
#define LDPR_SIM_EXPERIMENT_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "data/dataset.h"
#include "sim/pipeline.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ldpr {

struct ExperimentConfig {
  ProtocolKind protocol = ProtocolKind::kGrr;
  double epsilon = 0.5;
  PipelineConfig pipeline;
  /// The server's eta for LDPRecover / LDPRecover*.
  double eta = 0.2;
  size_t trials = 10;
  uint64_t seed = 1;
  /// Evaluate the Detection baseline (requires a target set; skipped
  /// for AttackKind::kNone).
  bool run_detection = true;
  /// Evaluate LDPRecover*.
  bool run_star = true;
  /// Reproduce the paper's literal Eq. (28) in LDPRecover*; see
  /// recover/malicious_stats.h.  Defaults to the exact form, unlike
  /// RecoverOptions (literal), and no scenario sets it: every grid
  /// scenario's LDPRecover* and `ldpr run` use the exact form, while
  /// ext_protocols builds RecoverOptions by hand and uses the literal
  /// one (docs/architecture.md, "Eq. (28)").
  bool paper_literal_subdomain_sum = false;
  /// RunExperiment's worker-thread budget, shared by the trial
  /// fan-out and the within-trial aggregation shards: 0 = auto
  /// (LDPR_THREADS or hardware concurrency), 1 = fully serial.  The
  /// budget is split as the file header describes; pipeline.shards
  /// is overridden with the within-trial share.  RunExperiments takes
  /// one budget for the whole grid and ignores this field.  Results
  /// are bit-identical at every thread count: each trial runs on its
  /// own counter-derived RNG stream, sharded aggregation chunks
  /// likewise, and all merges happen in index order.
  size_t threads = 0;
};

/// The metrics one trial contributes to the averages.  An unset field
/// means the trial did not produce that metric (e.g. FG without a
/// target set, Detection disabled).
struct TrialMetrics {
  std::optional<double> mse_before;
  std::optional<double> mse_recover;
  std::optional<double> mse_recover_star;
  std::optional<double> mse_detection;
  std::optional<double> fg_before;
  std::optional<double> fg_recover;
  std::optional<double> fg_recover_star;
  std::optional<double> fg_detection;
  std::optional<double> mse_malicious_recover;
  std::optional<double> mse_malicious_recover_star;
};

/// Averaged metrics over the configured trials.  FG statistics are
/// only populated when the attack has a target set.
struct ExperimentResult {
  RunningStat mse_before;
  RunningStat mse_recover;
  RunningStat mse_recover_star;
  RunningStat mse_detection;
  RunningStat fg_before;
  RunningStat fg_recover;
  RunningStat fg_recover_star;
  RunningStat fg_detection;
  /// Figure 7: MSE of the estimated malicious frequencies f~'_Y /
  /// f~*_Y against the trial's actual f~_Y.
  RunningStat mse_malicious_recover;
  RunningStat mse_malicious_recover_star;
  /// Wall-clock seconds per trial, measured by RunExperiments around
  /// the trial body, which runs on the config's shared protocol (so
  /// protocol construction is not included).  Machine-dependent by
  /// nature — scenarios may only surface it through columns listed
  /// in ScenarioSpec.timing_columns, which result comparisons
  /// (ldpr_diff) exclude from exact checks.
  RunningStat trial_seconds;
  /// Genuine users each trial aggregated (the dataset's n), so
  /// scaling scenarios can derive throughput as
  /// users_per_trial / trial_seconds.mean().
  uint64_t users_per_trial = 0;
};

/// Validates the user-reachable knobs of an experiment *before* any
/// CHECK-guarded internal code runs: empty dataset (zero users — the
/// aggregation layer has nothing to estimate from and would abort),
/// degenerate domain, an epsilon ValidateEpsilon rejects, zero
/// trials, beta outside [0, 1), negative eta, and attack-specific
/// target/attacker counts.
/// Drivers that accept arbitrary user input (`ldpr run`) surface
/// the returned InvalidArgument as an error status instead of
/// tripping an LDPR_CHECK abort.
Status ValidateExperimentInputs(const ExperimentConfig& config,
                                const Dataset& dataset);

/// Runs one trial end to end — poisoning, recovery, detection — on a
/// fresh Rng(trial_seed).  Pure in (config, dataset, trial_seed):
/// same inputs, same metrics, regardless of what else is running.
/// `config.trials` and `config.threads` are ignored here; the trial
/// fan-out lives in RunExperiments.
TrialMetrics RunSingleTrial(const ExperimentConfig& config,
                            const Dataset& dataset, uint64_t trial_seed);

/// Folds one trial's metrics into the running averages.
void MergeTrialMetrics(const TrialMetrics& trial, ExperimentResult& result);

/// Runs every config's trials against `dataset` as one flat fan-out
/// of (config, trial) units across `threads` workers (0 = auto; the
/// configs' own `threads` fields are ignored), dispatched trial-major
/// (see the file header).  Each config builds one protocol, shared
/// read-only by its trials.  Deterministic in each config's seed
/// alone: trial t of config i runs on Rng(DeriveSeed(configs[i].seed,
/// t)) and merges into results[i] in trial order, so the output is
/// bit-identical to running each config alone, at any thread count.
/// When `budget_out` is set, the applied split is recorded there
/// (outer = concurrent units, inner = shards per trial).
std::vector<ExperimentResult> RunExperiments(
    const std::vector<ExperimentConfig>& configs, const Dataset& dataset,
    size_t threads, ThreadBudget* budget_out = nullptr);

/// Runs config.trials trials across config.threads workers (0 =
/// auto): RunExperiments on the one-config grid.
ExperimentResult RunExperiment(const ExperimentConfig& config,
                               const Dataset& dataset);

}  // namespace ldpr

#endif  // LDPR_SIM_EXPERIMENT_H_
