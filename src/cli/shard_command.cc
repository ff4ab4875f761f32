// `ldpr shard-worker` / `ldpr shard-merge`: the multi-process face of
// the sharded aggregation pipeline (src/shard/).
//
//   # Split one MGA trial across 4 worker processes, then merge
//   # (each command on one shell line; wrapped here for width):
//   for i in 0 1 2 3; do
//     ldpr shard-worker --protocol=OUE --attack=MGA --dataset=zipf
//         --seed=7 --workers=4 --worker=$i --out=part$i.jsonl
//   done
//   ldpr shard-merge --protocol=OUE --attack=MGA --dataset=zipf
//       --seed=7 --out=merged/ part0.jsonl part1.jsonl part2.jsonl
//       part3.jsonl
//
//   # The in-process reference tree for ldpr_diff --exact:
//   ldpr shard-merge --protocol=OUE --attack=MGA --dataset=zipf
//       --seed=7 --workers=4 --inprocess --out=reference/
//
// Both commands derive the trial from the same spec flags
// (--protocol/--epsilon/--dataset/--d/--n/--scale/--attack/--beta/
// --targets/--eta/--seed/--users_per_chunk/--reports_per_chunk), so
// the merger independently recomputes the chunk geometry the workers
// used and validates completeness against it.  Dataset must be a
// named generator (no --csv): every process has to be able to rebuild
// the population from the spec alone.
//
// shard-worker extras: --workers N, --worker I, --out FILE ("-" =
// stdout).  shard-merge extras: partial files as positional operands,
// --out DIR (result tree: results.csv/results.jsonl/manifest.json),
// --allow_missing (estimate from surviving coverage instead of
// failing), --inprocess + --workers N (compute the reference merge
// without reading files).

#include <cstdio>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "ldp/factory.h"
#include "runner/scenario_runner.h"
#include "shard/merge.h"
#include "shard/shard_task.h"
#include "shard/wire.h"
#include "sim/pipeline.h"

namespace ldpr {
namespace cli {
namespace {

// Reads the spec flags, latching a bad value in `flags`.  Every flag
// has the library default, so a worker and a merger launched with the
// same explicit flags always agree on the spec (and therefore on
// chunk geometry).
ShardTaskSpec ReadShardSpec(FlagParser& flags) {
  const TrialFlags trial = ReadTrialFlags(flags);
  ShardTaskSpec spec;
  spec.protocol = trial.protocol;
  spec.epsilon = trial.epsilon;
  spec.beta = trial.beta;
  spec.eta = trial.eta;
  spec.num_targets = trial.targets;
  spec.seed = trial.seed;
  spec.scale = trial.scale;
  if (trial.targets < 1)
    flags.Check(InvalidArgumentError("--targets must be >= 1"));
  const auto attack = ParseAttackKind(flags.GetString("attack", "none"));
  flags.Check(attack.status());
  spec.attack = attack.value_or(spec.attack);
  if (!flags.GetString("csv", "").empty())
    flags.Check(InvalidArgumentError(
        "shard commands need a named dataset generator, not --csv: every "
        "process must rebuild the population from the spec alone"));
  spec.dataset = flags.GetString("dataset", spec.dataset);
  spec.d_override = flags.GetUint("d", 0);
  spec.n_override = flags.GetUint("n", 0);
  const uint64_t upc = flags.GetUint("users_per_chunk", 0);
  if (upc > 0) spec.chunking.users_per_chunk = upc;
  const uint64_t rpc = flags.GetUint("reports_per_chunk", 0);
  if (rpc > 0) spec.chunking.reports_per_chunk = rpc;
  return spec;
}

StatusOr<ShardTaskPlan> ResolvePlan(const ShardTaskSpec& spec,
                                    Dataset* dataset_out) {
  auto dataset = ResolveBenchDataset(spec.dataset, spec.scale,
                                     static_cast<size_t>(spec.d_override),
                                     spec.n_override);
  if (!dataset.ok()) return dataset.status();
  auto plan = BuildShardTaskPlan(spec, *dataset);
  if (!plan.ok()) return plan.status();
  if (dataset_out != nullptr) *dataset_out = *std::move(dataset);
  return plan;
}

}  // namespace

int ShardWorkerCommand(FlagParser& flags) {
  const ShardTaskSpec spec = ReadShardSpec(flags);
  const uint64_t workers = flags.GetUint("workers", 1);
  const uint64_t worker = flags.GetUint("worker", 0);
  const std::string out_path = flags.GetString("out", "-");
  flags.RejectPositional("ldpr shard-worker");
  if (!flags.status().ok()) return ReportError(flags.status());
  if (workers < 1 || worker >= workers) {
    std::fprintf(stderr,
                 "error: need --workers >= 1 and 0 <= --worker < workers\n");
    return 1;
  }

  auto plan = ResolvePlan(spec, nullptr);
  if (!plan.ok()) return ReportError(plan.status());
  const std::vector<PartialRecord> records =
      ComputeWorkerPartials(*plan, worker, workers);
  const Status written = WritePartialFile(out_path, records);
  if (!written.ok()) return ReportError(written);
  if (out_path != "-") {
    std::fprintf(stderr,
                 "shard-worker %llu/%llu: %zu partial record(s) -> %s\n",
                 static_cast<unsigned long long>(worker),
                 static_cast<unsigned long long>(workers), records.size(),
                 out_path.c_str());
  }
  return 0;
}

int ShardMergeCommand(FlagParser& flags) {
  const ShardTaskSpec spec = ReadShardSpec(flags);
  const uint64_t workers = flags.GetUint("workers", 1);
  const bool inprocess = flags.GetBool("inprocess", false);
  const bool allow_missing = flags.GetBool("allow_missing", false);
  const std::string out_dir = flags.GetString("out", "");
  if (!flags.status().ok()) return ReportError(flags.status());
  if (inprocess && !flags.positional().empty()) {
    std::fprintf(stderr,
                 "error: --inprocess computes its own partials; drop the "
                 "file operands\n");
    return 1;
  }
  if (!inprocess && flags.positional().empty()) {
    std::fprintf(stderr, "error: no partial files to merge (or --inprocess)\n");
    return 1;
  }

  Dataset dataset;
  auto plan = ResolvePlan(spec, &dataset);
  if (!plan.ok()) return ReportError(plan.status());

  StatusOr<MergedPartials> merged = [&]() -> StatusOr<MergedPartials> {
    if (inprocess) {
      if (workers < 1)
        return InvalidArgumentError("--workers must be >= 1 for --inprocess");
      return RunShardTaskInProcess(*plan, workers);
    }
    std::vector<std::string> lines;
    for (const std::string& path : flags.positional()) {
      auto file_lines = ReadPartialLines(path);
      if (!file_lines.ok()) return file_lines.status();
      for (std::string& line : *file_lines) lines.push_back(std::move(line));
    }
    MergeOptions options;
    options.allow_missing = allow_missing;
    return MergeShardPartials(*plan, lines, options);
  }();
  if (!merged.ok()) return ReportError(merged.status());

  const ShardOutcome outcome = ComputeShardOutcome(*plan, dataset, *merged);
  const MergeStats& stats = merged->stats;
  std::printf(
      "shard-merge: %zu line(s), %zu used, %zu rejected, %zu duplicate(s) "
      "dropped\n"
      "coverage: %llu/%llu users, %llu/%llu reports, %llu chunk(s) lost\n"
      "poisoned MSE %.6e, recovered MSE %.6e\n",
      stats.lines_total, stats.records_used, stats.lines_rejected,
      stats.duplicates_dropped,
      static_cast<unsigned long long>(stats.users_covered),
      static_cast<unsigned long long>(plan->n),
      static_cast<unsigned long long>(stats.reports_covered),
      static_cast<unsigned long long>(plan->m),
      static_cast<unsigned long long>(stats.genuine_chunks_lost +
                                      stats.malicious_chunks_lost),
      outcome.poisoned_mse, outcome.recovered_mse);

  if (!out_dir.empty()) {
    const Status written =
        WriteShardResultTree(out_dir, *plan, dataset, outcome, stats);
    if (!written.ok()) return ReportError(written);
    std::printf("wrote %s/{results.csv,results.jsonl,manifest.json}\n",
                out_dir.c_str());
  }
  return 0;
}

}  // namespace cli
}  // namespace ldpr
