#include "workloads.h"

#include <algorithm>
#include <memory>

#include "ldp/factory.h"
#include "runner/scenario_runner.h"
#include "sim/pipeline.h"
#include "trace.h"

namespace perfbench {

using ldpr::AttackKind;
using ldpr::Dataset;
using ldpr::ProtocolKind;
using ldpr::ScenarioSpec;
using ldpr::StatusOr;

namespace {

const Workload kWorkloads[] = {
    {"paper_grid", {{"fig3", 1.0, 4}, {"fig4", 1.0, 1}}},
    {"input_poison", {{"fig8", 0.2, 1}, {"fig9", 0.2, 4}}},
    {"stream_shard",
     {{"streaming_wave", 1.0, 6},
      {"streaming_ramp", 1.0, 6},
      {"streaming_drift", 1.0, 6},
      {"shard_fault_loss", 1.0, 24},
      {"shard_fault_mixed", 1.0, 24},
      {"streaming_equiv", 0.1, 3}}},
};

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : kWorkloads)
    if (workload.name == name) return &workload;
  return nullptr;
}

uint64_t ScenarioSeed(uint64_t bench_seed) { return 20240213 + bench_seed; }

std::vector<ProtocolKind> ScenarioProtocols(const ScenarioSpec& spec) {
  std::vector<ProtocolKind> kinds = spec.protocols;
  for (const ldpr::ScenarioCell& cell : spec.cells)
    kinds.push_back(cell.protocol);
  std::vector<ProtocolKind> unique;
  for (ProtocolKind kind : kinds)
    if (std::find(unique.begin(), unique.end(), kind) == unique.end())
      unique.push_back(kind);
  return unique;
}

StatusOr<std::vector<Dataset>> ResolveDatasets(const ScenarioSpec& spec,
                                               double scale) {
  std::vector<Dataset> datasets;
  for (const std::string& name : spec.datasets) {
    auto dataset = ldpr::ResolveBenchDataset(name, scale);
    if (!dataset.ok()) return dataset.status();
    datasets.push_back(std::move(*dataset));
  }
  return datasets;
}

StatusOr<Work> CountWork(const ldpr::Scenario& scenario,
                         const ScenarioRun& run,
                         const std::vector<Dataset>& datasets) {
  const ScenarioSpec& spec = scenario.spec;
  Work work;
  if (!spec.custom) {
    auto lowered = ldpr::LowerScenario(spec, run.trials, ScenarioSeed(0));
    if (!lowered.ok()) return lowered.status();
    for (const ldpr::LoweredTable& table : lowered->tables) {
      const uint64_t n = datasets[table.dataset_index].num_users();
      for (const ldpr::LoweredRow& row : table.rows) {
        for (const ldpr::ExperimentConfig& config : row.configs) {
          const ldpr::PipelineConfig& p = config.pipeline;
          const uint64_t m = p.attack == AttackKind::kNone
                                 ? 0
                                 : ldpr::MaliciousUserCount(p.beta, n);
          work.trials += config.trials;
          work.users += config.trials * (n + m);
        }
      }
    }
    return work;
  }

  const uint64_t n = datasets[0].num_users();
  const uint64_t m = ldpr::MaliciousUserCount(spec.defaults.beta, n);
  const uint64_t cells = spec.protocols.size();
  uint64_t users_per_trial = 0;
  if (spec.id == "fig9") {
    work.trials = cells * spec.sweeps[0].values.size() * run.trials;
    work.users = work.trials * (n + m);
    return work;
  }
  if (spec.id == "streaming_wave") {
    users_per_trial = 2 * n;  // clean run + wave run
  } else if (spec.id == "streaming_equiv" || spec.id == "streaming_ramp" ||
             spec.id == "streaming_drift") {
    users_per_trial = n;
  } else if (spec.id == "shard_fault_loss") {
    users_per_trial = n + (n + m);  // genuine-only plan + MGA plan
  } else if (spec.id == "shard_fault_mixed") {
    users_per_trial = n + m;
  } else {
    return ldpr::InvalidArgumentError("no work model for scenario " + spec.id);
  }
  work.trials = cells * run.trials;
  work.users = work.trials * users_per_trial;
  return work;
}

double SetupOnce(const Workload& workload) {
  const Clock::time_point start = Clock::now();
  for (const ScenarioRun& run : workload.runs) {
    const ldpr::Scenario* scenario =
        ldpr::ScenarioRegistry::Global().Find(run.id);
    auto datasets = ResolveDatasets(scenario->spec, run.scale);
    if (!datasets.ok()) continue;  // reported by the timed pass
    for (const Dataset& dataset : *datasets) {
      for (ProtocolKind kind : ScenarioProtocols(scenario->spec)) {
        const std::unique_ptr<ldpr::FrequencyProtocol> protocol =
            ldpr::MakeProtocol(kind, dataset.domain_size(),
                               scenario->spec.defaults.epsilon);
      }
    }
  }
  return SecondsSince(start);
}

}  // namespace perfbench
