// The benchmark's workloads: fixed lists of registered scenarios,
// each run at its own scale and trial count, plus the set-up and
// work-count bookkeeping the timed pass reports against.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "runner/registry.h"
#include "util/status.h"

namespace perfbench {

/// One scenario of a workload, run through RunScenario with these
/// knobs (the seed comes from the command line).
struct ScenarioRun {
  std::string id;
  double scale = 1.0;
  size_t trials = 1;
};

struct Workload {
  std::string name;
  std::vector<ScenarioRun> runs;
};

/// nullptr when `name` is not a workload.
const Workload* FindWorkload(const std::string& name);

/// The scenario seed a benchmark seed maps to: seed 0 is the
/// scenarios' paper default (20240213).
uint64_t ScenarioSeed(uint64_t bench_seed);

/// Every protocol kind a scenario constructs, in first-use order.
std::vector<ldpr::ProtocolKind> ScenarioProtocols(const ldpr::ScenarioSpec& spec);

/// The scenario's datasets at the run's scale.
ldpr::StatusOr<std::vector<ldpr::Dataset>> ResolveDatasets(
    const ldpr::ScenarioSpec& spec, double scale);

/// Trials completed and users simulated by one RunScenario call:
/// genuine plus malicious users per poisoning trial, stream reports
/// per RunStream call, task population per shard plan.
struct Work {
  uint64_t trials = 0;
  uint64_t users = 0;
};
ldpr::StatusOr<Work> CountWork(const ldpr::Scenario& scenario,
                               const ScenarioRun& run,
                               const std::vector<ldpr::Dataset>& datasets);

/// One set-up of the workload, in seconds: resolve every dataset and
/// construct every protocol its scenarios use.  Pool start is left out:
/// the library starts its pool once per process, and a repeated pool
/// start measured thread-start latency, which on a shared host varied
/// tenfold between samples.
double SetupOnce(const Workload& workload);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
