// Re-enactment of a scenario's trials through each layer's public
// functions, for the benchmark's traced pass.
//
// A scenario is split into the units its runner schedules — one
// RunSingleTrial per (config, trial) of a grid scenario, one trial
// body per (cell, trial) of a custom scenario — on the same thread
// budget split (SplitThreadBudget) the runner applies.  Untraced, a
// unit calls the public entry point (RunSingleTrial, RunStream,
// RunShardTaskInProcess); traced, it re-enacts that entry point layer
// by layer with a span around every call, so the two must agree bit
// for bit.  Unit outputs fold into the scenario's rows the way the
// scenario folds them, so the traced rows can be compared with what
// RunScenario printed.

#ifndef PERFBENCH_REENACT_H_
#define PERFBENCH_REENACT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "runner/registry.h"
#include "trace.h"
#include "util/status.h"
#include "workloads.h"

namespace perfbench {

struct RowTable {
  std::string title;
  std::vector<std::string> columns;
  std::vector<std::string> labels;
  std::vector<std::vector<double>> values;
};

struct Reenactment {
  /// The scenario's tables as its runner would emit them.
  std::vector<RowTable> tables;
  /// Every unit's outputs, in unit order (row columns first, then any
  /// extra values the unit exposes for the bit-for-bit comparison).
  std::vector<std::vector<double>> unit_outputs;
  /// Merged spans and counters (empty when untraced).
  UnitTrace trace;
};

/// Runs `run` of `scenario` at `seed` (the scenario seed) unit by
/// unit; `traced` selects the span-instrumented re-enactment.
ldpr::StatusOr<Reenactment> Reenact(const ldpr::Scenario& scenario,
                                    const ScenarioRun& run, uint64_t seed,
                                    bool traced);

}  // namespace perfbench

#endif  // PERFBENCH_REENACT_H_
