// The figure/table scenario registrations behind the ldpr_bench
// driver.  Each scenario_*.cc file re-expresses one former bespoke
// bench main as a declarative ScenarioSpec plus its row-formatting
// callback (or, for the bespoke trial loops, a custom run function),
// registered into the process-wide ScenarioRegistry.
//
// Registration is explicit: call RegisterAllScenarios() once before
// using ScenarioRegistry::Global().  Idempotent.

#ifndef LDPR_BENCH_SCENARIOS_H_
#define LDPR_BENCH_SCENARIOS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runner/registry.h"

namespace ldpr {
namespace bench {

void RegisterTable1(ScenarioRegistry& registry);
void RegisterFig3(ScenarioRegistry& registry);
void RegisterFig4(ScenarioRegistry& registry);
void RegisterFig5Fig6(ScenarioRegistry& registry);
void RegisterFig7(ScenarioRegistry& registry);
void RegisterFig8(ScenarioRegistry& registry);
void RegisterFig9(ScenarioRegistry& registry);
void RegisterFig10(ScenarioRegistry& registry);
void RegisterAblation(ScenarioRegistry& registry);
void RegisterExtProtocols(ScenarioRegistry& registry);
void RegisterScalingN(ScenarioRegistry& registry);
void RegisterScalingD(ScenarioRegistry& registry);
void RegisterStreamingEquiv(ScenarioRegistry& registry);
void RegisterStreamingWave(ScenarioRegistry& registry);
void RegisterStreamingRamp(ScenarioRegistry& registry);
void RegisterStreamingDrift(ScenarioRegistry& registry);
void RegisterShardFaultLoss(ScenarioRegistry& registry);
void RegisterShardFaultMixed(ScenarioRegistry& registry);

/// The row labels of a one-row-per-protocol table: the names of
/// spec.protocols.
std::vector<std::string> ProtocolLabels(const ScenarioSpec& spec);

/// spec.protocols built on `dataset`'s domain at spec.defaults.epsilon,
/// in spec order (index i is the protocol of ProtocolLabels(spec)[i]).
std::vector<std::unique_ptr<FrequencyProtocol>> MakeProtocols(
    const ScenarioSpec& spec, const Dataset& dataset);

/// One trial of an attack x protocol cell: the row of spec.columns for
/// `protocol` on `dataset` under `config` (attack, beta and shards
/// set by the caller), drawn from `trial_seed`.
using AttackProtocolTrialFn = std::vector<double> (*)(
    const FrequencyProtocol& protocol, const Dataset& dataset,
    const PipelineConfig& config, uint64_t trial_seed);

/// The run of the ablation and ext_protocols scenarios: one table
/// titled `title` on the spec's first dataset, one row per
/// (spec.attacks x spec.protocols) cell labeled "<attack>-<protocol>",
/// a separator between attacks, each row the trial mean of `trial`
/// (RunCellTable in runner/scenario_runner.h).
ScenarioRunFn AttackProtocolTable(std::string title,
                                  AttackProtocolTrialFn trial);

/// Registers every paper figure/table scenario into the global
/// registry, in the order `ldpr_bench --list` reports them.  Safe to
/// call more than once.
void RegisterAllScenarios();

}  // namespace bench
}  // namespace ldpr

#endif  // LDPR_BENCH_SCENARIOS_H_
