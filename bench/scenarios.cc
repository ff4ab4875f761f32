#include "scenarios.h"

#include <memory>
#include <utility>

#include "ldp/factory.h"
#include "runner/scenario_runner.h"

namespace ldpr {
namespace bench {

std::vector<std::string> ProtocolLabels(const ScenarioSpec& spec) {
  std::vector<std::string> labels;
  for (ProtocolKind kind : spec.protocols)
    labels.push_back(ProtocolKindName(kind));
  return labels;
}

std::vector<std::unique_ptr<FrequencyProtocol>> MakeProtocols(
    const ScenarioSpec& spec, const Dataset& dataset) {
  std::vector<std::unique_ptr<FrequencyProtocol>> protocols;
  for (ProtocolKind kind : spec.protocols)
    protocols.push_back(
        MakeProtocol(kind, dataset.domain_size(), spec.defaults.epsilon));
  return protocols;
}

ScenarioRunFn AttackProtocolTable(std::string title,
                                  AttackProtocolTrialFn trial) {
  return [title = std::move(title), trial](ScenarioContext& ctx) {
    const ScenarioSpec& spec = ctx.spec;
    const Dataset& dataset = ctx.datasets[0];
    const auto protocols = MakeProtocols(spec, dataset);
    const size_t num_protocols = protocols.size();
    std::vector<std::string> labels;
    for (AttackKind attack : spec.attacks)
      for (const std::string& protocol : ProtocolLabels(spec))
        labels.push_back(std::string(AttackKindName(attack)) + "-" + protocol);
    RunCellTable(
        ctx, title, labels, ctx.seed,
        [&](size_t cell, size_t shards, uint64_t trial_seed) {
          PipelineConfig config;
          config.attack = spec.attacks[cell / num_protocols];
          config.beta = spec.defaults.beta;
          config.shards = shards;
          return trial(*protocols[cell % num_protocols], dataset, config,
                       trial_seed);
        },
        num_protocols);
    return Status::Ok();
  };
}

void RegisterAllScenarios() {
  static const bool registered = [] {
    ScenarioRegistry& registry = ScenarioRegistry::Global();
    RegisterTable1(registry);
    RegisterFig3(registry);
    RegisterFig4(registry);
    RegisterFig5Fig6(registry);
    RegisterFig7(registry);
    RegisterFig8(registry);
    RegisterFig9(registry);
    RegisterFig10(registry);
    RegisterAblation(registry);
    RegisterExtProtocols(registry);
    RegisterScalingN(registry);
    RegisterScalingD(registry);
    RegisterStreamingEquiv(registry);
    RegisterStreamingWave(registry);
    RegisterStreamingRamp(registry);
    RegisterStreamingDrift(registry);
    RegisterShardFaultLoss(registry);
    RegisterShardFaultMixed(registry);
    return true;
  }();
  (void)registered;
}

}  // namespace bench
}  // namespace ldpr
