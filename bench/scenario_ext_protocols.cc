// Extension scenario (beyond the paper's evaluation grid): recovery
// accuracy for ALL five implemented protocols — the paper's GRR, OUE,
// OLH plus the SUE and BLH extensions — under MGA and AA, reported
// both as MSE and at the task level (how many attacker targets
// survive in the published top-10 ranking).
//
// The attack x protocol table runs through AttackProtocolTable
// (scenarios.h) — byte-identical output at any thread count.  The
// top-10 columns are plain trial means: the attack fixes whether a
// trial has targets (MGA always declares r, AA none), so AA rows read
// 0.

#include <iterator>
#include <vector>

#include "ldp/factory.h"
#include "recover/ldprecover.h"
#include "scenarios.h"
#include "sim/pipeline.h"
#include "tasks/heavy_hitters.h"
#include "util/metrics.h"

namespace ldpr {
namespace bench {
namespace {

std::vector<double> RunOneTrial(const FrequencyProtocol& protocol,
                                const Dataset& dataset,
                                const PipelineConfig& pconfig,
                                uint64_t trial_seed) {
  Rng rng(trial_seed);
  const TrialOutput t = RunPoisoningTrial(protocol, pconfig, dataset, rng);
  RecoverOptions opts;
  if (!t.attack_targets.empty()) opts.known_targets = t.attack_targets;
  const LdpRecover recover(protocol, opts);
  const auto recovered = recover.Recover(t.poisoned_freqs);

  double hits_before = 0, hits_after = 0;
  if (!t.attack_targets.empty()) {
    hits_before = static_cast<double>(
        CountInTopK(t.poisoned_freqs, t.attack_targets, 10));
    hits_after =
        static_cast<double>(CountInTopK(recovered, t.attack_targets, 10));
  }
  return {Mse(t.true_freqs, t.poisoned_freqs), Mse(t.true_freqs, recovered),
          hits_before, hits_after};
}

}  // namespace

void RegisterExtProtocols(ScenarioRegistry& registry) {
  Scenario scenario;
  ScenarioSpec& spec = scenario.spec;
  spec.id = "ext_protocols";
  spec.title =
      "ext_protocols: recovery across all five protocols (GRR/OUE/OLH + "
      "SUE/BLH)";
  spec.artifact = "extension";
  spec.metric_desc = "MSE and targets in top-10";
  spec.datasets = {"ipums"};
  spec.protocols.assign(std::begin(kExtendedProtocolKinds),
                        std::end(kExtendedProtocolKinds));
  spec.attacks = {AttackKind::kMga, AttackKind::kAdaptive};
  spec.columns = {"MSE before", "MSE after", "top10 before", "top10 after"};
  spec.custom = true;
  scenario.run = AttackProtocolTable(
      "Extended protocols (IPUMS): MSE and targets in top-10", RunOneTrial);
  registry.Register(std::move(scenario));
}

}  // namespace bench
}  // namespace ldpr
