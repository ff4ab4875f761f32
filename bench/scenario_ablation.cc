// Ablation scenario ("The recovery ablation" in docs/architecture.md):
// which parts of LDPRecover do the work?  Compares, under MGA and AA
// on IPUMS:
//
//   Before        the raw poisoned estimate;
//   Full          LDPRecover as published (subtract + refine);
//   NoSubtract    (1+eta) rescale + KKT refinement only;
//   NoRefine      Eq. (27) raw (subtract, no simplex projection);
//   ClipRenorm    clamp negatives + multiplicative renormalization
//                 (the standard post-processing baseline);
//   NormSub       KKT projection of the poisoned estimate directly.
//
// The attack x protocol table runs through AttackProtocolTable
// (scenarios.h), so the output is byte-identical at any thread count.

#include <iterator>
#include <vector>

#include "ldp/factory.h"
#include "recover/ldprecover.h"
#include "recover/normalization.h"
#include "scenarios.h"
#include "sim/pipeline.h"
#include "util/metrics.h"

namespace ldpr {
namespace bench {
namespace {

std::vector<double> RunOneTrial(const FrequencyProtocol& protocol,
                                const Dataset& dataset,
                                const PipelineConfig& pconfig,
                                uint64_t trial_seed) {
  RecoverOptions full;
  RecoverOptions no_sub;
  no_sub.ablate_no_subtraction = true;
  RecoverOptions no_refine;
  no_refine.ablate_no_refinement = true;

  Rng rng(trial_seed);
  const TrialOutput t = RunPoisoningTrial(protocol, pconfig, dataset, rng);
  return {
      Mse(t.true_freqs, t.poisoned_freqs),
      Mse(t.true_freqs, LdpRecover(protocol, full).Recover(t.poisoned_freqs)),
      Mse(t.true_freqs,
          LdpRecover(protocol, no_sub).Recover(t.poisoned_freqs)),
      Mse(t.true_freqs,
          LdpRecover(protocol, no_refine).Recover(t.poisoned_freqs)),
      Mse(t.true_freqs, ClipAndRenormalize(t.poisoned_freqs)),
      Mse(t.true_freqs, NormSub(t.poisoned_freqs)),
  };
}

}  // namespace

void RegisterAblation(ScenarioRegistry& registry) {
  Scenario scenario;
  ScenarioSpec& spec = scenario.spec;
  spec.id = "ablation";
  spec.title = "ablation: LDPRecover component ablation (MSE)";
  spec.artifact = "extension";
  spec.metric_desc = "MSE";
  spec.datasets = {"ipums"};
  spec.protocols.assign(std::begin(kAllProtocolKinds),
                        std::end(kAllProtocolKinds));
  spec.attacks = {AttackKind::kMga, AttackKind::kAdaptive};
  spec.columns = {"Before",     "Full",       "NoSubtract",
                  "NoRefine",   "ClipRenorm", "NormSub"};
  spec.custom = true;
  scenario.run = AttackProtocolTable("Ablation (IPUMS): MSE", RunOneTrial);
  registry.Register(std::move(scenario));
}

}  // namespace bench
}  // namespace ldpr
