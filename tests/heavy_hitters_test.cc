#include "tasks/heavy_hitters.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "ldp/factory.h"
#include "recover/ldprecover.h"
#include "sim/pipeline.h"

namespace ldpr {
namespace {

TEST(TopKDisplacementTest, ZeroForIdenticalRanking) {
  const std::vector<double> freqs = {0.4, 0.3, 0.2, 0.1};
  EXPECT_DOUBLE_EQ(TopKDisplacement(freqs, freqs, 2), 0.0);
}

TEST(TopKDisplacementTest, FullDisplacement) {
  const std::vector<double> truth = {0.4, 0.3, 0.2, 0.1};
  const std::vector<double> est = {0.1, 0.2, 0.3, 0.4};
  EXPECT_DOUBLE_EQ(TopKDisplacement(truth, est, 2), 1.0);
}

TEST(TopKDisplacementTest, PartialDisplacement) {
  const std::vector<double> truth = {0.4, 0.3, 0.2, 0.1};
  const std::vector<double> est = {0.4, 0.1, 0.2, 0.3};  // item 1 drops out
  EXPECT_DOUBLE_EQ(TopKDisplacement(truth, est, 2), 0.5);
}

TEST(TopKDisplacementTest, LargeKMatchesNaiveMembership) {
  // The membership check must stay correct (and fast) when k scales
  // with the domain — the regime where the old std::find-per-item
  // scan was quadratic in k.
  Rng rng(11);
  const size_t d = 8192, k = 4096;
  std::vector<double> truth(d), est(d);
  for (double& x : truth) x = rng.UniformDouble();
  for (double& x : est) x = rng.UniformDouble();

  // Independent reference: fully sort every item id (frequency
  // descending, id ascending on ties) and mark the first k.
  const auto top_k_mask = [&](const std::vector<double>& freqs) {
    std::vector<ItemId> order(d);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](ItemId a, ItemId b) {
      if (freqs[a] != freqs[b]) return freqs[a] > freqs[b];
      return a < b;
    });
    std::vector<uint8_t> mask(d, 0);
    for (size_t i = 0; i < k; ++i) mask[order[i]] = 1;
    return mask;
  };
  const std::vector<uint8_t> in_truth_top = top_k_mask(truth);
  const std::vector<uint8_t> in_est_top = top_k_mask(est);
  size_t missing = 0;
  for (size_t v = 0; v < d; ++v) {
    if (in_truth_top[v] && !in_est_top[v]) ++missing;
  }
  EXPECT_DOUBLE_EQ(TopKDisplacement(truth, est, k),
                   static_cast<double>(missing) / static_cast<double>(k));

  std::vector<ItemId> probes;
  for (ItemId v = 0; v < d; v += 3) probes.push_back(v);
  size_t expected = 0;
  for (ItemId v : probes) expected += in_est_top[v];
  EXPECT_EQ(CountInTopK(est, probes, k), expected);
}

TEST(CountInTopKTest, CountsMembership) {
  const std::vector<double> freqs = {0.4, 0.3, 0.2, 0.1};
  EXPECT_EQ(CountInTopK(freqs, {0, 3}, 2), 1u);
  EXPECT_EQ(CountInTopK(freqs, {0, 1}, 2), 2u);
  EXPECT_EQ(CountInTopK(freqs, {}, 2), 0u);
}

TEST(HeavyHitterRecoveryTest, RecoveryRestoresRankingUnderMga) {
  // End-to-end task-level check: MGA pushes its targets into the
  // published top-10; recovery evicts (most of) them.
  const Dataset ds = MakeZipfDataset("z", 64, 200000, 1.2, 5);
  const auto proto = MakeProtocol(ProtocolKind::kOue, 64, 0.5);
  PipelineConfig config;
  config.attack = AttackKind::kMga;
  config.beta = 0.05;
  config.num_targets = 5;
  Rng rng(6);

  size_t poisoned_hits = 0, recovered_hits = 0;
  double poisoned_disp = 0.0, recovered_disp = 0.0;
  const int kTrials = 5;
  for (int trial = 0; trial < kTrials; ++trial) {
    const TrialOutput t = RunPoisoningTrial(*proto, config, ds, rng);
    RecoverOptions opts;
    opts.known_targets = t.attack_targets;
    const LdpRecover recover(*proto, opts);
    const auto recovered = recover.Recover(t.poisoned_freqs);

    poisoned_hits += CountInTopK(t.poisoned_freqs, t.attack_targets, 10);
    recovered_hits += CountInTopK(recovered, t.attack_targets, 10);
    poisoned_disp += TopKDisplacement(t.true_freqs, t.poisoned_freqs, 10);
    recovered_disp += TopKDisplacement(t.true_freqs, recovered, 10);
  }
  // The attack plants targets in the ranking; recovery evicts them.
  EXPECT_GT(poisoned_hits, static_cast<size_t>(2 * kTrials));
  EXPECT_LT(recovered_hits, poisoned_hits / 2);
  EXPECT_LT(recovered_disp, poisoned_disp);
}

}  // namespace
}  // namespace ldpr
