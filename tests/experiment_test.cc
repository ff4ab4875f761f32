#include "sim/experiment.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "data/synthetic.h"

namespace ldpr {
namespace {

Dataset SmallDataset() { return MakeZipfDataset("z", 30, 30000, 1.0, 11); }

// Every deterministic statistic of `b` equals `a` bit for bit.
void ExpectBitEqual(const ExperimentResult& a, const ExperimentResult& b,
                    const std::string& where) {
  const auto same = [&where](const RunningStat& x, const RunningStat& y) {
    EXPECT_EQ(x.count(), y.count()) << where;
    EXPECT_EQ(x.mean(), y.mean()) << where;
    EXPECT_EQ(x.variance(), y.variance()) << where;
  };
  same(a.mse_before, b.mse_before);
  same(a.mse_recover, b.mse_recover);
  same(a.mse_recover_star, b.mse_recover_star);
  same(a.mse_detection, b.mse_detection);
  same(a.fg_before, b.fg_before);
  same(a.fg_recover, b.fg_recover);
  same(a.fg_recover_star, b.fg_recover_star);
  same(a.fg_detection, b.fg_detection);
  same(a.mse_malicious_recover, b.mse_malicious_recover);
  same(a.mse_malicious_recover_star, b.mse_malicious_recover_star);
  EXPECT_EQ(a.users_per_trial, b.users_per_trial) << where;
}

TEST(ExperimentTest, DeterministicInSeed) {
  ExperimentConfig config;
  config.protocol = ProtocolKind::kGrr;
  config.pipeline.attack = AttackKind::kMga;
  config.trials = 3;
  config.seed = 77;
  const Dataset ds = SmallDataset();
  const ExperimentResult a = RunExperiment(config, ds);
  const ExperimentResult b = RunExperiment(config, ds);
  EXPECT_DOUBLE_EQ(a.mse_before.mean(), b.mse_before.mean());
  EXPECT_DOUBLE_EQ(a.mse_recover.mean(), b.mse_recover.mean());
}

// The parallel engine's core guarantee: every trial runs on its own
// counter-derived RNG stream and metrics merge in trial order, so the
// result is bit-identical at any thread count.
TEST(ExperimentTest, BitIdenticalAcrossThreadCounts) {
  ExperimentConfig config;
  config.protocol = ProtocolKind::kOue;
  config.pipeline.attack = AttackKind::kMga;
  config.trials = 8;
  config.seed = 123;
  const Dataset ds = SmallDataset();

  config.threads = 1;
  const ExperimentResult serial = RunExperiment(config, ds);
  for (size_t threads : {2u, 8u}) {
    config.threads = threads;
    ExpectBitEqual(serial, RunExperiment(config, ds),
                   "threads=" + std::to_string(threads));
  }
}

// The flat (config x trial) fan-out splits one config's trials across
// workers and interleaves configs trial-major; each config's result
// must still equal that config run alone and serially, bit for bit.
// Configs with 1, 2 and 3 trials make the trial-major order skip
// finished configs, and 3 workers split 6 units unevenly.
TEST(ExperimentTest, FlatGridMatchesSerialPerConfig) {
  const Dataset ds = SmallDataset();
  std::vector<ExperimentConfig> configs;
  const ProtocolKind protocols[] = {ProtocolKind::kGrr, ProtocolKind::kOue,
                                    ProtocolKind::kOlh};
  for (size_t i = 0; i < 3; ++i) {
    ExperimentConfig config;
    config.protocol = protocols[i];
    config.pipeline.attack = AttackKind::kMga;
    config.trials = i + 1;
    config.seed = 500 + i;
    configs.push_back(config);
  }

  std::vector<ExperimentResult> serial;
  for (ExperimentConfig config : configs) {
    config.threads = 1;
    serial.push_back(RunExperiment(config, ds));
  }
  for (size_t threads : {1u, 3u, 4u}) {
    const std::vector<ExperimentResult> flat =
        RunExperiments(configs, ds, threads);
    ASSERT_EQ(flat.size(), configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
      const std::string where =
          "threads=" + std::to_string(threads) + " config=" + std::to_string(i);
      ExpectBitEqual(serial[i], flat[i], where);
      EXPECT_EQ(flat[i].mse_before.count(), configs[i].trials) << where;
      EXPECT_EQ(flat[i].trial_seconds.count(), configs[i].trials) << where;
    }
  }
}

// RunSingleTrial is the pure per-trial unit RunExperiments schedules:
// trial t of seed s must reproduce exactly from DeriveSeed(s, t).
TEST(ExperimentTest, SingleTrialMatchesExperimentStream) {
  ExperimentConfig config;
  config.protocol = ProtocolKind::kGrr;
  config.pipeline.attack = AttackKind::kMga;
  config.trials = 1;
  config.seed = 99;
  const Dataset ds = SmallDataset();
  const ExperimentResult r = RunExperiment(config, ds);
  const TrialMetrics t = RunSingleTrial(config, ds, DeriveSeed(config.seed, 0));
  ASSERT_TRUE(t.mse_before.has_value());
  ASSERT_TRUE(t.mse_recover.has_value());
  EXPECT_EQ(r.mse_before.mean(), *t.mse_before);
  EXPECT_EQ(r.mse_recover.mean(), *t.mse_recover);
}

TEST(ExperimentTest, DifferentSeedsDiffer) {
  ExperimentConfig config;
  config.pipeline.attack = AttackKind::kAdaptive;
  config.trials = 2;
  const Dataset ds = SmallDataset();
  config.seed = 1;
  const double a = RunExperiment(config, ds).mse_before.mean();
  config.seed = 2;
  const double b = RunExperiment(config, ds).mse_before.mean();
  EXPECT_NE(a, b);
}

TEST(ExperimentTest, CollectsAllMetricsForMga) {
  ExperimentConfig config;
  config.protocol = ProtocolKind::kOue;
  config.pipeline.attack = AttackKind::kMga;
  config.trials = 3;
  const ExperimentResult r = RunExperiment(config, SmallDataset());
  EXPECT_EQ(r.mse_before.count(), 3u);
  EXPECT_EQ(r.mse_recover.count(), 3u);
  EXPECT_EQ(r.mse_recover_star.count(), 3u);
  EXPECT_EQ(r.mse_detection.count(), 3u);
  EXPECT_EQ(r.fg_before.count(), 3u);
  EXPECT_EQ(r.fg_recover.count(), 3u);
  EXPECT_EQ(r.mse_malicious_recover.count(), 3u);
}

TEST(ExperimentTest, UntargetedAttackSkipsFgButRunsStar) {
  ExperimentConfig config;
  config.pipeline.attack = AttackKind::kAdaptive;
  config.trials = 2;
  const ExperimentResult r = RunExperiment(config, SmallDataset());
  EXPECT_EQ(r.fg_before.count(), 0u);      // no target set -> no FG
  EXPECT_EQ(r.mse_recover_star.count(), 2u);  // star uses top gainers
}

TEST(ExperimentTest, NoAttackControlRunsRecoveryOnly) {
  // Table I's configuration.
  ExperimentConfig config;
  config.pipeline.attack = AttackKind::kNone;
  config.trials = 2;
  const ExperimentResult r = RunExperiment(config, SmallDataset());
  EXPECT_EQ(r.mse_before.count(), 2u);
  EXPECT_EQ(r.mse_recover.count(), 2u);
  EXPECT_EQ(r.mse_detection.count(), 0u);
  EXPECT_EQ(r.mse_recover_star.count(), 0u);
}

TEST(ExperimentTest, RecoveryImprovesMseUnderMga) {
  ExperimentConfig config;
  config.protocol = ProtocolKind::kOue;
  config.pipeline.attack = AttackKind::kMga;
  config.pipeline.beta = 0.05;
  config.trials = 3;
  const ExperimentResult r = RunExperiment(config, SmallDataset());
  EXPECT_LT(r.mse_recover.mean(), r.mse_before.mean());
  EXPECT_LT(r.mse_recover_star.mean(), r.mse_before.mean());
}

TEST(ExperimentTest, StarReducesFgBelowPlainRecovery) {
  ExperimentConfig config;
  config.protocol = ProtocolKind::kOue;
  config.pipeline.attack = AttackKind::kMga;
  config.trials = 4;
  const ExperimentResult r = RunExperiment(config, SmallDataset());
  // Both crush the attack's gain; star at least matches.
  EXPECT_LT(r.fg_recover.mean(), 0.5 * r.fg_before.mean());
  EXPECT_LE(r.fg_recover_star.mean(), r.fg_recover.mean() + 0.02);
}

TEST(ExperimentTest, DisableFlagsSkipMethods) {
  ExperimentConfig config;
  config.pipeline.attack = AttackKind::kMga;
  config.trials = 2;
  config.run_detection = false;
  config.run_star = false;
  const ExperimentResult r = RunExperiment(config, SmallDataset());
  EXPECT_EQ(r.mse_detection.count(), 0u);
  EXPECT_EQ(r.mse_recover_star.count(), 0u);
}

}  // namespace
}  // namespace ldpr
