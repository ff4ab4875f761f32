// ValidateExperimentInputs and ValidateEpsilon: the status-based
// guards that keep bad CLI knobs (empty datasets, zero trials,
// out-of-range epsilon/beta/eta, degenerate target counts) from
// reaching LDPR_CHECK aborts in the aggregation and attack layers.

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "ldp/factory.h"
#include "shard/shard_task.h"
#include "sim/experiment.h"

namespace ldpr {
namespace {

ExperimentConfig OkConfig() {
  ExperimentConfig config;
  config.protocol = ProtocolKind::kGrr;
  config.epsilon = 1.0;
  config.trials = 2;
  config.pipeline.attack = AttackKind::kMga;
  config.pipeline.beta = 0.05;
  config.pipeline.num_targets = 3;
  return config;
}

Dataset OkDataset() { return MakeZipfDataset("z", 16, 1000, 1.0, 1); }

TEST(ValidateExperimentInputsTest, AcceptsSaneInputs) {
  EXPECT_TRUE(ValidateExperimentInputs(OkConfig(), OkDataset()).ok());
}

TEST(ValidateExperimentInputsTest, RejectsEmptyDataset) {
  Dataset empty;
  empty.name = "empty";
  empty.item_counts = {0, 0, 0};
  const Status status = ValidateExperimentInputs(OkConfig(), empty);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("empty"), std::string::npos);
}

TEST(ValidateExperimentInputsTest, RejectsDegenerateDomain) {
  Dataset tiny;
  tiny.name = "tiny";
  tiny.item_counts = {5};
  EXPECT_EQ(ValidateExperimentInputs(OkConfig(), tiny).code(),
            StatusCode::kInvalidArgument);
}

TEST(ValidateExperimentInputsTest, RejectsBadScalarKnobs) {
  const Dataset ds = OkDataset();
  auto config = OkConfig();
  config.epsilon = 0.0;
  EXPECT_FALSE(ValidateExperimentInputs(config, ds).ok());

  config = OkConfig();
  config.trials = 0;
  EXPECT_FALSE(ValidateExperimentInputs(config, ds).ok());

  config = OkConfig();
  config.pipeline.beta = 1.0;  // m = beta*n/(1-beta) would divide by 0
  EXPECT_FALSE(ValidateExperimentInputs(config, ds).ok());

  config = OkConfig();
  config.pipeline.beta = -0.1;
  EXPECT_FALSE(ValidateExperimentInputs(config, ds).ok());

  config = OkConfig();
  config.eta = -1.0;
  EXPECT_FALSE(ValidateExperimentInputs(config, ds).ok());
}

TEST(ValidateExperimentInputsTest, RejectsEpsilonsProtocolsCannotTake) {
  // Each of these aborted or hung inside protocol construction or
  // sampling before epsilon was checked against the protocol.
  const Dataset ds = OkDataset();
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    ProtocolKind protocol;
    double epsilon;
  } bad[] = {{ProtocolKind::kGrr, inf},
             {ProtocolKind::kOue, inf},
             {ProtocolKind::kGrr, -1.0},
             {ProtocolKind::kOlh, std::nan("")},
             {ProtocolKind::kGrr, 800.0},  // e^epsilon overflows
             {ProtocolKind::kOlh, 22.2},   // g = ceil(e^eps + 1) > 2^32 - 1
             {ProtocolKind::kSue, 80.0}};  // keep probability rounds to 1
  for (const auto& c : bad) {
    auto config = OkConfig();
    config.protocol = c.protocol;
    config.epsilon = c.epsilon;
    const Status status = ValidateExperimentInputs(config, ds);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << ProtocolKindName(c.protocol) << " eps=" << c.epsilon;
    EXPECT_NE(status.message().find("epsilon"), std::string::npos);
    EXPECT_EQ(ValidateEpsilon(c.protocol, c.epsilon).code(),
              StatusCode::kInvalidArgument);
  }
  // The edges that still build a protocol.
  EXPECT_TRUE(ValidateEpsilon(ProtocolKind::kOlh, 22.1).ok());
  EXPECT_TRUE(ValidateEpsilon(ProtocolKind::kBlh, 22.2).ok());
  EXPECT_TRUE(ValidateEpsilon(ProtocolKind::kSue, 60.0).ok());
  EXPECT_TRUE(ValidateEpsilon(ProtocolKind::kGrr, 700.0).ok());
  EXPECT_NE(MakeProtocol(ProtocolKind::kSue, 4, 60.0), nullptr);
}

TEST(ValidateExperimentInputsTest, ShardPlanChecksEpsilon) {
  // The shard entry point takes epsilon from flags or the wire.
  ShardTaskSpec spec;
  spec.protocol = ProtocolKind::kOue;
  spec.epsilon = std::numeric_limits<double>::infinity();
  EXPECT_EQ(BuildShardTaskPlan(spec, OkDataset()).status().code(),
            StatusCode::kInvalidArgument);
  spec.epsilon = 0.5;
  EXPECT_TRUE(BuildShardTaskPlan(spec, OkDataset()).ok());
}

TEST(ValidateExperimentInputsTest, RejectsBadAttackShapes) {
  const Dataset ds = OkDataset();
  auto config = OkConfig();
  config.pipeline.num_targets = 0;
  EXPECT_FALSE(ValidateExperimentInputs(config, ds).ok());

  config = OkConfig();
  config.pipeline.num_targets = ds.domain_size() + 1;
  EXPECT_FALSE(ValidateExperimentInputs(config, ds).ok());

  config = OkConfig();
  config.pipeline.attack = AttackKind::kManip;
  config.pipeline.manip_domain_fraction = 1.5;
  EXPECT_FALSE(ValidateExperimentInputs(config, ds).ok());

  config = OkConfig();
  config.pipeline.attack = AttackKind::kMultiAdaptive;
  config.pipeline.num_attackers = 0;
  EXPECT_FALSE(ValidateExperimentInputs(config, ds).ok());

  // A target count that would be invalid for MGA is fine for AA,
  // which ignores it.
  config = OkConfig();
  config.pipeline.attack = AttackKind::kAdaptive;
  config.pipeline.num_targets = 0;
  EXPECT_TRUE(ValidateExperimentInputs(config, ds).ok());
}

}  // namespace
}  // namespace ldpr
