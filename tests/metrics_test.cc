#include "util/metrics.h"

#include <cmath>

#include <gtest/gtest.h>

namespace ldpr {
namespace {

TEST(MseTest, ZeroForIdenticalVectors) {
  const std::vector<double> v = {0.1, 0.2, 0.7};
  EXPECT_DOUBLE_EQ(Mse(v, v), 0.0);
}

TEST(MseTest, MatchesHandComputation) {
  // Eq. (36) with d = 2: ((0.1)^2 + (0.2)^2) / 2 = 0.025.
  EXPECT_DOUBLE_EQ(Mse({0.5, 0.5}, {0.6, 0.3}), 0.025);
}

TEST(MseTest, SymmetricInArguments) {
  const std::vector<double> a = {0.3, 0.7};
  const std::vector<double> b = {0.6, 0.4};
  EXPECT_DOUBLE_EQ(Mse(a, b), Mse(b, a));
}

TEST(DistanceTest, L1L2Linf) {
  const std::vector<double> a = {0.0, 0.0};
  const std::vector<double> b = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(L1Distance(a, b), 7.0);
  EXPECT_DOUBLE_EQ(L2Distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(LInfDistance(a, b), 4.0);
}

TEST(FrequencyGainTest, MatchesEq37) {
  const std::vector<double> genuine = {0.1, 0.2, 0.3, 0.4};
  const std::vector<double> after = {0.3, 0.2, 0.35, 0.15};
  // Targets 0 and 2: (0.3-0.1) + (0.35-0.3) = 0.25.
  EXPECT_NEAR(FrequencyGain(genuine, after, {0, 2}), 0.25, 1e-12);
}

TEST(FrequencyGainTest, NegativeWhenRecoveryOvershoots) {
  const std::vector<double> genuine = {0.5, 0.5};
  const std::vector<double> recovered = {0.4, 0.6};
  EXPECT_LT(FrequencyGain(genuine, recovered, {0}), 0.0);
}

TEST(FrequencyGainTest, EmptyTargetsIsZero) {
  EXPECT_DOUBLE_EQ(FrequencyGain({0.5, 0.5}, {0.9, 0.1}, {}), 0.0);
}

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatTest, MeanAndVariance) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of the classic dataset is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunningStatTest, SingleSampleHasZeroVariance) {
  RunningStat s;
  s.Add(3.14);
  EXPECT_DOUBLE_EQ(s.mean(), 3.14);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

}  // namespace
}  // namespace ldpr
