#include "util/random.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

namespace ldpr {
namespace {

TEST(SplitMix64Test, DeterministicSequence) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64Test, DifferentSeedsDiffer) {
  SplitMix64 a(1), b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(RngTest, Deterministic) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformU64InRange) {
  Rng rng(7);
  for (uint64_t n : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, (1ULL << 40)}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.UniformU64(n), n);
  }
}

TEST(RngTest, UniformU64CoversAllValues) {
  Rng rng(11);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 2000; ++i) ++seen[rng.UniformU64(5)];
  for (int count : seen) EXPECT_GT(count, 300);  // ~400 expected
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.015);
}

TEST(RngTest, BinomialEdgeCases) {
  Rng rng(23);
  EXPECT_EQ(rng.Binomial(0, 0.5), 0u);
  EXPECT_EQ(rng.Binomial(100, 0.0), 0u);
  EXPECT_EQ(rng.Binomial(100, 1.0), 100u);
}

// Binomial mean/variance across the inversion (small np) and BTRS
// (large np) regimes, including the p > 0.5 flip path.
class BinomialMomentsTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {};

TEST_P(BinomialMomentsTest, MatchesTheoreticalMoments) {
  const auto [n, p] = GetParam();
  Rng rng(29);
  const int kSamples = 20000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = static_cast<double>(rng.Binomial(n, p));
    ASSERT_LE(x, static_cast<double>(n));
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kSamples;
  const double var = sum_sq / kSamples - mean * mean;
  const double expect_mean = static_cast<double>(n) * p;
  const double expect_var = static_cast<double>(n) * p * (1.0 - p);
  // 6-sigma tolerance on the sample mean, generous on variance.
  const double mean_tol =
      6.0 * std::sqrt(expect_var / kSamples) + 1e-9;
  EXPECT_NEAR(mean, expect_mean, mean_tol) << "n=" << n << " p=" << p;
  EXPECT_NEAR(var, expect_var, 0.12 * expect_var + 0.05)
      << "n=" << n << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, BinomialMomentsTest,
    ::testing::Values(std::make_tuple(20ULL, 0.1),      // inversion
                      std::make_tuple(50ULL, 0.5),      // BTRS boundary
                      std::make_tuple(1000ULL, 0.02),   // BTRS
                      std::make_tuple(1000ULL, 0.97),   // flip + inversion
                      std::make_tuple(100000ULL, 0.3),  // big BTRS
                      std::make_tuple(389894ULL, 0.05)));  // IPUMS scale

TEST(AliasSamplerTest, NormalizesWeights) {
  AliasSampler s({2.0, 6.0});
  EXPECT_DOUBLE_EQ(s.probability(0), 0.25);
  EXPECT_DOUBLE_EQ(s.probability(1), 0.75);
}

TEST(AliasSamplerTest, MatchesDistribution) {
  const std::vector<double> w = {0.1, 0.0, 0.4, 0.5};
  AliasSampler s(w);
  Rng rng(37);
  std::vector<int> counts(4, 0);
  const int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) ++counts[s.Sample(rng)];
  EXPECT_EQ(counts[1], 0);  // zero-weight item never drawn
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / kSamples, w[i], 0.01);
  }
}

TEST(AliasSamplerTest, SingleElement) {
  AliasSampler s(std::vector<double>{3.0});
  Rng rng(41);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(s.Sample(rng), 0u);
}

TEST(ZipfSamplerTest, ProbabilitiesDecreaseAndSumToOne) {
  ZipfSampler z(100, 1.0);
  double total = 0.0;
  for (size_t i = 0; i < z.size(); ++i) {
    total += z.probability(i);
    if (i > 0) {
      EXPECT_LT(z.probability(i), z.probability(i - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ZipfSamplerTest, HeadIsHeavy) {
  ZipfSampler z(1000, 1.2);
  Rng rng(43);
  int head = 0;
  const int kSamples = 10000;
  for (int i = 0; i < kSamples; ++i) head += (z.Sample(rng) < 10) ? 1 : 0;
  // With s=1.2 the top-10 mass is > 55%.
  EXPECT_GT(head, kSamples / 2);
}

TEST(SampleMultinomialTest, ConservesTotal) {
  Rng rng(47);
  const std::vector<double> w = {1.0, 2.0, 3.0, 4.0};
  for (uint64_t n : {0ULL, 1ULL, 10ULL, 12345ULL}) {
    const auto counts = SampleMultinomial(n, w, rng);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0ULL), n);
  }
}

TEST(SampleMultinomialTest, MatchesProportions) {
  Rng rng(53);
  const std::vector<double> w = {1.0, 3.0};
  const auto counts = SampleMultinomial(100000, w, rng);
  EXPECT_NEAR(static_cast<double>(counts[0]) / 100000.0, 0.25, 0.01);
}

TEST(SampleMultinomialTest, ZeroWeightBinGetsNothing) {
  Rng rng(59);
  const auto counts = SampleMultinomial(10000, {1.0, 0.0, 1.0}, rng);
  EXPECT_EQ(counts[1], 0ULL);
}

TEST(SampleRandomDistributionTest, IsProbabilityVector) {
  Rng rng(61);
  for (int i = 0; i < 20; ++i) {
    const auto p = SampleRandomDistribution(50, rng);
    double total = 0.0;
    for (double x : p) {
      EXPECT_GT(x, 0.0);
      total += x;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(SampleRandomDistributionTest, MeanIsUniform) {
  Rng rng(67);
  const size_t d = 10;
  std::vector<double> mean(d, 0.0);
  const int kDraws = 5000;
  for (int i = 0; i < kDraws; ++i) {
    const auto p = SampleRandomDistribution(d, rng);
    for (size_t v = 0; v < d; ++v) mean[v] += p[v];
  }
  for (size_t v = 0; v < d; ++v) EXPECT_NEAR(mean[v] / kDraws, 0.1, 0.01);
}

TEST(SampleWithoutReplacementTest, DistinctAndInRange) {
  Rng rng(71);
  const auto pick = SampleWithoutReplacement(100, 30, rng);
  EXPECT_EQ(pick.size(), 30u);
  std::vector<uint32_t> sorted = pick;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (uint32_t v : pick) EXPECT_LT(v, 100u);
}

TEST(SampleWithoutReplacementTest, FullDomainIsPermutation) {
  Rng rng(73);
  auto pick = SampleWithoutReplacement(10, 10, rng);
  std::sort(pick.begin(), pick.end());
  for (uint32_t i = 0; i < 10; ++i) EXPECT_EQ(pick[i], i);
}

}  // namespace
}  // namespace ldpr
