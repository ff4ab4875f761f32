#include "ldp/olh.h"

#include <cmath>

#include <gtest/gtest.h>

#include "test_reports.h"
#include "util/metrics.h"

namespace ldpr {
namespace {

TEST(OlhTest, DefaultGMatchesPaper) {
  // g = ceil(e^0.5 + 1) = ceil(2.6487) = 3.
  const Olh olh(100, 0.5);
  EXPECT_EQ(olh.g(), 3u);
  // g = ceil(e^1 + 1) = 4.
  EXPECT_EQ(Olh(100, 1.0).g(), 4u);
}

TEST(OlhTest, ExplicitGOverride) {
  const Olh olh(100, 0.5, /*g=*/8);
  EXPECT_EQ(olh.g(), 8u);
  EXPECT_DOUBLE_EQ(olh.q(), 1.0 / 8.0);
}

TEST(OlhTest, ProbabilitiesMatchEq9) {
  const Olh olh(100, 0.5);
  const double e = std::exp(0.5);
  const double g = olh.g();
  EXPECT_NEAR(olh.p(), e / (e + g - 1.0), 1e-12);
  EXPECT_NEAR(olh.q(), 1.0 / g, 1e-12);
  EXPECT_GT(olh.p(), olh.q());
}

TEST(OlhTest, ReportBucketInRange) {
  const Olh olh(50, 0.5);
  Rng rng(1);
  for (int i = 0; i < 300; ++i) {
    const Report r = olh.Perturb(17, rng);
    EXPECT_LT(r.value, olh.g());
  }
}

TEST(OlhTest, SupportsOwnItemWithP) {
  const Olh olh(50, 0.5);
  Rng rng(2);
  const int kTrials = 40000;
  const auto counts = GenuineSupportCounts(olh, 9, kTrials, rng);
  EXPECT_NEAR(static_cast<double>(counts[9]) / kTrials, olh.p(), 0.01);
}

TEST(OlhTest, SupportsOtherItemWithQ) {
  const Olh olh(50, 0.5);
  Rng rng(3);
  const int kTrials = 40000;
  const auto counts = GenuineSupportCounts(olh, 9, kTrials, rng);
  EXPECT_NEAR(static_cast<double>(counts[31]) / kTrials, olh.q(), 0.01);
}

TEST(OlhTest, AccumulateSupportsBatchMatchesHashPredicate) {
  // A report (seed, b) supports exactly the items v with
  // H_seed(v) == b.
  const Olh olh(30, 0.5);
  Rng rng(4);
  const Report r = olh.Perturb(5, rng);
  const std::vector<uint64_t> counts = SupportVector(olh, r);
  for (ItemId v = 0; v < 30; ++v)
    EXPECT_EQ(counts[v], olh.Hash(r.seed, v) == r.value ? 1u : 0u);
}

TEST(OlhTest, EstimationIsUnbiasedExactPath) {
  // Exact per-user simulation through the batched generation and
  // support-counting path.
  const size_t d = 12;
  const Olh olh(d, 1.0);
  Rng rng(5);
  const size_t n = 30000;
  std::vector<uint64_t> item_counts(d, 0);
  item_counts[2] = n / 3;
  item_counts[8] = 2 * n / 3;
  const std::vector<uint64_t> counts = olh.ExactSupportCounts(item_counts, rng);
  const auto freqs = olh.EstimateFrequencies(CountsToDoubles(counts), n);
  EXPECT_NEAR(freqs[2], 1.0 / 3.0, 0.03);
  EXPECT_NEAR(freqs[8], 2.0 / 3.0, 0.03);
}

TEST(OlhTest, EstimationIsUnbiasedFastPath) {
  const size_t d = 12;
  const Olh olh(d, 1.0);
  Rng rng(6);
  std::vector<uint64_t> item_counts(d, 0);
  item_counts[2] = 40000;
  item_counts[8] = 80000;
  const auto counts = olh.SampleSupportCounts(item_counts, rng);
  const auto freqs = olh.EstimateFrequencies(CountsToDoubles(counts), 120000);
  EXPECT_NEAR(freqs[2], 1.0 / 3.0, 0.02);
  EXPECT_NEAR(freqs[8], 2.0 / 3.0, 0.02);
}

TEST(OlhTest, CraftedReportAlwaysSupportsItem) {
  const Olh olh(64, 0.5);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const ItemId v = static_cast<ItemId>(rng.UniformU64(64));
    const Report r = CraftedReport(olh, v, rng);
    EXPECT_TRUE(Supports(olh, r, v));
  }
}

TEST(OlhTest, CraftedReportSupportsOthersAtRateQ) {
  // A crafted OLH report looks like a genuine one for non-chosen
  // items: it supports them at rate ~1/g.
  const Olh olh(64, 0.5);
  Rng rng(8);
  const int kTrials = 20000;
  ReportBatch batch;
  ReportBatch::Builder builder(batch);
  for (int i = 0; i < kTrials; ++i) olh.AppendCraftedReport(3, rng, builder);
  std::vector<uint64_t> counts(64, 0);
  olh.AccumulateSupportsBatch(batch, counts);
  EXPECT_EQ(counts[3], static_cast<uint64_t>(kTrials));
  EXPECT_NEAR(static_cast<double>(counts[40]) / kTrials, olh.q(), 0.015);
}

TEST(OlhTest, HashIsDeterministicPerSeed) {
  const Olh olh(100, 0.5);
  EXPECT_EQ(olh.Hash(123, 45), olh.Hash(123, 45));
}

TEST(OlhTest, CountVarianceCloseToEq10) {
  // With the default g, the generic q(1-q)/(p-q)^2 variance is within
  // a modest factor of Eq. (10)'s idealized 4e^eps/(e^eps-1)^2 (the
  // gap is the integrality of g).
  const double eps = 0.5;
  const Olh olh(100, eps);
  const double e = std::exp(eps);
  const double ideal = 1000.0 * 4.0 * e / ((e - 1.0) * (e - 1.0));
  const double actual = olh.CountVariance(0.1, 1000);
  EXPECT_GT(actual, 0.5 * ideal);
  EXPECT_LT(actual, 2.0 * ideal);
}

}  // namespace
}  // namespace ldpr
