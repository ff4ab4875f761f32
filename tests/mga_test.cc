#include "attack/mga.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "ldp/grr.h"
#include "ldp/olh.h"
#include "ldp/oue.h"
#include "test_reports.h"
#include "util/metrics.h"

namespace ldpr {
namespace {

TEST(MgaTest, SampleTargetsDistinctInRange) {
  Rng rng(1);
  const auto targets = MgaAttack::SampleTargets(102, 10, rng);
  EXPECT_EQ(targets.size(), 10u);
  std::set<ItemId> unique(targets.begin(), targets.end());
  EXPECT_EQ(unique.size(), 10u);
  for (ItemId t : targets) EXPECT_LT(t, 102u);
}

TEST(MgaTest, ExposesTargets) {
  const MgaAttack attack({3, 7});
  const auto t = attack.targets();
  EXPECT_EQ(t.size(), 2u);
}

TEST(MgaTest, GrrReportsAreAllTargets) {
  const Grr grr(50, 0.5);
  const MgaAttack attack({5, 10, 15});
  Rng rng(2);
  std::set<uint32_t> seen;
  for (const Report& r : attack.Craft(grr, 600, rng)) {
    EXPECT_TRUE(r.value == 5 || r.value == 10 || r.value == 15);
    seen.insert(r.value);
  }
  EXPECT_EQ(seen.size(), 3u);  // uniform over targets covers all
}

TEST(MgaTest, OueReportsSetAllTargetBits) {
  const Oue oue(100, 0.5);
  const std::vector<ItemId> targets = {1, 50, 99};
  const MgaAttack attack(targets);
  Rng rng(3);
  for (const Report& r : attack.Craft(oue, 40, rng)) {
    for (ItemId t : targets) EXPECT_EQ(r.bits[t], 1);
  }
}

TEST(MgaTest, OuePaddingMatchesExpectedOnes) {
  const size_t d = 200;
  const Oue oue(d, 0.5);
  const MgaAttack attack({0, 1, 2});  // 3 targets << expected ones
  Rng rng(4);
  const size_t expected =
      static_cast<size_t>(std::llround(oue.ExpectedOnes()));
  for (const Report& r : attack.Craft(oue, 20, rng)) {
    size_t ones = 0;
    for (uint8_t b : r.bits) ones += b;
    EXPECT_EQ(ones, expected);
  }
}

TEST(MgaTest, OueNoPaddingKeepsExactlyTargets) {
  const Oue oue(200, 0.5);
  MgaOptions opts;
  opts.pad_oue = false;
  const MgaAttack attack({0, 1, 2}, opts);
  Rng rng(5);
  for (const Report& r : attack.Craft(oue, 20, rng)) {
    size_t ones = 0;
    for (uint8_t b : r.bits) ones += b;
    EXPECT_EQ(ones, 3u);
  }
}

TEST(MgaTest, OlhReportsSupportManyTargets) {
  const Olh olh(102, 0.5);  // g = 3
  Rng rng(6);
  const auto targets = MgaAttack::SampleTargets(102, 10, rng);
  const MgaAttack attack(targets);
  double total_supported = 0.0;
  const size_t m = 50;
  for (const Report& r : attack.Craft(olh, m, rng)) {
    size_t supported = 0;
    for (ItemId t : targets) supported += Supports(olh, r, t) ? 1 : 0;
    EXPECT_GE(supported, 1u);
    total_supported += static_cast<double>(supported);
  }
  // Seed search should beat the genuine rate (p for one target +
  // q for the rest ~= r/g on average); require clearly more than r/g.
  const double baseline = 10.0 / olh.g();
  EXPECT_GT(total_supported / static_cast<double>(m), baseline * 1.1);
}

TEST(MgaTest, InflatesTargetFrequencies) {
  // End-to-end sanity: MGA lifts target estimates well above truth.
  const size_t d = 60;
  const Oue oue(d, 0.5);
  Rng rng(7);
  const size_t n = 40000, m = 2000;
  std::vector<uint64_t> item_counts(d, n / d);

  const std::vector<ItemId> targets = {11, 22, 33};
  const MgaAttack attack(targets);

  auto counts = oue.SampleSupportCounts(item_counts, rng);
  const auto genuine = oue.EstimateFrequencies(CountsToDoubles(counts), n);
  oue.AccumulateSupportsBatch(attack.Craft(oue, m, rng), counts);
  const auto poisoned = oue.EstimateFrequencies(CountsToDoubles(counts), n + m);

  const double fg = FrequencyGain(genuine, poisoned, targets);
  // Each fake OUE user contributes gain ~1/((p-q)(n+m)) per target;
  // with m=2000 the total gain is substantial.
  EXPECT_GT(fg, 0.05);
}

// The OLH bucket choice as MGA made it with a g-sized hit array per
// seed try: histogram the targets' buckets, take the first maximum
// (the smallest bucket on ties).  Kept as the reference the
// target-only selection must reproduce report for report.
ReportBatch CraftOlhWithBucketArray(const Olh& olh,
                                    const std::vector<ItemId>& targets,
                                    size_t m, size_t seed_tries, Rng& rng) {
  ReportBatch batch;
  ReportBatch::Builder builder(batch);
  std::vector<uint32_t> bucket_hits(olh.g());
  for (size_t i = 0; i < m; ++i) {
    uint64_t best_seed = 0;
    uint32_t best_value = 0;
    size_t best_hits = 0;
    for (size_t attempt = 0; attempt < seed_tries; ++attempt) {
      const uint64_t seed = rng.Next();
      std::fill(bucket_hits.begin(), bucket_hits.end(), 0u);
      for (ItemId t : targets) ++bucket_hits[olh.Hash(seed, t)];
      const auto it = std::max_element(bucket_hits.begin(), bucket_hits.end());
      if (*it > best_hits) {
        best_hits = *it;
        best_seed = seed;
        best_value = static_cast<uint32_t>(it - bucket_hits.begin());
        if (best_hits == targets.size()) break;
      }
    }
    builder.AddSeedValue(best_seed, best_value);
  }
  return batch;
}

TEST(MgaTest, OlhBucketChoiceMatchesBucketArrayReference) {
  // g = 3, 8, 56: ties between buckets are common, so the tie rule
  // is exercised along with the maximum.
  for (double epsilon : {0.5, 2.0, 4.0}) {
    const Olh olh(200, epsilon);
    Rng target_rng(12);
    const auto targets = MgaAttack::SampleTargets(200, 10, target_rng);
    const MgaAttack attack(targets);
    const size_t m = 500;
    Rng rng(13), reference_rng(13);
    ReportBatch crafted;
    ReportBatch::Builder builder(crafted);
    attack.CraftBatch(olh, m, rng, builder);
    const ReportBatch reference = CraftOlhWithBucketArray(
        olh, targets, m, MgaOptions().olh_seed_tries, reference_rng);
    ASSERT_EQ(crafted.size(), m);
    for (size_t i = 0; i < m; ++i) {
      EXPECT_EQ(crafted.seeds()[i], reference.seeds()[i])
          << "eps=" << epsilon << " report " << i;
      EXPECT_EQ(crafted.values()[i], reference.values()[i])
          << "eps=" << epsilon << " report " << i;
    }
    EXPECT_EQ(rng.Next(), reference_rng.Next()) << "eps=" << epsilon;
  }
}

TEST(MgaTest, OlhAtLargeEpsilonCostsNothingPerBucket) {
  // eps = 20 gives g = 485,165,197: a per-try hit array over all g
  // buckets would be ~1.9 GB.  Selection over the r targets only
  // makes this as cheap as any other epsilon.
  const Olh olh(64, 20.0);
  ASSERT_GT(olh.g(), 400000000u);
  Rng rng(14);
  const auto targets = MgaAttack::SampleTargets(64, 10, rng);
  const MgaAttack attack(targets);
  const size_t m = 1000;
  ReportBatch crafted;
  ReportBatch::Builder builder(crafted);
  attack.CraftBatch(olh, m, rng, builder);
  ASSERT_EQ(crafted.size(), m);
  for (size_t i = 0; i < m; ++i) {
    size_t supported = 0;
    for (ItemId t : targets)
      supported += olh.Hash(crafted.seeds()[i], t) == crafted.values()[i];
    EXPECT_GE(supported, 1u) << i;
  }
}

TEST(MgaDeathTest, RejectsEmptyTargets) {
  EXPECT_DEATH(MgaAttack({}), "LDPR_CHECK");
}

}  // namespace
}  // namespace ldpr
