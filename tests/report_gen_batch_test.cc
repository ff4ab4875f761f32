// Locks in the batched *generation* contract of this layer:
//
//  * ExactSupportCounts' flush buffer is invisible: it equals one
//    SampleReportsBatch batch counted in one pass, and leaves the Rng
//    at the same stream position (that generation draws the
//    historical stream is pinned end to end by the ldpr_diff_roundtrip
//    ctest against ci/baseline);
//  * batch sizes straddling the kBatchFlushReports and
//    kReportsPerAggregationShard boundaries (8191/8192/8193) agree
//    across the unsharded and sharded aggregation routes;
//  * every SIMD kernel is bit-equal to its scalar reference on every
//    backend the running machine offers (SetSimdBackendForTest);
//  * the exact-arithmetic building blocks (FastMod, the split 8-byte
//    xxHash) match their generic counterparts on extreme inputs.

#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "attack/mga.h"
#include "ldp/factory.h"
#include "ldp/protocol.h"
#include "ldp/report_batch.h"
#include "util/hash_family.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/xxhash.h"

namespace ldpr {
namespace {

// A small synthetic population histogram with empty and heavy rows.
std::vector<uint64_t> MakeItemCounts(size_t d, uint64_t total) {
  std::vector<uint64_t> counts(d, 0);
  Rng rng(total + d);
  for (uint64_t u = 0; u < total; ++u)
    ++counts[static_cast<size_t>(rng.UniformU64(d))];
  counts[0] = 0;  // ensure an empty row
  return counts;
}

TEST(ReportGenBatchTest, ExactSupportCountsMatchesOneBatch) {
  // 9000 users cross two kBatchFlushReports flushes.
  for (ProtocolKind kind : kExtendedProtocolKinds) {
    const auto proto = MakeProtocol(kind, /*d=*/23, /*epsilon=*/0.8);
    const std::vector<uint64_t> item_counts = MakeItemCounts(23, 9000);

    Rng batch_rng(7), flush_rng(7);
    ReportBatch batch;
    ReportBatch::Builder builder(batch);
    proto->SampleReportsBatch(item_counts, batch_rng, builder);
    std::vector<uint64_t> reference(proto->domain_size(), 0);
    proto->AccumulateSupportsBatch(batch, reference);

    EXPECT_EQ(proto->ExactSupportCounts(item_counts, flush_rng), reference)
        << ProtocolKindName(kind);
    EXPECT_EQ(batch_rng.Next(), flush_rng.Next()) << ProtocolKindName(kind);
  }
}

TEST(ReportGenBatchTest, BuilderBatchesAgreeAcrossShardChunkBoundaries) {
  // 8191/8192/8193 straddle both kReportsPerAggregationShard (8192)
  // and multiples of kBatchFlushReports (4096).
  static_assert(kReportsPerAggregationShard == 8192,
                "sizes below straddle the shard chunk size");
  for (ProtocolKind kind : {ProtocolKind::kGrr, ProtocolKind::kOue,
                            ProtocolKind::kOlh}) {
    const auto proto = MakeProtocol(kind, /*d=*/19, /*epsilon=*/1.0);
    for (size_t m : {size_t{8191}, size_t{8192}, size_t{8193}}) {
      Rng rng(m);
      const MgaAttack mga(MgaAttack::SampleTargets(19, 4, rng));
      ReportBatch batch;
      ReportBatch::Builder builder(batch);
      mga.CraftBatch(*proto, m, rng, builder);

      Aggregator unsharded(*proto);
      unsharded.AddAll(batch);
      for (size_t shards : {size_t{1}, size_t{3}}) {
        Aggregator sharded(*proto);
        sharded.AddAllSharded(batch, shards);
        EXPECT_EQ(sharded.counts(), unsharded.counts())
            << ProtocolKindName(kind) << " m=" << m << " shards=" << shards;
        EXPECT_EQ(sharded.report_count(), m);
      }
    }
  }
}

// ------------------------------------------------------------------
// SIMD kernels: every backend available on this machine must be
// bit-equal to the scalar reference on every kernel.

std::vector<SimdBackend> TestableBackends() {
  std::vector<SimdBackend> backends = {SimdBackend::kScalar};
  // ActiveSimdBackend() only reports backends the machine supports,
  // so it is always safe to pin.
  if (ActiveSimdBackend() != SimdBackend::kScalar)
    backends.push_back(ActiveSimdBackend());
  return backends;
}

class ScopedBackend {
 public:
  explicit ScopedBackend(SimdBackend backend) {
    SetSimdBackendForTest(backend);
  }
  ~ScopedBackend() { ClearSimdBackendForTest(); }
};

TEST(SimdKernelTest, UnaryColumnsMatchScalarAcrossBackends) {
  Rng rng(101);
  for (size_t d : {size_t{7}, size_t{64}, size_t{100}}) {
    // Sizes around the 255-row byte-lane sub-tile and vector widths.
    for (size_t n : {size_t{0}, size_t{1}, size_t{254}, size_t{255},
                     size_t{256}, size_t{1000}}) {
      std::vector<uint8_t> rows(n * d);
      for (uint8_t& b : rows) b = rng.Bernoulli(0.3) ? 1 : 0;

      std::vector<uint64_t> reference(d, 5);  // nonzero carry-in
      {
        ScopedBackend scalar(SimdBackend::kScalar);
        SimdUnaryColumnsAddPacked(rows.data(), n, d, reference.data());
      }
      for (SimdBackend backend : TestableBackends()) {
        ScopedBackend scoped(backend);
        std::vector<uint64_t> packed(d, 5);
        SimdUnaryColumnsAddPacked(rows.data(), n, d, packed.data());
        EXPECT_EQ(packed, reference)
            << SimdBackendName(backend) << " n=" << n << " d=" << d;
      }
    }
  }
}

TEST(SimdKernelTest, ValueHistogramMatchesScalarAcrossBackends) {
  Rng rng(202);
  const size_t d = 50;
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5},
                   size_t{10007}}) {
    std::vector<uint32_t> values(n);
    for (uint32_t& v : values) v = static_cast<uint32_t>(rng.UniformU64(d));
    std::vector<uint64_t> reference(d, 2);  // nonzero carry-in
    {
      ScopedBackend scalar(SimdBackend::kScalar);
      SimdValueHistogramAdd(values.data(), n, d, reference.data());
    }
    for (SimdBackend backend : TestableBackends()) {
      ScopedBackend scoped(backend);
      std::vector<uint64_t> hist(d, 2);
      SimdValueHistogramAdd(values.data(), n, d, hist.data());
      EXPECT_EQ(hist, reference) << SimdBackendName(backend) << " n=" << n;
    }
  }
}

TEST(SimdKernelTest, OlhSupportMatchesScalarAcrossBackends) {
  Rng rng(303);
  const size_t d = 33;
  for (uint32_t g : {2u, 4u, 3u, 7u}) {  // pow2 and non-pow2 ranges
    for (size_t n : {size_t{0}, size_t{1}, size_t{255}, size_t{256},
                     size_t{257}, size_t{1000}}) {
      std::vector<uint64_t> seeds(n);
      std::vector<uint32_t> values(n);
      for (size_t i = 0; i < n; ++i) {
        seeds[i] = rng.Next();
        values[i] = static_cast<uint32_t>(rng.UniformU64(g));
      }
      std::vector<uint64_t> reference(d, 1);  // nonzero carry-in
      {
        ScopedBackend scalar(SimdBackend::kScalar);
        SimdOlhSupportAdd(seeds.data(), values.data(), n, d, g,
                          reference.data());
      }
      for (SimdBackend backend : TestableBackends()) {
        ScopedBackend scoped(backend);
        std::vector<uint64_t> counts(d, 1);
        SimdOlhSupportAdd(seeds.data(), values.data(), n, d, g, counts.data());
        EXPECT_EQ(counts, reference)
            << SimdBackendName(backend) << " g=" << g << " n=" << n;
      }
    }
  }
}

// ------------------------------------------------------------------
// Exact-arithmetic building blocks.

TEST(FastModTest, MatchesModuloOnExtremesAndRandomInputs) {
  Rng rng(404);
  const uint64_t max64 = ~uint64_t{0};
  for (uint64_t g : {uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{4},
                     uint64_t{5}, uint64_t{7}, uint64_t{8}, uint64_t{1023},
                     uint64_t{1024}, uint64_t{1} << 31,
                     (uint64_t{1} << 31) + 1, (uint64_t{1} << 63) - 25,
                     uint64_t{1} << 63, max64}) {
    const FastMod mod(g);
    EXPECT_EQ(mod.divisor(), g);
    for (uint64_t x : {uint64_t{0}, uint64_t{1}, g - 1, g, g + 1, max64 - 1,
                       max64}) {
      EXPECT_EQ(mod(x), x % g) << "g=" << g << " x=" << x;
    }
    for (int i = 0; i < 1000; ++i) {
      const uint64_t x = rng.Next();
      EXPECT_EQ(mod(x), x % g) << "g=" << g << " x=" << x;
    }
  }
}

TEST(XxHash64Key8Test, MatchesGeneralPath) {
  Rng rng(505);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t key = (i < 4) ? uint64_t(i) : rng.Next();
    const uint64_t seed = (i % 3 == 0) ? 0 : rng.Next();
    const uint64_t expected = XxHash64(&key, sizeof(key), seed);
    EXPECT_EQ(XxHash64Key8(key, seed), expected);
    EXPECT_EQ(XxHash64(key, seed), expected);
    EXPECT_EQ(XxHash64Key8WithRound0(XxHash64Round0(key),
                                     XxHash64SeedAcc(seed)),
              expected);
  }
}

}  // namespace
}  // namespace ldpr
