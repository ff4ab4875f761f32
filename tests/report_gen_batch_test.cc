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
//  * the exact-arithmetic building blocks (FastMod, FastModEquals,
//    the split 8-byte xxHash) match their generic counterparts on
//    extreme inputs.

#include <cstddef>
#include <cstdint>
#include <utility>
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
  std::vector<SimdBackend> backends;
  for (SimdBackend backend :
       {SimdBackend::kScalar, SimdBackend::kSse2, SimdBackend::kAvx2,
        SimdBackend::kAvx512, SimdBackend::kNeon}) {
    if (SimdBackendAvailable(backend)) backends.push_back(backend);
  }
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

// Adds OLH supports of n random reports over d items on `backend`,
// starting from a carry-in of 1 per item.
std::vector<uint64_t> OlhSupportOn(SimdBackend backend,
                                   const std::vector<uint64_t>& seeds,
                                   const std::vector<uint32_t>& values,
                                   size_t d, uint32_t g) {
  ScopedBackend scoped(backend);
  std::vector<uint64_t> counts(d, 1);
  SimdOlhSupportAdd(seeds.data(), values.data(), seeds.size(), d, g,
                    counts.data());
  return counts;
}

TEST(SimdKernelTest, OlhSupportMatchesScalarAcrossBackends) {
  Rng rng(303);
  // Powers of two, eps-0.5 OLH (g = 3), Fire-sized BLH-style ranges
  // and a range past every 32-bit shortcut; item counts of the unit
  // test, IPUMS and Fire; sizes around the 8-lane vector and the
  // 256-report tile.
  for (uint32_t g : {2u, 3u, 4u, 7u, 56u, 1000003u}) {
    for (size_t d : {size_t{33}, size_t{102}, size_t{490}}) {
      for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                       size_t{255}, size_t{256}, size_t{257}, size_t{1000}}) {
        std::vector<uint64_t> seeds(n);
        std::vector<uint32_t> values(n);
        for (size_t i = 0; i < n; ++i) {
          seeds[i] = rng.Next();
          values[i] = static_cast<uint32_t>(rng.UniformU64(g));
        }
        const std::vector<uint64_t> reference =
            OlhSupportOn(SimdBackend::kScalar, seeds, values, d, g);
        for (SimdBackend backend : TestableBackends()) {
          EXPECT_EQ(OlhSupportOn(backend, seeds, values, d, g), reference)
              << SimdBackendName(backend) << " g=" << g << " d=" << d
              << " n=" << n;
        }
      }
    }
  }
}

TEST(SimdKernelTest, OlhSupportAvx512MatchesScalar) {
  if (!SimdBackendAvailable(SimdBackend::kAvx512))
    GTEST_SKIP() << "no avx512f/dq on this host";
  Rng rng(606);
  const size_t d = 61;
  for (uint32_t g : {2u, 3u, 6u, 7u, 12u, 1000003u}) {
    // Reports that hash to every item and reports whose value is out
    // of range (>= g, which no hash matches) next to random ones.
    const size_t n = 8 * 37 + 5;
    std::vector<uint64_t> seeds(n);
    std::vector<uint32_t> values(n);
    for (size_t i = 0; i < n; ++i) {
      seeds[i] = rng.Next();
      switch (i % 3) {
        case 0:
          values[i] = SeededHash(seeds[i], g)(i % d);
          break;
        case 1:
          values[i] = g + static_cast<uint32_t>(i % 2);
          break;
        default:
          values[i] = static_cast<uint32_t>(rng.UniformU64(g));
      }
    }
    EXPECT_EQ(OlhSupportOn(SimdBackend::kAvx512, seeds, values, d, g),
              OlhSupportOn(SimdBackend::kScalar, seeds, values, d, g))
        << "g=" << g;
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

// Ranges from 1 through the largest OLH range (2^32 - 1).
const std::vector<uint64_t> kModEqualsRanges = {
    1, 2, 3, 4, 6, 7, 12, 56, 1024, 1000003, uint64_t{1} << 31,
    (uint64_t{1} << 31) + 1, (uint64_t{1} << 32) - 1};

// (h, v) pairs where random hashes never land: values in range at
// both ends and out of range just past it, against hashes below, at
// and just past v and g, and at the top of the 64-bit range.
std::vector<std::pair<uint64_t, uint64_t>> ModEqualsEdges(uint64_t g) {
  const uint64_t max64 = ~uint64_t{0};
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (uint64_t v : {uint64_t{0}, g - 1, g, g + 1}) {
    for (uint64_t h : {uint64_t{0}, v - 1, v, v + 1, g - 1, g, g + v,
                       max64 - g, max64 - g + 1, max64 - 1, max64}) {
      edges.emplace_back(h, v);
    }
  }
  return edges;
}

TEST(FastModEqualsTest, MatchesModuloOnEdgesAndRandomInputs) {
  Rng rng(707);
  for (uint64_t g : kModEqualsRanges) {
    const FastModEquals match(g);
    EXPECT_EQ(match.divisor(), g);
    for (const auto& [h, v] : ModEqualsEdges(g)) {
      EXPECT_EQ(match(h, v), h % g == v)
          << "g=" << g << " h=" << h << " v=" << v;
    }
    for (int i = 0; i < 1000; ++i) {
      const uint64_t h = rng.Next();
      const uint64_t v = rng.UniformU64(g);
      EXPECT_EQ(match(h, v), h % g == v) << "g=" << g << " h=" << h;
      EXPECT_TRUE(match(h, h % g)) << "g=" << g << " h=" << h;
      const uint64_t q = rng.Next() / g;  // any q with q * g < 2^64
      EXPECT_TRUE(match.Divides(q * g)) << "g=" << g << " q=" << q;
    }
  }
}

TEST(FastModEqualsTest, Avx512LanesMatchModuloOnEdges) {
  if (!SimdBackendAvailable(SimdBackend::kAvx512))
    GTEST_SKIP() << "no avx512f/dq on this host";
  for (uint64_t g : kModEqualsRanges) {
    const auto edges = ModEqualsEdges(g);
    for (size_t base = 0; base < edges.size(); base += 8) {
      uint64_t h[8] = {}, v[8] = {};
      uint8_t expected = 0;
      for (size_t lane = 0; lane < 8; ++lane) {
        const auto& edge = edges[(base + lane) % edges.size()];
        h[lane] = edge.first;
        v[lane] = edge.second;
        if (h[lane] % g == v[lane]) expected |= static_cast<uint8_t>(1u << lane);
      }
      EXPECT_EQ(SimdModEqualsAvx512ForTest(h, v, static_cast<uint32_t>(g)),
                expected)
          << "g=" << g << " edges from " << base;
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
