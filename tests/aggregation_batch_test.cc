// Locks in the batched-aggregation contract of ldp/report_batch.h:
// support counts are integer sums, so they agree byte for byte across
// the GRR kernel's dense and sparse regimes and across the sharded and
// unsharded Aggregator routes at batch sizes straddling the
// kReportsPerAggregationShard chunk boundary; plus the ReportBatch
// container itself (the AoS conversion, Clear reuse, bit-width
// homogeneity, geometric capacity growth).

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "attack/mga.h"
#include "ldp/factory.h"
#include "ldp/protocol.h"
#include "ldp/report_batch.h"
#include "util/random.h"

namespace ldpr {
namespace {

// A mixed report batch: MGA-crafted reports plus genuine perturbed
// ones (the report-heavy hot path the batch layer exists for).
ReportBatch MakeReports(const FrequencyProtocol& proto, size_t n,
                        uint64_t seed) {
  Rng rng(seed);
  ReportBatch reports;
  ReportBatch::Builder builder(reports);
  const size_t crafted = n / 3;
  if (crafted > 0) {
    const MgaAttack mga(MgaAttack::SampleTargets(proto.domain_size(),
                                                 /*r=*/5, rng));
    mga.CraftBatch(proto, crafted, rng, builder);
  }
  for (size_t i = reports.size(); i < n; ++i) {
    proto.AppendGenuineReports(static_cast<ItemId>(i % proto.domain_size()),
                               1, rng, builder);
  }
  return reports;
}

// GRR support is the reported value: the reference is a plain value
// histogram.
std::vector<uint64_t> GrrValueHistogram(const ReportBatch& reports, size_t d) {
  std::vector<uint64_t> counts(d, 0);
  for (size_t i = 0; i < reports.size(); ++i) counts[reports.values()[i]] += 1;
  return counts;
}

TEST(AggregationBatchTest, GrrDenseAndSparseRegimesAgree) {
  // d chosen so n=300 takes the histogram branch and n=20 the direct
  // branch (n < d/4); both must count exactly the reported values.
  const auto grr = MakeProtocol(ProtocolKind::kGrr, 128, 0.5);
  for (size_t n : {size_t{20}, size_t{300}}) {
    const ReportBatch reports = MakeReports(*grr, n, 3);
    std::vector<uint64_t> batched(grr->domain_size(), 0);
    grr->AccumulateSupportsBatch(reports, batched);
    EXPECT_EQ(batched, GrrValueHistogram(reports, grr->domain_size())) << n;
  }
}

TEST(AggregationBatchTest, AggregatorRoutesMatchAtChunkBoundaries) {
  // Sizes straddling the kReportsPerAggregationShard boundary, odd on
  // purpose, across sharded and unsharded routes.
  const size_t chunk = kReportsPerAggregationShard;
  const auto proto = MakeProtocol(ProtocolKind::kGrr, 23, 1.0);
  for (size_t n : {chunk - 1, chunk, chunk + 1, 2 * chunk + 13}) {
    const ReportBatch reports = MakeReports(*proto, n, n);
    const std::vector<uint64_t> reference = GrrValueHistogram(reports, 23);

    Aggregator unsharded(*proto);
    unsharded.AddAll(reports);
    EXPECT_EQ(unsharded.counts(), reference) << "AddAll n=" << n;
    EXPECT_EQ(unsharded.report_count(), n);

    for (size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
      Aggregator sharded(*proto);
      sharded.AddAllSharded(reports, shards);
      EXPECT_EQ(sharded.counts(), reference)
          << "AddAllSharded n=" << n << " shards=" << shards;
      EXPECT_EQ(sharded.report_count(), n);
    }
  }
}

TEST(AggregationBatchTest, ShardedMatchesUnshardedForSupportSetProtocols) {
  // Every factory protocol crosses the chunk boundary.
  const size_t chunk = kReportsPerAggregationShard;
  for (ProtocolKind kind : kExtendedProtocolKinds) {
    const auto proto = MakeProtocol(kind, 16, 1.0);
    const size_t n = chunk + 37;
    const ReportBatch reports = MakeReports(*proto, n, 7);
    Aggregator all(*proto);
    all.AddAll(reports);
    Aggregator sharded(*proto);
    sharded.AddAllSharded(reports, 3);
    EXPECT_EQ(all.counts(), sharded.counts())
        << ProtocolKindName(kind);
  }
}

TEST(ReportBatchTest, ExtractReportRoundTrips) {
  const auto oue = MakeProtocol(ProtocolKind::kOue, 9, 1.0);
  Rng rng(4);
  std::vector<Report> reports;
  for (ItemId v = 0; v < 9; ++v) reports.push_back(oue->Perturb(v, rng));
  const ReportBatch batch(reports);
  ASSERT_EQ(batch.size(), reports.size());
  EXPECT_EQ(batch.bits_width(), 9u);
  Report scratch;
  for (size_t i = 0; i < reports.size(); ++i) {
    batch.ExtractReport(i, scratch);
    EXPECT_EQ(scratch.seed, reports[i].seed);
    EXPECT_EQ(scratch.value, reports[i].value);
    EXPECT_EQ(scratch.bits, reports[i].bits);
  }
}

TEST(ReportBatchTest, ClearReusesAsFlushBuffer) {
  const auto grr = MakeProtocol(ProtocolKind::kGrr, 6, 1.0);
  const auto oue = MakeProtocol(ProtocolKind::kOue, 6, 1.0);
  Rng rng(8);
  const ReportBatch grr_rows(std::vector<Report>{grr->Perturb(2, rng)});
  const ReportBatch oue_rows(std::vector<Report>{oue->Perturb(3, rng)});
  ReportBatch batch;
  batch.AppendFrom(grr_rows, 0);
  EXPECT_EQ(batch.size(), 1u);
  batch.Clear();
  EXPECT_TRUE(batch.empty());
  batch.AppendFrom(oue_rows, 0);  // width re-learned after Clear
  EXPECT_EQ(batch.bits_width(), 6u);
}

TEST(ReportBatchDeathTest, RejectsMixedBitWidths) {
  Report with_bits;
  with_bits.bits.assign(4, 0);
  Report without_bits;
  Report wrong_width;
  wrong_width.bits.assign(5, 0);
  EXPECT_DEATH(ReportBatch(std::vector<Report>{with_bits, without_bits}),
               "LDPR_CHECK");
  EXPECT_DEATH(ReportBatch(std::vector<Report>{with_bits, wrong_width}),
               "LDPR_CHECK");
}

// Producers that append one report at a time (input poisoning, the
// arrival stream, Perturb) must not reallocate per append: capacity
// grows geometrically, so m single-row appends move the field arrays
// O(log m) times.
TEST(ReportBatchTest, SingleRowAppendsReallocateLogarithmically) {
  constexpr size_t kRows = 4096;
  constexpr size_t kMaxMoves = 12 + 2;  // ceil(log2 4096) + 2
  for (ProtocolKind kind :
       {ProtocolKind::kGrr, ProtocolKind::kOlh, ProtocolKind::kOue}) {
    const auto proto = MakeProtocol(kind, 64, 1.0);
    Rng rng(10);
    ReportBatch batch;
    ReportBatch::Builder builder(batch);
    const void* last_seeds = nullptr;
    const void* last_bits = nullptr;
    size_t seed_moves = 0, bit_moves = 0;
    for (size_t i = 0; i < kRows; ++i) {
      proto->AppendGenuineReports(static_cast<ItemId>(i % 64), 1, rng,
                                  builder);
      if (batch.seeds() != last_seeds) ++seed_moves;
      last_seeds = batch.seeds();
      if (batch.bits_width() > 0) {
        if (batch.bits() != last_bits) ++bit_moves;
        last_bits = batch.bits();
      }
    }
    EXPECT_LE(seed_moves, kMaxMoves) << ProtocolKindName(kind);
    EXPECT_LE(bit_moves, kMaxMoves) << ProtocolKindName(kind);
  }
}

}  // namespace
}  // namespace ldpr
