// Randomized window-boundary stress: a fixed corpus of derived seeds
// (no wall-clock randomness) drives pseudo-random stream shapes —
// total / window / stride / protocol / attack schedule — and every
// shape must uphold the streaming invariants: per-window support
// counts sum byte-exactly to the stream totals, the stream totals
// equal the batch aggregator on the replayed reports, every report is
// covered by the tumbling partition, and the flush buffer never
// exceeds its slack.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "ldp/factory.h"
#include "stream/streaming_engine.h"
#include "util/random.h"

namespace ldpr {
namespace {

constexpr uint64_t kCorpusSeed = 0xC0FFEE5EEDULL;
constexpr size_t kCorpusSize = 24;

struct FuzzCase {
  ProtocolKind kind;
  StreamSpec spec;
  uint64_t stream_seed;
  size_t shards;
};

// Derives one stream shape from a corpus seed.  All draws go through
// Rng(seed): re-running the corpus is bit-reproducible.
FuzzCase MakeCase(uint64_t seed) {
  Rng rng(seed);
  FuzzCase fuzz;
  fuzz.kind = kExtendedProtocolKinds[rng.UniformU64(
      std::size(kExtendedProtocolKinds))];

  StreamSpec& spec = fuzz.spec;
  // Totals straddle the 4096 flush and 8192 shard edges: a base size
  // plus a +/-2 jitter around the power-of-two boundaries.
  const size_t kEdges[] = {100, 1000, 4096, 8192};
  const size_t edge = kEdges[rng.UniformU64(std::size(kEdges))];
  spec.total_reports = edge + rng.UniformU64(5) - 2;

  // Window size anywhere from one report to the whole stream; stride
  // a random divisor of the window (0 = tumbling).
  spec.window_reports = 1 + rng.UniformU64(spec.total_reports);
  if (rng.Bernoulli(0.5)) {
    std::vector<size_t> divisors;
    for (size_t s = 1; s * s <= spec.window_reports; ++s) {
      if (spec.window_reports % s == 0) {
        divisors.push_back(s);
        divisors.push_back(spec.window_reports / s);
      }
    }
    spec.stride_reports = divisors[rng.UniformU64(divisors.size())];
  }

  const size_t d = 8 + rng.UniformU64(57);  // 8..64
  spec.item_counts.resize(d);
  for (size_t v = 0; v < d; ++v) spec.item_counts[v] = 1 + rng.UniformU64(50);

  switch (rng.UniformU64(4)) {
    case 0:
      spec.wave = WaveShape::kNone;
      break;
    case 1:
      spec.wave = WaveShape::kConstant;
      spec.attacker_fraction = 0.3 * rng.UniformDouble();
      break;
    case 2: {
      spec.wave = WaveShape::kWave;
      spec.attacker_fraction = 0.05 + 0.3 * rng.UniformDouble();
      spec.wave_start = rng.UniformU64(spec.total_reports);
      spec.wave_end =
          spec.wave_start +
          rng.UniformU64(spec.total_reports - spec.wave_start + 1);
      break;
    }
    default:
      spec.wave = WaveShape::kRamp;
      spec.attacker_fraction = 0.05 + 0.3 * rng.UniformDouble();
      break;
  }
  spec.num_targets = 1 + rng.UniformU64(std::min<size_t>(10, d));

  fuzz.stream_seed = rng.Next();
  const size_t kShardChoices[] = {1, 2, 3, 8};
  fuzz.shards = kShardChoices[rng.UniformU64(std::size(kShardChoices))];
  return fuzz;
}

TEST(StreamingStressTest, RandomizedShapesUpholdStreamingInvariants) {
  for (size_t c = 0; c < kCorpusSize; ++c) {
    const FuzzCase fuzz = MakeCase(DeriveSeed(kCorpusSeed, c));
    const StreamSpec& spec = fuzz.spec;
    ASSERT_TRUE(ValidateStreamSpec(spec).ok())
        << "corpus " << c << " produced an invalid spec";
    SCOPED_TRACE(::testing::Message()
                 << "corpus=" << c << " protocol="
                 << ProtocolKindName(fuzz.kind)
                 << " total=" << spec.total_reports
                 << " window=" << spec.window_reports
                 << " stride=" << spec.stride_reports
                 << " wave=" << WaveShapeName(spec.wave)
                 << " d=" << spec.item_counts.size());

    const std::unique_ptr<FrequencyProtocol> protocol =
        MakeProtocol(fuzz.kind, spec.item_counts.size(), 1.0);
    StreamEngineOptions options;
    options.run_recovery = false;
    const StreamSummary summary =
        RunStream(*protocol, spec, options, fuzz.stream_seed);

    // Bounded memory: the flush buffer never outgrows its slack.
    EXPECT_LE(summary.peak_buffered_reports, kBatchFlushReports);

    // The stream totals equal the batch path on the replayed reports,
    // byte for byte, at an arbitrary shard count.
    const StreamReplay replay =
        ReplayStream(*protocol, spec, fuzz.stream_seed);
    ASSERT_EQ(replay.reports.size(), spec.total_reports);
    Aggregator aggregator(*protocol);
    aggregator.AddAllSharded(replay.reports, fuzz.shards);
    EXPECT_EQ(summary.final_support_counts, aggregator.counts());

    ASSERT_FALSE(summary.windows.empty());
    const size_t stride = spec.stride_reports == 0 ? spec.window_reports
                                                   : spec.stride_reports;
    size_t attackers = 0;
    for (size_t w = 0; w < summary.windows.size(); ++w) {
      const WindowResult& window = summary.windows[w];
      EXPECT_EQ(window.index, w);
      EXPECT_EQ(window.first_report, w * stride);
      EXPECT_LE(window.first_report + window.report_count,
                spec.total_reports);
      attackers += window.attackers;
    }
    // The final window reaches the end of the stream: no report is
    // left uncovered by the pane decomposition.
    const WindowResult& last = summary.windows.back();
    EXPECT_EQ(last.first_report + last.report_count, spec.total_reports);

    if (spec.stride_reports == 0) {
      // Tumbling windows partition the stream: per-window counts,
      // tallies, and attacker counts sum back to the totals exactly.
      std::vector<uint64_t> summed(spec.item_counts.size(), 0);
      std::vector<uint64_t> tally(spec.item_counts.size(), 0);
      size_t covered = 0;
      for (const WindowResult& window : summary.windows) {
        EXPECT_EQ(window.first_report, covered);
        covered += window.report_count;
        for (size_t v = 0; v < summed.size(); ++v) {
          summed[v] += window.support_counts[v];
          tally[v] += window.genuine_tally[v];
        }
      }
      EXPECT_EQ(covered, spec.total_reports);
      EXPECT_EQ(summed, summary.final_support_counts);
      EXPECT_EQ(tally, summary.final_genuine_tally);
      EXPECT_EQ(attackers, summary.total_attackers);
    }
  }
}

}  // namespace
}  // namespace ldpr
