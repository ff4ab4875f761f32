// FrequencyProtocol: the common interface of pure LDP protocols for
// frequency estimation (Section III of the paper).
//
// A protocol is a pair (Psi, Phi): users perturb with Psi
// (AppendGenuineReports()), and the server aggregates with Phi, which
// for every pure protocol has the unified form of Eq. (11):
//
//     Phi_eps(v) = (C(v) - n*q) / (p - q),
//
// where C(v) counts the reports whose support set contains v
// (Eq. (12)-(13)).  C(v) is a count, so it is a uint64_t wherever it
// is accumulated or merged (kernels, samplers, shard partials,
// Aggregator); it becomes a double once, where Eq. (11) consumes it
// (CountsToDoubles).  Each concrete protocol supplies its perturbation
// probabilities p and q, its batched perturbation and crafting
// algorithms, and its batched support counter; the shared
// aggregation and estimation logic lives here.  Protocols implement
// only the ReportBatch API (ldp/report_batch.h); Perturb() is a
// one-row convenience on top of it.
//
// Aggregation comes in three flavors (docs/architecture.md):
//
//  1. Batched: Aggregator::AddAll folds a ReportBatch through the
//     protocol's AccumulateSupportsBatch kernel (O(d) counters, any
//     report source).
//  2. Closed-form sampling: SampleSupportCounts draws the aggregate
//     support-count vector of a whole genuine population directly
//     from its distribution, without per-user reports.
//  3. Sharded: the *Sharded variants split the population (or report
//     stream) into fixed-size contiguous chunks, process chunk c on
//     its own Rng(DeriveSeed(seed, c)), and merge partial
//     support-count vectors in chunk order.  Because the chunk
//     decomposition depends only on the population — never on the
//     worker count — the output is byte-identical at any `shards`
//     value; shards only decide how many pool workers chew on the
//     chunks.  This is what lets one paper-scale trial (millions of
//     users) use every core.
//
// The canonical user ordering behind the sharded paths: users are
// grouped by item, items ascending — user indices [0, n_0) hold item
// 0, [n_0, n_0 + n_1) hold item 1, and so on.

#ifndef LDPR_LDP_PROTOCOL_H_
#define LDPR_LDP_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ldp/report.h"
#include "ldp/report_batch.h"
#include "util/random.h"

namespace ldpr {

/// Discriminates concrete protocol implementations; attacks switch on
/// this to craft protocol-specific malicious reports.
enum class ProtocolKind {
  kGrr,
  kOue,
  kOlh,
  kSue,  // symmetric unary encoding (basic RAPPOR)
  kBlh,  // binary local hashing (OLH with g = 2)
};

const char* ProtocolKindName(ProtocolKind kind);

/// Users per aggregation shard.  Fixed (rather than derived from the
/// worker count) so the shard decomposition — and therefore every
/// sharded sampling output — depends only on the population size.
inline constexpr uint64_t kUsersPerAggregationShard = 1u << 16;

/// Reports per chunk in Aggregator::AddAllSharded.  Chosen so one
/// chunk is a few milliseconds of support accumulation even for the
/// O(d)-per-report protocols (OLH, unary).
inline constexpr size_t kReportsPerAggregationShard = 1u << 13;

/// Restriction of a population histogram to the canonical users
/// [user_begin, user_end): entry v is how many of those users hold
/// item v.  The canonical ordering groups users by item, items
/// ascending.  Requires user_begin <= user_end <= sum(item_counts).
std::vector<uint64_t> RestrictItemCountsToUsers(
    const std::vector<uint64_t>& item_counts, uint64_t user_begin,
    uint64_t user_end);

/// Canonical user-chunk decomposition of an n-user population: chunk
/// c covers users [c*users_per_chunk, min(n, (c+1)*users_per_chunk)).
/// An empty population still forms one (empty) chunk, matching
/// ShardedSupportCounts.  Exported so out-of-process shard workers
/// (src/shard/) agree with the in-process path on the decomposition.
inline uint64_t UserChunkCount(
    uint64_t n, uint64_t users_per_chunk = kUsersPerAggregationShard) {
  return n == 0 ? 1 : (n + users_per_chunk - 1) / users_per_chunk;
}

/// Canonical report-chunk decomposition of an m-report batch: chunk c
/// covers reports [c*reports_per_chunk, min(m, (c+1)*
/// reports_per_chunk)).  An empty batch has zero chunks, matching
/// Aggregator::AddAllSharded's no-op on empty input.
inline uint64_t ReportChunkCount(
    uint64_t m, uint64_t reports_per_chunk = kReportsPerAggregationShard) {
  return (m + reports_per_chunk - 1) / reports_per_chunk;
}

/// The shared scaffolding of every sharded-over-users aggregation
/// path: cuts an n-user population into kUsersPerAggregationShard-
/// sized chunks, runs per_chunk(user_begin, user_end, rng) for chunk
/// c on Rng(DeriveSeed(seed, c)) across `shards` pool workers (0 =
/// auto), and sums the returned length-d partial vectors.  The chunk
/// decomposition depends only on n, so the output is byte-identical
/// at every `shards` value.
std::vector<uint64_t> ShardedSupportCounts(
    uint64_t n, size_t d, uint64_t seed, size_t shards,
    const std::function<std::vector<uint64_t>(uint64_t user_begin,
                                              uint64_t user_end, Rng& rng)>&
        per_chunk);

/// Support counts as the doubles Eq. (11) consumes: the one place a
/// count leaves the integers.  Exact for counts below 2^53.
std::vector<double> CountsToDoubles(const std::vector<uint64_t>& counts);

/// Interface of a pure LDP frequency-estimation protocol.
class FrequencyProtocol {
 public:
  /// `d` is the input-domain size |D| (>= 2); `epsilon` the privacy
  /// budget (> 0).
  FrequencyProtocol(size_t d, double epsilon);
  virtual ~FrequencyProtocol() = default;

  FrequencyProtocol(const FrequencyProtocol&) = delete;
  FrequencyProtocol& operator=(const FrequencyProtocol&) = delete;

  virtual ProtocolKind kind() const = 0;
  virtual std::string Name() const = 0;

  size_t domain_size() const { return d_; }
  double epsilon() const { return epsilon_; }

  /// Probability that a genuine report supports the reporter's own
  /// item ("p" in the paper's unified notation).
  virtual double p() const = 0;

  /// Probability that a genuine report supports any other given item
  /// ("q").
  virtual double q() const = 0;

  /// The user-side perturbation algorithm Psi_eps for one user: a
  /// one-row AppendGenuineReports, extracted.  Same draws as one row
  /// of the batch path; for tests and the benchmark's report replay.
  Report Perturb(ItemId item, Rng& rng) const;

  /// The support counter: adds, for every item v, the number of
  /// reports of `batch` whose support set S(y) contains v (Eq. (13))
  /// to `counts` (size d).  Each protocol runs one tight specialized
  /// pass: GRR a value histogram (O(n + d)), the unary family packed
  /// per-column bit sums, and local hashing an (item-block x
  /// report-block) tiling that keeps the seeds/values slices and the
  /// active counts window in cache.  Counts are integers, so any
  /// grouping of the batch (flush buffers, shard chunks) gives the
  /// same totals.
  virtual void AccumulateSupportsBatch(
      const ReportBatch& batch, std::vector<uint64_t>& counts) const = 0;

  /// Server-side estimation Phi_eps: converts raw support counts into
  /// unbiased count estimates, Eq. (11): (C(v) - n*q) / (p - q).
  std::vector<double> AdjustCounts(const std::vector<double>& support_counts,
                                   size_t n) const;

  /// Converts raw support counts into estimated *frequencies*,
  /// i.e. AdjustCounts() divided by n.
  std::vector<double> EstimateFrequencies(
      const std::vector<double>& support_counts, size_t n) const;

  /// Theoretical variance of the estimated count Phi(v) for an item
  /// with true frequency f (Eqs. (4), (7), (10)).
  virtual double CountVariance(double f, size_t n) const = 0;

  /// Theoretical variance of the estimated *frequency* of an item
  /// with true frequency f: CountVariance / n^2.
  double FrequencyVariance(double f, size_t n) const;

  /// Samples the support-count vector the server would observe from
  /// genuine users holding `item_counts[v]` copies of each item,
  /// without materializing per-user reports.  GRR samples exactly
  /// (multinomial), the unary family exactly (independent
  /// binomials), local hashing per-item exactly (the per-item
  /// marginal law is binomial; only the cross-item correlation of
  /// shared hash seeds is dropped — see "Closed-form OLH/BLH
  /// sampling" in docs/architecture.md).  ExactSupportCounts is the
  /// per-user reference these laws are tested against.
  virtual std::vector<uint64_t> SampleSupportCounts(
      const std::vector<uint64_t>& item_counts, Rng& rng) const = 0;

  /// Samples the support-count contribution of the canonical users
  /// [user_begin, user_end) only — the shard-level building block of
  /// SampleSupportCountsSharded: SampleSupportCounts on the
  /// restricted histogram.  Every closed-form sampler decomposes over
  /// user subsets (sums of independent binomials / multinomials
  /// recompose).
  std::vector<uint64_t> SampleSupportCountsRange(
      const std::vector<uint64_t>& item_counts, uint64_t user_begin,
      uint64_t user_end, Rng& rng) const;

  /// Appends `count` genuine perturbed reports for users holding
  /// `item` straight into a builder-mode batch — the generation hot
  /// path.  Users draw one after another, so `count` one-row calls
  /// consume the Rng exactly like one `count`-row call.
  virtual void AppendGenuineReports(ItemId item, uint64_t count, Rng& rng,
                                    ReportBatch::Builder& out) const = 0;

  /// Batched genuine report generation for a whole population: for
  /// each item in ascending order, appends item_counts[v] perturbed
  /// reports via AppendGenuineReports.  The canonical user ordering
  /// (and Rng draw order) of the per-user samplers.
  void SampleReportsBatch(const std::vector<uint64_t>& item_counts, Rng& rng,
                          ReportBatch::Builder& out) const;

  /// Appends one report crafted in the *encoded* domain that
  /// deterministically supports `item` — the building block of
  /// poisoning attacks, which bypass the perturbation step (Section
  /// IV-A).
  virtual void AppendCraftedReport(ItemId item, Rng& rng,
                                   ReportBatch::Builder& out) const = 0;

  /// Per-user exact simulation of a population's support counts:
  /// generates every user's report through AppendGenuineReports (in
  /// the canonical per-user Rng draw order) and accumulates through
  /// the batched path in kBatchFlushReports-sized SoA flushes.
  /// The exact-genuine reference path (sim/pipeline's
  /// ExactGenuineSupportCounts).
  std::vector<uint64_t> ExactSupportCounts(
      const std::vector<uint64_t>& item_counts, Rng& rng) const;

  /// Sharded, deterministic SampleSupportCounts: splits the
  /// population into kUsersPerAggregationShard-sized contiguous
  /// chunks of the canonical user ordering, samples chunk c on
  /// Rng(DeriveSeed(seed, c)) via SampleSupportCountsRange, and sums
  /// the partial vectors across `shards` pool workers (0 = auto, 1 =
  /// run chunks serially).  Output is byte-identical at every
  /// `shards` value because neither the chunking nor the per-chunk RNG
  /// streams depend on it.  Returned as doubles: this is where the
  /// trial layer takes the genuine counts into estimation.
  std::vector<double> SampleSupportCountsSharded(
      const std::vector<uint64_t>& item_counts, uint64_t seed,
      size_t shards) const;

  /// The per-chunk unit of SampleSupportCountsSharded, exported so an
  /// out-of-process shard worker (src/shard/) can compute exactly the
  /// partial the in-process path would: support counts of canonical
  /// user chunk `chunk` (see UserChunkCount) sampled on
  /// Rng(DeriveSeed(seed, chunk)).  Summing the chunks reproduces
  /// SampleSupportCountsSharded at the default chunk size.
  std::vector<uint64_t> SampleSupportCountsChunk(
      const std::vector<uint64_t>& item_counts, uint64_t seed, uint64_t chunk,
      uint64_t users_per_chunk = kUsersPerAggregationShard) const;

  /// Expected number of items an AppendCraftedReport() report
  /// supports, E[sum_v 1_{S(y)}(v)].  GRR and one-hot OUE reports
  /// support exactly the chosen item (budget 1 — the paper's adaptive
  /// attack model); an OLH report additionally supports every item
  /// colliding into its bucket, budget 1 + (d-1)/g.
  virtual double CraftedSupportBudget() const { return 1.0; }

 protected:
  size_t d_;
  double epsilon_;
};

/// Reports per flush of the batch buffers that stream generated or
/// selected reports into AccumulateSupportsBatch (the per-user exact
/// samplers, Detection survivors, k-means subsets): large enough to
/// amortize the batched dispatch, small enough to bound the buffered
/// unary bit rows (4096 * d bytes — 16 MB at the scaling scenarios'
/// largest d=4096, a few hundred KB at paper-table domain sizes).
/// The windowed stream engine (stream/streaming_engine.h) flushes its
/// per-pane buffers at this same size, so it also caps that path's
/// peak_buffered_reports.
inline constexpr size_t kBatchFlushReports = 4096;

/// Server-side aggregator: keeps only the d support counters, so
/// aggregating hundreds of thousands of reports is O(d) memory.
class Aggregator {
 public:
  explicit Aggregator(const FrequencyProtocol& protocol);

  /// Folds a batch of reports through the protocol's
  /// AccumulateSupportsBatch kernel.
  void AddAll(const ReportBatch& batch);

  /// Folds a batch of reports across `shards` pool workers (0 =
  /// auto): the batch splits into kReportsPerAggregationShard-sized
  /// chunks, each chunk runs AccumulateSupportsBatch into its own
  /// partial vector, and the partials are summed.  Integer counts make
  /// the result identical to AddAll at every shard count.  Chunks are
  /// zero-copy Slice() views.
  void AddAllSharded(const ReportBatch& batch, size_t shards);

  /// Samples and folds the aggregate of a whole genuine population
  /// via the protocol's sharded closed-form sampler (see
  /// FrequencyProtocol::SampleSupportCountsSharded for the
  /// determinism contract).
  void AddSampledPopulation(const std::vector<uint64_t>& item_counts,
                            uint64_t seed, size_t shards);

  /// Number of reports aggregated so far.
  size_t report_count() const { return report_count_; }

  /// Raw support counts C(v).
  const std::vector<uint64_t>& counts() const { return counts_; }

  /// C(v) as doubles, for callers that take the counts into
  /// estimation (CountsToDoubles).
  std::vector<double> support_counts() const {
    return CountsToDoubles(counts_);
  }

  /// Merges support counts of `n` additional users aggregated
  /// elsewhere (a closed-form sample, another aggregator's totals).
  void AddSampledCounts(const std::vector<uint64_t>& counts, size_t n);

  /// Unbiased frequency estimates over all reports seen so far.
  std::vector<double> EstimateFrequencies() const;

  /// Unbiased frequency estimates normalizing by an explicit user
  /// count (used by Detection, which drops reports after the fact).
  std::vector<double> EstimateFrequencies(size_t n_override) const;

 private:
  const FrequencyProtocol& protocol_;
  std::vector<uint64_t> counts_;
  size_t report_count_ = 0;
};

}  // namespace ldpr

#endif  // LDPR_LDP_PROTOCOL_H_
