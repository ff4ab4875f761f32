// ReportBatch: a batch of many reports in SoA layout, the unit of
// every report-generating and report-aggregating path.
//
// Protocols and attacks implement only the batch API: reports are
// generated into a batch (FrequencyProtocol::AppendGenuineReports,
// AppendCraftedReport, Attack::CraftBatch) and counted from one
// (FrequencyProtocol::AccumulateSupportsBatch), so each protocol runs
// one tight specialized loop over the field arrays (value histogram
// for GRR, per-column bit sums for the unary family, item-block x
// report-block tiles for local hashing).
//
// Two modes:
//
//  * Builder mode — owned SoA storage.  A ReportBatch::Builder
//    writes straight into the field arrays (seeds[], values[], packed
//    bit rows) without a per-user Report ever materializing.
//  * View mode — Slice() of a builder batch: borrowed pointers into
//    the parent's SoA arrays (the unit the sharded aggregator hands
//    each worker).  Appending to the parent invalidates slices.
//
// The converting constructor from std::vector<Report> is the one
// AoS -> SoA entry point; it copies the rows into builder mode.  The
// library itself never relies on it — it exists for tests, examples
// and callers outside the library that hold materialized reports.
//
// Determinism: support counts are uint64_t, so *any* grouping of a
// batch (kernel tiles, flush buffers, shard chunks) yields the same
// counts (see "Support counts are integers" in docs/architecture.md).
//
// A builder-mode batch is homogeneous: either every appended report
// carries a bit row of the same width or none does (checked on
// append).

#ifndef LDPR_LDP_REPORT_BATCH_H_
#define LDPR_LDP_REPORT_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ldp/report.h"

namespace ldpr {

class ReportBatch {
 public:
  class Builder;

  /// An empty builder-mode batch.
  ReportBatch() = default;

  /// Copies materialized reports into a builder-mode batch.  Every
  /// report must agree on the presence and width of the bit row.
  /// Deliberately implicit: a std::vector<Report> can be passed
  /// wherever a `const ReportBatch&` is expected.
  ReportBatch(const std::vector<Report>& reports);  // NOLINT

  /// Row-copies report i of `src` (either mode) into this
  /// builder-mode batch without materializing a Report — the subset
  /// and survivor path of the k-means and detection flush buffers.
  void AppendFrom(const ReportBatch& src, size_t i);

  /// Drops all reports (and any slice view) but keeps allocated
  /// capacity — lets a streaming producer reuse one batch as a flush
  /// buffer.
  void Clear();

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Width of each bit row; 0 when the reports carry no bits.
  size_t bits_width() const { return bits_width_; }

  /// SoA field arrays, each of length size().
  const uint64_t* seeds() const;
  const uint32_t* values() const;

  /// Base of the packed row-major bit matrix (size() x bits_width()
  /// bytes).  Requires bits_width() > 0.
  const uint8_t* bits() const;

  /// Row i of the packed bit matrix (bits_width() bytes).
  const uint8_t* bits_row(size_t i) const { return bits() + i * bits_width_; }

  /// View mode: a borrowed sub-range [begin, end) of this batch's SoA
  /// arrays.  O(1), no copy.  The parent must
  /// outlive the slice and must not be appended to while slices are
  /// live.
  ReportBatch Slice(size_t begin, size_t end) const;

  /// Reconstructs report i into `out`, reusing out.bits storage — how
  /// FrequencyProtocol::Perturb and Attack::Craft hand single reports
  /// to callers that want them materialized.
  void ExtractReport(size_t i, Report& out) const;

 private:
  bool is_builder() const { return seeds_view_ == nullptr; }

  size_t size_ = 0;
  size_t bits_width_ = 0;  // fixed by the first bit-carrying report
  // View mode: borrowed SoA pointers into a parent batch.
  const uint64_t* seeds_view_ = nullptr;
  const uint32_t* values_view_ = nullptr;
  const uint8_t* bits_view_ = nullptr;
  // Builder-mode storage.
  std::vector<uint64_t> seeds_;
  std::vector<uint32_t> values_;
  std::vector<uint8_t> bits_;  // row-major, size_ x bits_width_
};

/// Writes reports straight into a builder-mode ReportBatch's SoA
/// arrays.  The generation hot path: protocols append a value, a
/// (seed, value) pair, or a zeroed bit row they then fill in place —
/// no per-user Report object exists anywhere on the path.
class ReportBatch::Builder {
 public:
  /// Wraps `batch`, which must be in builder mode (possibly
  /// non-empty: crafting appends after genuine generation).
  explicit Builder(ReportBatch& batch);

  /// Fixes the bit-row width before the first AddBitsRow (idempotent;
  /// must agree with any width the batch already has).  Rows reserved
  /// while the width was still unknown get their bit storage here.
  void SetBitsWidth(size_t width);

  /// Ensures room for `n` more reports.  Capacity grows
  /// geometrically (to at least twice the current capacity), so a
  /// producer appending one report at a time reallocates O(log m)
  /// times over m appends.
  void Reserve(size_t n);

  /// Appends a value-only report (GRR).  seed is 0.
  void AddValue(uint32_t value);

  /// Appends a (seed, value) report (OLH/BLH).
  void AddSeedValue(uint64_t seed, uint32_t value);

  /// Appends a bit-row report (OUE/SUE) and returns its zeroed row of
  /// SetBitsWidth() bytes for the caller to fill in place.  The
  /// pointer is invalidated by the next append.
  uint8_t* AddBitsRow();

  size_t size() const { return batch_->size_; }
  const ReportBatch& batch() const { return *batch_; }

 private:
  ReportBatch* batch_;
};

}  // namespace ldpr

#endif  // LDPR_LDP_REPORT_BATCH_H_
