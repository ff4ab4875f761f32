#include "ldp/report_batch.h"

#include <algorithm>

#include "util/logging.h"

namespace ldpr {

namespace {

// Grows `v` to hold at least `need` elements, at least doubling its
// capacity: vector::reserve allocates exactly what it is asked for,
// so reserving size + 1 per append would copy the whole array every
// time.
template <typename T>
void GrowTo(std::vector<T>& v, size_t need) {
  if (need > v.capacity()) v.reserve(std::max(need, 2 * v.capacity()));
}

}  // namespace

ReportBatch::ReportBatch(const std::vector<Report>& reports)
    : size_(reports.size()),
      bits_width_(reports.empty() ? 0 : reports[0].bits.size()) {
  seeds_.reserve(size_);
  values_.reserve(size_);
  bits_.reserve(size_ * bits_width_);
  for (const Report& report : reports) {
    LDPR_CHECK(report.bits.size() == bits_width_);
    seeds_.push_back(report.seed);
    values_.push_back(report.value);
    bits_.insert(bits_.end(), report.bits.begin(), report.bits.end());
  }
}

void ReportBatch::AppendFrom(const ReportBatch& src, size_t i) {
  LDPR_CHECK(is_builder());
  LDPR_CHECK(i < src.size_);
  const size_t width = src.bits_width_;
  if (width > 0) {
    if (size_ == 0 && bits_width_ == 0) {
      bits_width_ = width;
    } else {
      LDPR_CHECK(width == bits_width_);
    }
    const uint8_t* row = src.bits() + i * width;
    bits_.insert(bits_.end(), row, row + width);
  } else {
    LDPR_CHECK(bits_width_ == 0);
  }
  seeds_.push_back(src.seeds()[i]);
  values_.push_back(src.values()[i]);
  ++size_;
}

void ReportBatch::Clear() {
  size_ = 0;
  bits_width_ = 0;
  seeds_view_ = nullptr;
  values_view_ = nullptr;
  bits_view_ = nullptr;
  seeds_.clear();
  values_.clear();
  bits_.clear();
}

const uint64_t* ReportBatch::seeds() const {
  return seeds_view_ != nullptr ? seeds_view_ : seeds_.data();
}

const uint32_t* ReportBatch::values() const {
  return values_view_ != nullptr ? values_view_ : values_.data();
}

const uint8_t* ReportBatch::bits() const {
  LDPR_CHECK(bits_width_ > 0);
  return bits_view_ != nullptr ? bits_view_ : bits_.data();
}

ReportBatch ReportBatch::Slice(size_t begin, size_t end) const {
  LDPR_CHECK(begin <= end && end <= size_);
  ReportBatch view;
  view.size_ = end - begin;
  view.bits_width_ = bits_width_;
  view.seeds_view_ = seeds() + begin;
  view.values_view_ = values() + begin;
  if (bits_width_ > 0) view.bits_view_ = bits() + begin * bits_width_;
  return view;
}

void ReportBatch::ExtractReport(size_t i, Report& out) const {
  LDPR_CHECK(i < size_);
  out.seed = seeds()[i];
  out.value = values()[i];
  if (bits_width_ == 0) {
    out.bits.clear();
  } else {
    const uint8_t* row = bits() + i * bits_width_;
    out.bits.assign(row, row + bits_width_);
  }
}

ReportBatch::Builder::Builder(ReportBatch& batch) : batch_(&batch) {
  LDPR_CHECK(batch.is_builder());
}

void ReportBatch::Builder::SetBitsWidth(size_t width) {
  LDPR_CHECK(width > 0);
  if (batch_->size_ == 0 && batch_->bits_width_ == 0) {
    batch_->bits_width_ = width;
    // Rows reserved before the width was known get their bit rows.
    GrowTo(batch_->bits_, batch_->seeds_.capacity() * width);
  } else {
    LDPR_CHECK(width == batch_->bits_width_);
  }
}

void ReportBatch::Builder::Reserve(size_t n) {
  const size_t need = batch_->size_ + n;
  GrowTo(batch_->seeds_, need);
  GrowTo(batch_->values_, need);
  const size_t width = batch_->bits_width_;
  if (width > 0) GrowTo(batch_->bits_, need * width);
}

void ReportBatch::Builder::AddValue(uint32_t value) { AddSeedValue(0, value); }

void ReportBatch::Builder::AddSeedValue(uint64_t seed, uint32_t value) {
  LDPR_CHECK(batch_->bits_width_ == 0);
  batch_->seeds_.push_back(seed);
  batch_->values_.push_back(value);
  ++batch_->size_;
}

uint8_t* ReportBatch::Builder::AddBitsRow() {
  const size_t width = batch_->bits_width_;
  LDPR_CHECK(width > 0);
  batch_->seeds_.push_back(0);
  batch_->values_.push_back(0);
  batch_->bits_.resize(batch_->bits_.size() + width);  // zero-filled
  ++batch_->size_;
  return batch_->bits_.data() + (batch_->size_ - 1) * width;
}

}  // namespace ldpr
