// Span and counter recording for the benchmark's traced pass.
//
// Every traced unit (one trial, stream run or shard task) owns one
// UnitTrace and is the only thread writing it, so recording needs no
// locks; units merge into the pass total in unit-index order.  A null
// UnitTrace* turns every Span and Count into a no-op that reads no
// clock — the untraced reference pass runs the same code that way.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct UnitTrace {
  /// Wall seconds per layer span ("ldp.aggregate_s").
  std::map<std::string, double> span_s;
  /// Deterministic work counters ("attack.crafted_reports").
  std::map<std::string, uint64_t> counts;
  /// Deterministic maxima ("stream.peak_buffered_reports").
  std::map<std::string, uint64_t> maxima;
  /// Deterministic real-valued sums (k-means malicious subset
  /// fractions), added in unit order.
  std::map<std::string, double> sums;
  /// MGA-IPA crafting by malicious-user count m: seconds and reports.
  std::map<uint64_t, double> ipa_craft_s;
  std::map<uint64_t, uint64_t> ipa_craft_reports;
  /// Wall seconds of traced work: unit bodies plus scenario-level
  /// spans (dataset resolution, protocol construction).
  double busy_s = 0;
  /// Seconds units waited for a pool worker after their region began.
  double pool_wait_s = 0;
  /// Worker-seconds a region's workers sat idle (outer x wall minus
  /// the busy time of the units it ran).
  double pool_idle_s = 0;

  void Merge(const UnitTrace& other) {
    for (const auto& [k, v] : other.span_s) span_s[k] += v;
    for (const auto& [k, v] : other.counts) counts[k] += v;
    for (const auto& [k, v] : other.maxima)
      if (v > maxima[k]) maxima[k] = v;
    for (const auto& [k, v] : other.sums) sums[k] += v;
    for (const auto& [k, v] : other.ipa_craft_s) ipa_craft_s[k] += v;
    for (const auto& [k, v] : other.ipa_craft_reports)
      ipa_craft_reports[k] += v;
    busy_s += other.busy_s;
    pool_wait_s += other.pool_wait_s;
    pool_idle_s += other.pool_idle_s;
  }
};

/// Scoped wall-clock span added to `trace->span_s[name]`.
class Span {
 public:
  Span(UnitTrace* trace, const char* name) : trace_(trace), name_(name) {
    if (trace_ != nullptr) start_ = Clock::now();
  }
  ~Span() { Stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span early; returns its seconds (0 when untraced).
  double Stop() {
    if (trace_ == nullptr || stopped_) return 0.0;
    stopped_ = true;
    const double s = SecondsSince(start_);
    trace_->span_s[name_] += s;
    return s;
  }

 private:
  UnitTrace* trace_;
  const char* name_;
  Clock::time_point start_;
  bool stopped_ = false;
};

inline void Count(UnitTrace* trace, const char* name, uint64_t value) {
  if (trace != nullptr) trace->counts[name] += value;
}

inline void Max(UnitTrace* trace, const char* name, uint64_t value) {
  if (trace != nullptr && value > trace->maxima[name])
    trace->maxima[name] = value;
}

inline void Sum(UnitTrace* trace, const char* name, double value) {
  if (trace != nullptr) trace->sums[name] += value;
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
