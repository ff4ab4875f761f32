// Evaluation metrics used by the paper's experiments (Section VI-B),
// the L1/L2/L-infinity distances between frequency vectors, and a
// running mean/variance accumulator across trials.

#ifndef LDPR_UTIL_METRICS_H_
#define LDPR_UTIL_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ldpr {

/// Mean squared error between two frequency vectors (Eq. 36):
/// (1/d) * sum_v (a_v - b_v)^2.  Sizes must match and be non-empty.
double Mse(const std::vector<double>& a, const std::vector<double>& b);

/// L1 distance: sum_v |a_v - b_v|.
double L1Distance(const std::vector<double>& a, const std::vector<double>& b);

/// L2 (Euclidean) distance.
double L2Distance(const std::vector<double>& a, const std::vector<double>& b);

/// L-infinity distance: max_v |a_v - b_v|.
double LInfDistance(const std::vector<double>& a,
                    const std::vector<double>& b);

/// Frequency gain of a targeted attack (Eq. 37):
/// FG = sum_{t in targets} (after[t] - genuine[t]).
///
/// Note the paper writes FG = sum (f~_X(t) - f~*_Z(t)) and reports
/// positive gains for successful attacks; we use (after - genuine) so
/// that a positive FG always means "the attack inflated the targets",
/// matching the plotted quantity in Figure 4.
double FrequencyGain(const std::vector<double>& genuine,
                     const std::vector<double>& after,
                     const std::vector<uint32_t>& targets);

/// Streaming accumulator for mean/variance across trials (Welford).
class RunningStat {
 public:
  void Add(double x);
  size_t count() const { return count_; }
  double mean() const { return mean_; }
  /// Unbiased sample variance; 0 when fewer than two samples.
  double variance() const;
  double stddev() const;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

}  // namespace ldpr

#endif  // LDPR_UTIL_METRICS_H_
