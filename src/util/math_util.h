// Small numeric helpers on frequency vectors: sums, the probability
// simplex check, and clamping.

#ifndef LDPR_UTIL_MATH_UTIL_H_
#define LDPR_UTIL_MATH_UTIL_H_

#include <cstddef>
#include <vector>

namespace ldpr {

/// Sum of a vector's entries.
double Sum(const std::vector<double>& v);

/// True when every entry is finite, non-negative, and the vector sums
/// to 1 within `tolerance` — i.e. v lies on the probability simplex.
bool IsProbabilityVector(const std::vector<double>& v,
                         double tolerance = 1e-9);

/// Clamps x into [lo, hi].
double Clamp(double x, double lo, double hi);

}  // namespace ldpr

#endif  // LDPR_UTIL_MATH_UTIL_H_
