#include "util/math_util.h"

#include <cmath>

namespace ldpr {

double Sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

bool IsProbabilityVector(const std::vector<double>& v, double tolerance) {
  double total = 0.0;
  for (double x : v) {
    if (!std::isfinite(x) || x < -tolerance) return false;
    total += x;
  }
  return std::fabs(total - 1.0) <= tolerance * static_cast<double>(v.size());
}

double Clamp(double x, double lo, double hi) {
  return x < lo ? lo : (x > hi ? hi : x);
}

}  // namespace ldpr
