#include "util/random.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"

namespace ldpr {

namespace {

inline uint64_t Rotl(uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

uint64_t SplitMix64::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  SplitMix64 mix(seed);
  for (auto& word : s_) word = mix.Next();
  // Guard against the (astronomically unlikely) all-zero state, which
  // is the one fixed point of xoshiro.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::UniformU64(uint64_t n) {
  LDPR_CHECK(n > 0);
  // Lemire's nearly-divisionless unbiased bounded sampling.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < n) {
    uint64_t threshold = (0 - n) % n;
    while (low < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * n;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::UniformDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

uint64_t Rng::BinomialInversion(uint64_t n, double p) {
  // Sequential search on the CDF; O(n*p) expected iterations.
  const double q = 1.0 - p;
  const double s = p / q;
  const double a = static_cast<double>(n + 1) * s;
  double r = std::pow(q, static_cast<double>(n));
  double u = UniformDouble();
  uint64_t x = 0;
  while (u > r) {
    u -= r;
    ++x;
    if (x > n) return n;  // numeric safety
    r *= (a / static_cast<double>(x)) - s;
  }
  return x;
}

namespace {

// The Stirling series tail ln(k!) - [ln(sqrt(2*pi*k)) + k*ln(k) - k],
// tabulated for k <= 9, asymptotic otherwise (Hormann 1993).  Local
// so the sampler never touches libc's lgamma, whose glibc
// implementation writes the process-global signgam — a data race
// when aggregation shards sample binomials concurrently.
double StirlingTail(double k) {
  static constexpr double kTail[] = {
      0.0810614667953272,  0.0413406959554092,  0.0276779256849983,
      0.02079067210376509, 0.0166446911898211,  0.0138761288230707,
      0.0118967099458917,  0.0104112652619720,  0.00925546218271273,
      0.00833056343336287};
  if (k <= 9.0) return kTail[static_cast<int>(k)];
  const double kp1sq = (k + 1.0) * (k + 1.0);
  return (1.0 / 12 - (1.0 / 360 - 1.0 / 1260 / kp1sq) / kp1sq) / (k + 1.0);
}

}  // namespace

uint64_t Rng::BinomialBtrs(uint64_t n, double p) {
  // BTRS, Hormann 1993: transformed rejection with squeeze, the
  // standard large-n*p binomial sampler (requires n*p >= 10 and
  // p <= 0.5, which Binomial() guarantees).  Self-contained —
  // thread-safe and O(1) expected draws — unlike
  // std::binomial_distribution, whose setup calls glibc lgamma.
  const double nd = static_cast<double>(n);
  const double stddev = std::sqrt(nd * p * (1.0 - p));
  const double b = 1.15 + 2.53 * stddev;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  const double r = p / (1.0 - p);
  const double alpha = (2.83 + 5.1 / b) * stddev;
  const double m = std::floor((nd + 1.0) * p);
  for (;;) {
    const double u = UniformDouble() - 0.5;
    double v = UniformDouble();
    const double us = 0.5 - std::fabs(u);
    const double k = std::floor((2.0 * a / us + b) * u + c);
    // Inside the squeeze region the bounding box is tight enough to
    // accept without evaluating the density.
    if (us >= 0.07 && v <= v_r) return static_cast<uint64_t>(k);
    if (k < 0.0 || k > nd) continue;
    v = std::log(v * alpha / (a / (us * us) + b));
    const double upper =
        (m + 0.5) * std::log((m + 1.0) / (r * (nd - m + 1.0))) +
        (nd + 1.0) * std::log((nd - m + 1.0) / (nd - k + 1.0)) +
        (k + 0.5) * std::log(r * (nd - k + 1.0) / (k + 1.0)) +
        StirlingTail(m) + StirlingTail(nd - m) - StirlingTail(k) -
        StirlingTail(nd - k);
    if (v <= upper) return static_cast<uint64_t>(k);
  }
}

uint64_t Rng::Binomial(uint64_t n, double p) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  const bool flip = p > 0.5;
  const double pp = flip ? 1.0 - p : p;
  const double np = static_cast<double>(n) * pp;
  uint64_t x = (np < 10.0) ? BinomialInversion(n, pp) : BinomialBtrs(n, pp);
  return flip ? n - x : x;
}

AliasSampler::AliasSampler(const std::vector<double>& weights) {
  LDPR_CHECK(!weights.empty());
  const size_t d = weights.size();
  double total = 0.0;
  for (double w : weights) {
    LDPR_CHECK(w >= 0.0);
    total += w;
  }
  LDPR_CHECK(total > 0.0);

  normalized_.resize(d);
  for (size_t i = 0; i < d; ++i) normalized_[i] = weights[i] / total;

  prob_.assign(d, 0.0);
  alias_.assign(d, 0);
  std::vector<double> scaled(d);
  for (size_t i = 0; i < d; ++i)
    scaled[i] = normalized_[i] * static_cast<double>(d);

  std::vector<uint32_t> small, large;
  small.reserve(d);
  large.reserve(d);
  for (size_t i = 0; i < d; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    uint32_t s = small.back();
    small.pop_back();
    uint32_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (uint32_t i : large) prob_[i] = 1.0;
  for (uint32_t i : small) prob_[i] = 1.0;  // numeric leftovers
}

size_t AliasSampler::Sample(Rng& rng) const {
  const size_t column = rng.UniformU64(prob_.size());
  return rng.UniformDouble() < prob_[column] ? column : alias_[column];
}

std::vector<double> ZipfSampler::MakeWeights(size_t d, double s) {
  LDPR_CHECK(d > 0);
  std::vector<double> w(d);
  for (size_t i = 0; i < d; ++i)
    w[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
  return w;
}

ZipfSampler::ZipfSampler(size_t d, double s) : alias_(MakeWeights(d, s)) {}

std::vector<uint64_t> SampleMultinomial(uint64_t n,
                                        const std::vector<double>& weights,
                                        Rng& rng) {
  LDPR_CHECK(!weights.empty());
  double remaining_weight =
      std::accumulate(weights.begin(), weights.end(), 0.0);
  LDPR_CHECK(remaining_weight > 0.0);
  std::vector<uint64_t> counts(weights.size(), 0);
  uint64_t remaining = n;
  for (size_t i = 0; i + 1 < weights.size() && remaining > 0; ++i) {
    const double p = weights[i] / remaining_weight;
    const uint64_t c = rng.Binomial(remaining, std::min(1.0, std::max(0.0, p)));
    counts[i] = c;
    remaining -= c;
    remaining_weight -= weights[i];
    if (remaining_weight <= 0.0) break;
  }
  counts.back() += remaining;
  return counts;
}

std::vector<double> SampleRandomDistribution(size_t d, Rng& rng) {
  LDPR_CHECK(d > 0);
  // Flat Dirichlet via normalized i.i.d. Exp(1) draws.
  std::vector<double> p(d);
  double total = 0.0;
  for (size_t i = 0; i < d; ++i) {
    double u = rng.UniformDouble();
    // Avoid log(0).
    u = std::max(u, 1e-300);
    p[i] = -std::log(u);
    total += p[i];
  }
  for (double& v : p) v /= total;
  return p;
}

std::vector<uint32_t> SampleWithoutReplacement(size_t d, size_t k, Rng& rng) {
  LDPR_CHECK(k <= d);
  std::vector<uint32_t> pool(d);
  std::iota(pool.begin(), pool.end(), 0u);
  for (size_t i = 0; i < k; ++i) {
    const size_t j = i + rng.UniformU64(d - i);
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  // Round 1 decorrelates the user seed; round 2 folds the stream
  // counter in through an odd-multiplier injection so that adjacent
  // streams land in unrelated parts of the SplitMix64 orbit.
  SplitMix64 outer(seed);
  const uint64_t mixed_seed = outer.Next();
  SplitMix64 inner(mixed_seed ^
                   (stream * 0xBF58476D1CE4E5B9ULL + 0x94D049BB133111EBULL));
  return inner.Next();
}

}  // namespace ldpr
