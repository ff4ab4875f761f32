// Seeded hash family for OLH.
//
// OLH requires each user to pick a hash function H uniformly from a
// family such that H(v) is uniform over {0, ..., g-1} for each item
// and (approximately) independent across items.  We realize the
// family as { v -> XXH64(v, seed) mod g : seed in uint64 }, matching
// the construction in Wang et al.'s reference implementation.
//
// Besides the one-at-a-time SeededHash this header provides the
// batched evaluation building blocks the SIMD aggregation kernels
// (util/simd.h) are built from:
//
//  * FastMod — an exact strength-reduced `x % g` for a loop-invariant
//    g (power-of-two mask, else one high multiply + one correction
//    subtract).  Exactness for every 64-bit x is what keeps the
//    batched OLH path bit-identical to SeededHash, and is locked in
//    by tests/report_gen_batch_test.cc.
//  * FastModEquals — an exact `h % g == r` test with no remainder at
//    all: one multiply, a rotate and two compares (the divisibility
//    test of Lemire, Kaser & Kurz, "Faster Remainder by Direct
//    Computation", 2019).  The AVX-512 OLH kernel runs it per lane; it
//    is locked to `%` at the edges random hashes never reach by
//    tests/report_gen_batch_test.cc.
//  * SeededHashTileEval — evaluates H_seed(item) for one item against
//    a whole tile of report seeds, hoisting the item-only half of the
//    8-byte xxHash (XxHash64Round0) out of the per-seed loop.

#ifndef LDPR_UTIL_HASH_FAMILY_H_
#define LDPR_UTIL_HASH_FAMILY_H_

#include <cstddef>
#include <cstdint>

#include "util/xxhash.h"

namespace ldpr {

/// Exact division-free `x % g` for a fixed divisor g >= 1.
///
/// Power-of-two g reduces to a mask.  Otherwise, with
/// m = floor(2^64 / g), the quotient estimate
/// q = floor(m * x / 2^64) satisfies floor(x/g) - q in {0, 1}
/// (the error term e*x/(g*2^64) with e = 2^64 mod g < g is < 1 for
/// every x < 2^64), so one conditional subtract of g makes the
/// remainder exact for all 64-bit x.
class FastMod {
 public:
  FastMod() : FastMod(1) {}
  explicit FastMod(uint64_t g)
      : g_(g),
        mask_(g - 1),
        pow2_((g & (g - 1)) == 0),
        m_(pow2_ ? 0
                 : static_cast<uint64_t>(
                       (static_cast<unsigned __int128>(1) << 64) / g)) {}

  uint64_t divisor() const { return g_; }

  uint64_t operator()(uint64_t x) const {
    if (pow2_) return x & mask_;
    const uint64_t q = static_cast<uint64_t>(
        (static_cast<unsigned __int128>(m_) * x) >> 64);
    uint64_t r = x - q * g_;
    if (r >= g_) r -= g_;
    return r;
  }

 private:
  uint64_t g_;
  uint64_t mask_;
  bool pow2_;
  uint64_t m_;  // floor(2^64 / g); fits u64 for every non-pow2 g >= 3
};

/// Exact division-free test `h % g == r` for a fixed g >= 1.
///
/// h % g == r exactly when r < g, h >= r and g divides x = h - r.
/// Write g = 2^k * o with o odd and let o' be the inverse of o modulo
/// 2^64.  If x = g * q then x * o' = 2^k * q (mod 2^64), whose
/// rotate right by k is q <= floor((2^64 - 1) / g).  Conversely, a
/// rotated value y <= floor((2^64 - 1) / g) < 2^(64-k) has k zero top
/// bits, so x * o' had k zero low bits and equals 2^k * y; hence
/// x = g * y, exactly, since g * y < 2^64.  One path serves every g,
/// powers of two included (o = 1).
class FastModEquals {
 public:
  explicit FastModEquals(uint64_t g)
      : g_(g),
        shift_(__builtin_ctzll(g)),
        inverse_(OddInverse(g >> shift_)),
        max_quotient_(~uint64_t{0} / g) {}

  uint64_t divisor() const { return g_; }
  int shift() const { return shift_; }
  uint64_t inverse() const { return inverse_; }
  uint64_t max_quotient() const { return max_quotient_; }

  /// True iff g divides x.
  bool Divides(uint64_t x) const {
    const uint64_t y = x * inverse_;
    const uint64_t rotated = (y >> shift_) | (y << ((64 - shift_) & 63));
    return rotated <= max_quotient_;
  }

  /// True iff h % g == r.
  bool operator()(uint64_t h, uint64_t r) const {
    return r < g_ && h >= r && Divides(h - r);
  }

 private:
  // Newton's iteration for the inverse of odd o modulo 2^64: o is its
  // own inverse modulo 2^3, and each step doubles the correct bits.
  static uint64_t OddInverse(uint64_t o) {
    uint64_t x = o;
    for (int i = 0; i < 5; ++i) x *= 2 - o * x;
    return x;
  }

  uint64_t g_;
  int shift_;
  uint64_t inverse_;
  uint64_t max_quotient_;
};

/// One member of the OLH hash family, identified by its seed.
class SeededHash {
 public:
  /// Creates the family member with the given seed mapping into
  /// {0, ..., g-1}.  Requires g >= 2.
  SeededHash(uint64_t seed, uint32_t g) : seed_(seed), g_(g) {}

  /// H_seed(item) in {0, ..., g-1}.
  uint32_t operator()(uint64_t item) const {
    return static_cast<uint32_t>(XxHash64(item, seed_) % g_);
  }

  uint64_t seed() const { return seed_; }
  uint32_t range() const { return g_; }

 private:
  uint64_t seed_;
  uint32_t g_;
};

/// Batched SeededHash evaluation: one item against a tile of seeds.
///
/// `seed_accs[i]` must hold XxHash64SeedAcc(seed_i) (precomputed once
/// per tile); `Eval(i)` then returns H_{seed_i}(item) in
/// {0, ..., g-1}, bit-identical to SeededHash(seed_i, g)(item) — the
/// item-only xxHash half and the modulus are exact refactorings, not
/// approximations.
class SeededHashTileEval {
 public:
  SeededHashTileEval(uint64_t item, const uint64_t* seed_accs,
                     const FastMod& mod)
      : round0_(XxHash64Round0(item)), seed_accs_(seed_accs), mod_(mod) {}

  uint32_t Eval(size_t i) const {
    return static_cast<uint32_t>(
        mod_(XxHash64Key8WithRound0(round0_, seed_accs_[i])));
  }

 private:
  uint64_t round0_;
  const uint64_t* seed_accs_;
  const FastMod& mod_;
};

}  // namespace ldpr

#endif  // LDPR_UTIL_HASH_FAMILY_H_
