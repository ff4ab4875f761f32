#include "util/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "util/hash_family.h"
#include "util/logging.h"
#include "util/random.h"

#if defined(__x86_64__) || defined(__i386__)
#define LDPR_SIMD_X86 1
#include <immintrin.h>
#endif

#if defined(__ARM_NEON) || defined(__ARM_NEON__)
#define LDPR_SIMD_NEON 1
#include <arm_neon.h>
#endif

// The LDPR_SIMD CMake option narrows what DetectBackend may pick:
// LDPR_SIMD_MODE 0=off 1=auto 2=avx2 3=sse2 4=neon.  Pinning
// an unavailable backend degrades to scalar (the manifest's `simd`
// field records what actually ran).
#ifndef LDPR_SIMD_MODE
#define LDPR_SIMD_MODE 1
#endif

namespace ldpr {

namespace {

bool ForceScalarEnv() {
  const char* env = std::getenv("LDPR_FORCE_SCALAR");
  return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
}

SimdBackend DetectBackend() {
  if (LDPR_SIMD_MODE == 0 || ForceScalarEnv()) return SimdBackend::kScalar;
  SimdBackend pinned = SimdBackend::kScalar;
  switch (LDPR_SIMD_MODE) {
    case 2:
      pinned = SimdBackend::kAvx2;
      break;
    case 3:
      pinned = SimdBackend::kSse2;
      break;
    case 4:
      pinned = SimdBackend::kNeon;
      break;
    default:  // auto: the best available
      for (SimdBackend best : {SimdBackend::kAvx512, SimdBackend::kAvx2,
                               SimdBackend::kSse2, SimdBackend::kNeon}) {
        if (SimdBackendAvailable(best)) return best;
      }
      return SimdBackend::kScalar;
  }
  return SimdBackendAvailable(pinned) ? pinned : SimdBackend::kScalar;
}

// -1 = no override; else the pinned SimdBackend.
std::atomic<int> g_backend_override{-1};

}  // namespace

bool SimdBackendAvailable(SimdBackend backend) {
  switch (backend) {
    case SimdBackend::kScalar:
      return true;
    case SimdBackend::kSse2:
#if defined(__x86_64__)
      return true;  // baseline of the x86-64 ABI
#elif defined(__i386__)
      return __builtin_cpu_supports("sse2");
#else
      return false;
#endif
    case SimdBackend::kAvx2:
#if defined(LDPR_SIMD_X86)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case SimdBackend::kAvx512:
#if defined(LDPR_SIMD_X86)
      // POPCNT ships with every AVX-512 CPU; the kernel's target
      // attribute names it, so it is checked all the same.
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq") &&
             __builtin_cpu_supports("popcnt");
#else
      return false;
#endif
    case SimdBackend::kNeon:
#if defined(LDPR_SIMD_NEON)
      return true;
#else
      return false;
#endif
  }
  return false;
}

const char* SimdBackendName(SimdBackend backend) {
  switch (backend) {
    case SimdBackend::kScalar:
      return "scalar";
    case SimdBackend::kSse2:
      return "sse2";
    case SimdBackend::kAvx2:
      return "avx2";
    case SimdBackend::kAvx512:
      return "avx512";
    case SimdBackend::kNeon:
      return "neon";
  }
  return "unknown";
}

SimdBackend ActiveSimdBackend() {
  static const SimdBackend detected = DetectBackend();
  const int override_value = g_backend_override.load(std::memory_order_relaxed);
  return override_value < 0 ? detected
                            : static_cast<SimdBackend>(override_value);
}

const char* ActiveSimdBackendName() {
  return SimdBackendName(ActiveSimdBackend());
}

void SetSimdBackendForTest(SimdBackend backend) {
  LDPR_CHECK(SimdBackendAvailable(backend));
  g_backend_override.store(static_cast<int>(backend),
                           std::memory_order_relaxed);
}

void ClearSimdBackendForTest() {
  g_backend_override.store(-1, std::memory_order_relaxed);
}

// ==================================================================
// Unary column sums.
//
// The accelerated paths accumulate nonzero indicators in 8-bit lanes
// (32 columns per AVX2 add, 16 per SSE2/NEON) and widen into the
// 64-bit accumulator every kByteLaneRows rows — before a lane can
// overflow.  min(row[v], 1) turns any nonzero byte into exactly 1,
// matching the scalar `row[v] != 0` indicator bit for bit.

namespace {

constexpr size_t kByteLaneRows = 255;

void UnaryColumnsScalar(const uint8_t* rows, size_t n, size_t d,
                        uint64_t* acc) {
  for (size_t i = 0; i < n; ++i) {
    const uint8_t* row = rows + i * d;
    for (size_t v = 0; v < d; ++v) acc[v] += (row[v] != 0);
  }
}

#if defined(LDPR_SIMD_X86)

void UnaryColumnsSse2(const uint8_t* rows, size_t n, size_t d,
                      uint64_t* acc) {
  std::vector<uint8_t> acc8(d);
  const __m128i one = _mm_set1_epi8(1);
  for (size_t base = 0; base < n; base += kByteLaneRows) {
    const size_t tile_rows = std::min(n - base, kByteLaneRows);
    std::memset(acc8.data(), 0, d);
    for (size_t i = 0; i < tile_rows; ++i) {
      const uint8_t* row = rows + (base + i) * d;
      size_t v = 0;
      for (; v + 16 <= d; v += 16) {
        const __m128i x = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(row + v));
        __m128i a = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(acc8.data() + v));
        a = _mm_add_epi8(a, _mm_min_epu8(x, one));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(acc8.data() + v), a);
      }
      for (; v < d; ++v) acc8[v] += (row[v] != 0);
    }
    for (size_t v = 0; v < d; ++v) acc[v] += acc8[v];
  }
}

__attribute__((target("avx2"))) void UnaryColumnsAvx2(const uint8_t* rows,
                                                      size_t n, size_t d,
                                                      uint64_t* acc) {
  std::vector<uint8_t> acc8(d);
  const __m256i one = _mm256_set1_epi8(1);
  for (size_t base = 0; base < n; base += kByteLaneRows) {
    const size_t tile_rows = std::min(n - base, kByteLaneRows);
    std::memset(acc8.data(), 0, d);
    for (size_t i = 0; i < tile_rows; ++i) {
      const uint8_t* row = rows + (base + i) * d;
      size_t v = 0;
      for (; v + 32 <= d; v += 32) {
        const __m256i x = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(row + v));
        __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(acc8.data() + v));
        a = _mm256_add_epi8(a, _mm256_min_epu8(x, one));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc8.data() + v), a);
      }
      for (; v < d; ++v) acc8[v] += (row[v] != 0);
    }
    for (size_t v = 0; v < d; ++v) acc[v] += acc8[v];
  }
}

#endif  // LDPR_SIMD_X86

#if defined(LDPR_SIMD_NEON)

void UnaryColumnsNeon(const uint8_t* rows, size_t n, size_t d,
                      uint64_t* acc) {
  std::vector<uint8_t> acc8(d);
  const uint8x16_t one = vdupq_n_u8(1);
  for (size_t base = 0; base < n; base += kByteLaneRows) {
    const size_t tile_rows = std::min(n - base, kByteLaneRows);
    std::memset(acc8.data(), 0, d);
    for (size_t i = 0; i < tile_rows; ++i) {
      const uint8_t* row = rows + (base + i) * d;
      size_t v = 0;
      for (; v + 16 <= d; v += 16) {
        const uint8x16_t x = vld1q_u8(row + v);
        uint8x16_t a = vld1q_u8(acc8.data() + v);
        a = vaddq_u8(a, vminq_u8(x, one));
        vst1q_u8(acc8.data() + v, a);
      }
      for (; v < d; ++v) acc8[v] += (row[v] != 0);
    }
    for (size_t v = 0; v < d; ++v) acc[v] += acc8[v];
  }
}

#endif  // LDPR_SIMD_NEON

void UnaryColumnsDispatch(const uint8_t* rows, size_t n, size_t d,
                          uint64_t* acc) {
  switch (ActiveSimdBackend()) {
#if defined(LDPR_SIMD_X86)
    case SimdBackend::kAvx2:
    case SimdBackend::kAvx512:
      UnaryColumnsAvx2(rows, n, d, acc);
      return;
    case SimdBackend::kSse2:
      UnaryColumnsSse2(rows, n, d, acc);
      return;
#endif
#if defined(LDPR_SIMD_NEON)
    case SimdBackend::kNeon:
      UnaryColumnsNeon(rows, n, d, acc);
      return;
#endif
    default:
      UnaryColumnsScalar(rows, n, d, acc);
      return;
  }
}

}  // namespace

void SimdUnaryColumnsAddPacked(const uint8_t* rows, size_t n, size_t d,
                               uint64_t* acc) {
  UnaryColumnsDispatch(rows, n, d, acc);
}

// ==================================================================
// GRR value histogram.
//
// A scatter histogram does not vectorize without conflict detection,
// but the MGA report stream concentrates on a handful of targets, so
// the scalar loop stalls on store-to-load forwarding of the same hot
// counter.  The accelerated path interleaves four independent
// 32-bit count banks (one per unrolled lane) and merges them once —
// the same integer total in a different grouping, hence bit-exact.

void SimdValueHistogramAdd(const uint32_t* values, size_t n, size_t d,
                           uint64_t* hist) {
  // A sparse batch adds values directly: zeroing and merging the O(d)
  // banks would dominate.
  if (n < d / 4 || ActiveSimdBackend() == SimdBackend::kScalar) {
    for (size_t i = 0; i < n; ++i) {
      const uint32_t v = values[i];
      LDPR_CHECK(v < d);
      ++hist[v];
    }
    return;
  }
  std::vector<uint32_t> banks(4 * d, 0);
  // Flush banks before any 32-bit counter can wrap.
  constexpr size_t kFlushEvery = size_t{1} << 31;
  for (size_t base = 0; base < n; base += kFlushEvery) {
    const size_t count = std::min(n - base, kFlushEvery);
    const uint32_t* chunk = values + base;
    size_t i = 0;
    for (; i + 4 <= count; i += 4) {
      const uint32_t v0 = chunk[i + 0];
      const uint32_t v1 = chunk[i + 1];
      const uint32_t v2 = chunk[i + 2];
      const uint32_t v3 = chunk[i + 3];
      LDPR_CHECK(v0 < d && v1 < d && v2 < d && v3 < d);
      ++banks[v0];
      ++banks[d + v1];
      ++banks[2 * d + v2];
      ++banks[3 * d + v3];
    }
    for (; i < count; ++i) {
      const uint32_t v = chunk[i];
      LDPR_CHECK(v < d);
      ++banks[v];
    }
    for (size_t v = 0; v < d; ++v) {
      const uint64_t total = uint64_t{banks[v]} + banks[d + v] +
                             banks[2 * d + v] + banks[3 * d + v];
      if (total != 0) hist[v] += total;
    }
    if (base + kFlushEvery < n) std::fill(banks.begin(), banks.end(), 0u);
  }
}

// ==================================================================
// OLH/BLH batched support counting.
//
// The scalar reference evaluates the canonical SeededHash per
// (report, item) pair — an out-of-line XxHash64 call plus a hardware
// modulo.  The accelerated path is the algebraically identical
// split-hash evaluation of util/hash_family.h: the item-only xxHash
// round hoists out of the per-seed loop, the per-seed finish inlines
// to four multiplies, and FastMod strength-reduces `% g` (a mask for
// the power-of-two g of the default OLH/BLH parameterizations).  The
// four-way unrolled loop keeps those multiply chains pipelined.
//
// The AVX-512 path runs the same tiles 8 reports per vector: the
// item's XxHash64Round0 is broadcast, the per-seed finish runs in
// 64-bit lanes, and `h % g == value` becomes FastModEquals's
// remainder-free test (one multiply, a rotate, two compares), the
// same predicate lane for lane.  A tile's last vector masks off the
// lanes past its end, and lanes whose value is >= g (which no hash
// can match) are masked off once per tile.

namespace {

void OlhSupportScalar(const uint64_t* seeds, const uint32_t* values, size_t n,
                      size_t d, uint32_t g, uint64_t* counts) {
  constexpr size_t kReportTile = 256;
  for (size_t i0 = 0; i0 < n; i0 += kReportTile) {
    const size_t i1 = std::min(n, i0 + kReportTile);
    for (size_t v = 0; v < d; ++v) {
      uint32_t supported = 0;
      for (size_t i = i0; i < i1; ++i) {
        supported += (SeededHash(seeds[i], g)(v) == values[i]);
      }
      counts[v] += supported;
    }
  }
}

void OlhSupportFast(const uint64_t* seeds, const uint32_t* values, size_t n,
                    size_t d, uint32_t g, uint64_t* counts) {
  const FastMod mod(g);
  constexpr size_t kReportTile = 256;
  uint64_t seed_accs[kReportTile];
  for (size_t i0 = 0; i0 < n; i0 += kReportTile) {
    const size_t tn = std::min(n - i0, kReportTile);
    const uint32_t* tile_values = values + i0;
    for (size_t i = 0; i < tn; ++i)
      seed_accs[i] = XxHash64SeedAcc(seeds[i0 + i]);
    for (size_t v = 0; v < d; ++v) {
      const SeededHashTileEval eval(v, seed_accs, mod);
      uint32_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
      size_t i = 0;
      for (; i + 4 <= tn; i += 4) {
        s0 += (eval.Eval(i + 0) == tile_values[i + 0]);
        s1 += (eval.Eval(i + 1) == tile_values[i + 1]);
        s2 += (eval.Eval(i + 2) == tile_values[i + 2]);
        s3 += (eval.Eval(i + 3) == tile_values[i + 3]);
      }
      for (; i < tn; ++i) s0 += (eval.Eval(i) == tile_values[i]);
      counts[v] += s0 + s1 + s2 + s3;
    }
  }
}

#if defined(LDPR_SIMD_X86)

#define LDPR_AVX512 __attribute__((target("avx512f,avx512dq,popcnt")))

// GCC 12 warns that the unmasked rotate and shift intrinsics read an
// uninitialized pass-through operand; their all-lanes maskz forms
// compile to the same instructions without it.
constexpr __mmask8 kAllLanes = 0xFF;

// FastModEquals(g), broadcast to 8 lanes.
struct ModEqualsLanes {
  __m512i range, inverse, shift, max_quotient;
};

LDPR_AVX512 inline __attribute__((always_inline)) ModEqualsLanes
BroadcastModEquals(uint32_t g) {
  const FastModEquals match(g);
  return {_mm512_set1_epi64(g), _mm512_set1_epi64(match.inverse()),
          _mm512_set1_epi64(match.shift()),
          _mm512_set1_epi64(match.max_quotient())};
}

// The lanes of `live` where FastModEquals(g)(h, value) holds, lane
// for lane the scalar test; `live` must already exclude value >= g.
LDPR_AVX512 inline __attribute__((always_inline)) __mmask8 ModEqualsMask(
    const ModEqualsLanes& m, __m512i h, __m512i value, __mmask8 live) {
  const __mmask8 at_least = _mm512_mask_cmpge_epu64_mask(live, h, value);
  const __m512i quotient = _mm512_maskz_rorv_epi64(
      kAllLanes, _mm512_mullo_epi64(_mm512_sub_epi64(h, value), m.inverse),
      m.shift);
  return _mm512_mask_cmple_epu64_mask(at_least, quotient, m.max_quotient);
}

// XxHash64Key8WithRound0, lane-wise.
LDPR_AVX512 inline __attribute__((always_inline)) __m512i XxHash64Key8Lanes(
    __m512i seed_acc, __m512i round0) {
  using namespace xxhash_detail;
  __m512i h = _mm512_xor_si512(seed_acc, round0);
  h = _mm512_mullo_epi64(_mm512_maskz_rol_epi64(kAllLanes, h, 27),
                         _mm512_set1_epi64(kPrime1));
  h = _mm512_add_epi64(h, _mm512_set1_epi64(kPrime4));
  h = _mm512_xor_si512(h, _mm512_maskz_srli_epi64(kAllLanes, h, 33));
  h = _mm512_mullo_epi64(h, _mm512_set1_epi64(kPrime2));
  h = _mm512_xor_si512(h, _mm512_maskz_srli_epi64(kAllLanes, h, 29));
  h = _mm512_mullo_epi64(h, _mm512_set1_epi64(kPrime3));
  return _mm512_xor_si512(h, _mm512_maskz_srli_epi64(kAllLanes, h, 32));
}

LDPR_AVX512 uint8_t ModEqualsAvx512(const uint64_t* h, const uint64_t* r,
                                    uint32_t g) {
  const ModEqualsLanes m = BroadcastModEquals(g);
  const __m512i value = _mm512_loadu_si512(r);
  return ModEqualsMask(m, _mm512_loadu_si512(h), value,
                       _mm512_cmplt_epu64_mask(value, m.range));
}

LDPR_AVX512 void OlhSupportAvx512(const uint64_t* seeds,
                                  const uint32_t* values, size_t n, size_t d,
                                  uint32_t g, uint64_t* counts) {
  constexpr size_t kReportTile = 256;
  constexpr size_t kLanes = 8;
  const ModEqualsLanes match = BroadcastModEquals(g);
  alignas(64) uint64_t seed_accs[kReportTile];
  alignas(64) uint64_t tile_values[kReportTile];
  __mmask8 live[kReportTile / kLanes];
  for (size_t i0 = 0; i0 < n; i0 += kReportTile) {
    const size_t tn = std::min(n - i0, kReportTile);
    const size_t vectors = (tn + kLanes - 1) / kLanes;
    for (size_t i = 0; i < vectors * kLanes; ++i) {
      seed_accs[i] = i < tn ? XxHash64SeedAcc(seeds[i0 + i]) : 0;
      tile_values[i] = i < tn ? values[i0 + i] : 0;
    }
    for (size_t j = 0; j < vectors; ++j) {
      const size_t lanes = std::min(tn - j * kLanes, kLanes);
      const __mmask8 tail = static_cast<__mmask8>((1u << lanes) - 1);
      live[j] = _mm512_mask_cmplt_epu64_mask(
          tail, _mm512_load_si512(tile_values + j * kLanes), match.range);
    }
    for (size_t v = 0; v < d; ++v) {
      const __m512i round0 = _mm512_set1_epi64(XxHash64Round0(v));
      uint32_t supported = 0;
      for (size_t j = 0; j < vectors; ++j) {
        const __m512i h = XxHash64Key8Lanes(
            _mm512_load_si512(seed_accs + j * kLanes), round0);
        const __mmask8 hit = ModEqualsMask(
            match, h, _mm512_load_si512(tile_values + j * kLanes), live[j]);
        supported += static_cast<uint32_t>(_mm_popcnt_u32(hit));
      }
      counts[v] += supported;
    }
  }
}

// The seed search's vector path keeps r target vectors and g bucket
// vectors on the stack.
constexpr size_t kCraftMaxTargets = 64;
constexpr uint32_t kCraftMaxBuckets = 16;

LDPR_AVX512 void MgaOlhCraftAvx512(const uint64_t* round0, size_t r,
                                   uint32_t g, size_t tries, size_t m,
                                   Rng& rng, uint64_t* seeds,
                                   uint32_t* values) {
  constexpr size_t kLanes = 8;
  const ModEqualsLanes match = BroadcastModEquals(g);
  const uint64_t inverse = FastModEquals(g).inverse();
  const __m512i seed_acc_offset = _mm512_set1_epi64(XxHash64SeedAcc(0));
  const __m512i one = _mm512_set1_epi64(1);
  __m512i target_round0[kCraftMaxTargets];
  for (size_t j = 0; j < r; ++j)
    target_round0[j] = _mm512_set1_epi64(round0[j]);
  // Bucket b and b·o' (mod 2^64), o' the inverse of g's odd part.
  __m512i bucket[kCraftMaxBuckets];
  __m512i bucket_offset[kCraftMaxBuckets];
  for (uint32_t b = 0; b < g; ++b) {
    bucket[b] = _mm512_set1_epi64(b);
    bucket_offset[b] = _mm512_set1_epi64(b * inverse);
  }
  __m512i y[kCraftMaxTargets];
  alignas(64) uint64_t lane_seeds[kLanes];
  alignas(64) uint64_t lane_hits[kLanes];
  alignas(64) uint64_t lane_bucket[kLanes];
  for (size_t i = 0; i < m; ++i) {
    uint64_t best_seed = 0;
    uint32_t best_value = 0;
    size_t best_hits = 0;
    for (size_t done = 0; done < tries && best_hits < r; done += kLanes) {
      const size_t lanes = std::min(tries - done, kLanes);
      const Rng snapshot = rng;
      for (size_t k = 0; k < kLanes; ++k)
        lane_seeds[k] = k < lanes ? rng.Next() : 0;
      const __m512i seed_acc = _mm512_add_epi64(
          _mm512_load_si512(lane_seeds), seed_acc_offset);
      // h % g == b exactly when g divides h - b >= 0.  A hash below
      // g is lifted to h + g (same residue, no wrap), so h >= g > b
      // holds in every lane, and the multiply by o' is hoisted out of
      // the bucket loop: (h - b)·o' = h·o' - b·o' (mod 2^64).
      for (size_t j = 0; j < r; ++j) {
        __m512i h = XxHash64Key8Lanes(seed_acc, target_round0[j]);
        h = _mm512_mask_add_epi64(h, _mm512_cmplt_epu64_mask(h, match.range),
                                  h, match.range);
        y[j] = _mm512_mullo_epi64(h, match.inverse);
      }
      __m512i most = _mm512_setzero_si512();
      __m512i most_bucket = _mm512_setzero_si512();
      for (uint32_t b = 0; b < g; ++b) {
        __m512i hits = _mm512_setzero_si512();
        for (size_t j = 0; j < r; ++j) {
          const __m512i quotient = _mm512_maskz_rorv_epi64(
              kAllLanes, _mm512_sub_epi64(y[j], bucket_offset[b]),
              match.shift);
          hits = _mm512_mask_add_epi64(
              hits, _mm512_cmple_epu64_mask(quotient, match.max_quotient),
              hits, one);
        }
        // Strict > over ascending b keeps the smallest bucket on ties.
        const __mmask8 more = _mm512_cmpgt_epu64_mask(hits, most);
        most = _mm512_mask_mov_epi64(most, more, hits);
        most_bucket = _mm512_mask_mov_epi64(most_bucket, more, bucket[b]);
      }
      _mm512_store_si512(lane_hits, most);
      _mm512_store_si512(lane_bucket, most_bucket);
      for (size_t k = 0; k < lanes; ++k) {
        if (lane_hits[k] > best_hits) {
          best_hits = lane_hits[k];
          best_seed = lane_seeds[k];
          best_value = static_cast<uint32_t>(lane_bucket[k]);
          if (best_hits == r) {
            // The scalar loop stops after this try: it drew k + 1 of
            // the 8 seeds.
            rng = snapshot;
            for (size_t q = 0; q <= k; ++q) rng.Next();
            break;
          }
        }
      }
    }
    seeds[i] = best_seed;
    values[i] = best_value;
  }
}

#undef LDPR_AVX512

#endif  // LDPR_SIMD_X86

}  // namespace

void SimdOlhSupportAdd(const uint64_t* seeds, const uint32_t* values,
                       size_t n, size_t d, uint32_t g, uint64_t* counts) {
  switch (ActiveSimdBackend()) {
    case SimdBackend::kScalar:
      OlhSupportScalar(seeds, values, n, d, g, counts);
      return;
#if defined(LDPR_SIMD_X86)
    case SimdBackend::kAvx512:
      OlhSupportAvx512(seeds, values, n, d, g, counts);
      return;
#endif
    default:
      OlhSupportFast(seeds, values, n, d, g, counts);
      return;
  }
}

// ==================================================================
// MGA's OLH/BLH seed search.
//
// The scalar reference tries one seed at a time: it hashes the r
// targets into buckets and compares them pairwise, O(r^2) time and
// O(r) space whatever g is (g exceeds 10^8 at eps = 20).
//
// The AVX-512 path (g <= 16, r <= 64) runs 8 tries per vector.  Per
// target it finishes xxHash in 64-bit lanes and multiplies once by
// o', the inverse of g's odd part; bucket b's FastModEquals test is
// then a subtract, a rotate and two compares.  Buckets run in the
// outer loop, so each lane's hit count stays in a register, and a
// strict > over ascending b keeps the smallest of the most hit
// buckets.  The 8 seeds are drawn from the Rng after a snapshot, and
// lanes are scanned in draw order with the scalar rule; when lane k
// hits all r targets, the Rng is restored and redraws the k + 1 seeds
// the scalar loop would have drawn.

namespace {

void MgaOlhCraftScalar(const uint64_t* round0, size_t r, uint32_t g,
                       size_t tries, size_t m, Rng& rng, uint64_t* seeds,
                       uint32_t* values) {
  const FastMod mod(g);
  std::vector<uint32_t> buckets(r);
  for (size_t i = 0; i < m; ++i) {
    uint64_t best_seed = 0;
    uint32_t best_value = 0;
    size_t best_hits = 0;
    for (size_t attempt = 0; attempt < tries; ++attempt) {
      const uint64_t seed = rng.Next();
      const uint64_t seed_acc = XxHash64SeedAcc(seed);
      for (size_t j = 0; j < r; ++j) {
        buckets[j] = static_cast<uint32_t>(
            mod(XxHash64Key8WithRound0(round0[j], seed_acc)));
      }
      // Key = (hits, inverted bucket): its maximum is the most
      // shared bucket, the smallest one on ties.
      uint64_t best_key = 0;
      for (const uint32_t bucket : buckets) {
        uint32_t here = 0;
        for (const uint32_t other : buckets) here += other == bucket;
        best_key = std::max(best_key, (uint64_t{here} << 32) | ~bucket);
      }
      const size_t hits = static_cast<size_t>(best_key >> 32);
      if (hits > best_hits) {
        best_hits = hits;
        best_seed = seed;
        best_value = ~static_cast<uint32_t>(best_key);
        if (best_hits == r) break;  // cannot do better
      }
    }
    seeds[i] = best_seed;
    values[i] = best_value;
  }
}

}  // namespace

void SimdMgaOlhCraft(const uint32_t* targets, size_t r, uint32_t g,
                     size_t tries, size_t m, Rng& rng, uint64_t* seeds,
                     uint32_t* values) {
  LDPR_CHECK(r >= 1 && tries >= 1);
  // The targets are fixed across all m reports and all seed tries:
  // precompute each target's item-only xxHash half once.
  std::vector<uint64_t> round0(r);
  for (size_t j = 0; j < r; ++j) round0[j] = XxHash64Round0(targets[j]);
#if defined(LDPR_SIMD_X86)
  if (ActiveSimdBackend() == SimdBackend::kAvx512 &&
      r <= kCraftMaxTargets && g <= kCraftMaxBuckets) {
    MgaOlhCraftAvx512(round0.data(), r, g, tries, m, rng, seeds, values);
    return;
  }
#endif
  MgaOlhCraftScalar(round0.data(), r, g, tries, m, rng, seeds, values);
}

uint8_t SimdModEqualsAvx512ForTest(const uint64_t* h, const uint64_t* r,
                                   uint32_t g) {
  LDPR_CHECK(SimdBackendAvailable(SimdBackend::kAvx512));
#if defined(LDPR_SIMD_X86)
  return ModEqualsAvx512(h, r, g);
#else
  (void)h, (void)r, (void)g;
  return 0;
#endif
}

}  // namespace ldpr
