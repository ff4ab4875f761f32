// Portable SIMD layer for the report-heavy kernels.
//
// Four hot kernels dominate report-heavy trials (see
// docs/architecture.md):
//
//   * column sums over packed unary 0/1 bit rows (OUE/SUE),
//   * the GRR value histogram,
//   * batched SeededHash evaluation for OLH/BLH report tiles,
//   * MGA's OLH/BLH seed search, which crafts every malicious report.
//
// Each kernel ships a scalar reference implementation (always
// compiled, the exact shape of the pre-SIMD per-report code) plus
// accelerated paths: AVX2/SSE2 byte-lane accumulation for the unary
// columns, bank-interleaved counting for the histogram, and for local
// hashing the inline split-xxHash + FastMod evaluation of
// util/hash_family.h, or under AVX-512 an 8-lane xxHash finish whose
// `h % g == value` test is FastModEquals's multiply-rotate-compare.
// The MGA seed search runs the same 8-lane xxHash finish on 8 seed
// tries at once under AVX-512 (g <= 16 and up to 64 targets) and the
// scalar loop everywhere else.
// The backends are scalar, SSE2, AVX2 and AVX-512 on x86 and NEON on
// ARM; AVX-512 runs the AVX2 unary-column and histogram bodies and
// has its own OLH/BLH kernels.  Dispatch is compile-time (only backends
// the target architecture can express are compiled; see the LDPR_SIMD
// CMake option) narrowed at runtime by cpuid: AVX-512 needs avx512f
// and avx512dq, and is picked first when present.  Every kernel
// is bit-exact across backends: the counting kernels add into
// uint64_t support counters, and integer addition regroups exactly;
// the seed search returns the scalar loop's seeds and values and
// leaves the Rng where the scalar loop leaves it
// (tests/report_gen_batch_test.cc and tests/mga_test.cc lock each
// kernel to its scalar reference on every backend the machine offers).
//
// Setting LDPR_FORCE_SCALAR=1 in the environment pins the scalar
// reference paths — the lever the CI determinism job uses to prove
// SIMD-vs-scalar result trees `ldpr_diff --exact`-identical.

#ifndef LDPR_UTIL_SIMD_H_
#define LDPR_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace ldpr {

class Rng;

/// The kernel implementations this build can dispatch to.  kScalar is
/// always available; the others require both compile-time support and
/// (on x86) a runtime cpuid check.
enum class SimdBackend {
  kScalar,
  kSse2,
  kAvx2,
  kAvx512,  // AVX2 kernels plus the AVX-512 OLH/BLH support count
            // and MGA seed search
  kNeon,
};

const char* SimdBackendName(SimdBackend backend);

/// True iff this build compiled `backend` and the running CPU supports
/// it, whatever the LDPR_SIMD pin or LDPR_FORCE_SCALAR say.
bool SimdBackendAvailable(SimdBackend backend);

/// The backend every kernel currently dispatches to: the best
/// available one, unless the LDPR_SIMD CMake option pinned or
/// disabled dispatch, LDPR_FORCE_SCALAR=1 is set in the environment
/// (checked once, at first use), or a test override is active.
SimdBackend ActiveSimdBackend();
const char* ActiveSimdBackendName();

/// Test hooks: pin dispatch to `backend` / restore auto-detection.
/// `backend` must be available (SimdBackendAvailable).
void SetSimdBackendForTest(SimdBackend backend);
void ClearSimdBackendForTest();

// ------------------------------------------------------------------
// Kernels.  All "Add" kernels accumulate into their output (callers
// zero or carry totals); all are bit-exact across backends.

/// Unary column sums, packed rows: for each column v < d, adds the
/// number of rows whose byte row[v] is nonzero to acc[v].  `rows`
/// holds n contiguous d-byte rows.
void SimdUnaryColumnsAddPacked(const uint8_t* rows, size_t n, size_t d,
                               uint64_t* acc);

/// GRR value histogram: adds the occurrence count of each value v to
/// hist[v].  Checks every value against d.  A batch sparse against
/// the domain (n < d/4) adds values directly; a dense one counts in
/// interleaved banks and merges them once.
void SimdValueHistogramAdd(const uint32_t* values, size_t n, size_t d,
                           uint64_t* hist);

/// Batched OLH/BLH support counting: for each item v < d, adds
/// |{ i : H_{seeds[i]}(v) == values[i] }| to counts[v], where H is
/// the SeededHash family with range g.  Bit-identical to the
/// per-report SeededHash loop.  Intended for report tiles (a few
/// hundred reports) so seeds/values stay L1-resident across the item
/// sweep; any n works.
void SimdOlhSupportAdd(const uint64_t* seeds, const uint32_t* values,
                       size_t n, size_t d, uint32_t g, uint64_t* counts);

/// MGA's OLH/BLH crafting (Cao, Jia & Gong, USENIX Security 2021):
/// for each of m reports, draws up to `tries` seeds from `rng` and
/// writes to seeds[i] / values[i] the first seed whose partition
/// H_seed (range g) puts the most of the r `targets` into one bucket,
/// and that bucket, the smallest one on ties.  A try that puts all r
/// targets into one bucket ends the report's search.  Requires
/// r >= 1 and tries >= 1.  Every backend returns the same seeds and
/// values and leaves `rng` at the same point in its stream.
void SimdMgaOlhCraft(const uint32_t* targets, size_t r, uint32_t g,
                     size_t tries, size_t m, Rng& rng, uint64_t* seeds,
                     uint32_t* values);

/// Test hook: bit i is FastModEquals(g)(h[i], r[i]) for i < 8 as the
/// AVX-512 support kernel's lanes compute it.  Requires kAvx512.
uint8_t SimdModEqualsAvx512ForTest(const uint64_t* h, const uint64_t* r,
                                   uint32_t g);

}  // namespace ldpr

#endif  // LDPR_UTIL_SIMD_H_
