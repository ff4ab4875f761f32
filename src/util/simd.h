// Portable SIMD layer for the batched aggregation kernels.
//
// Three hot kernels dominate report-heavy aggregation (see
// docs/architecture.md):
//
//   * column sums over packed unary 0/1 bit rows (OUE/SUE),
//   * the GRR value histogram,
//   * batched SeededHash evaluation for OLH/BLH report tiles.
//
// Each kernel ships a scalar reference implementation (always
// compiled, the exact shape of the pre-SIMD per-report code) plus
// accelerated paths: AVX2/SSE2 byte-lane accumulation for the unary
// columns, bank-interleaved counting for the histogram, and for local
// hashing the inline split-xxHash + FastMod evaluation of
// util/hash_family.h, or under AVX-512 an 8-lane xxHash finish whose
// `h % g == value` test is FastModEquals's multiply-rotate-compare.
// The backends are scalar, SSE2, AVX2 and AVX-512 on x86 and NEON on
// ARM; AVX-512 runs the AVX2 unary-column and histogram bodies and
// has its own OLH/BLH kernel.  Dispatch is compile-time (only backends
// the target architecture can express are compiled; see the LDPR_SIMD
// CMake option) narrowed at runtime by cpuid: AVX-512 needs avx512f
// and avx512dq, and is picked first when present.  Every kernel
// is bit-exact across backends: every kernel adds into uint64_t
// support counters, and integer addition regroups exactly
// (tests/report_gen_batch_test.cc locks each kernel to its scalar
// reference on every backend the machine offers).
//
// Setting LDPR_FORCE_SCALAR=1 in the environment pins the scalar
// reference paths — the lever the CI determinism job uses to prove
// SIMD-vs-scalar result trees `ldpr_diff --exact`-identical.

#ifndef LDPR_UTIL_SIMD_H_
#define LDPR_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace ldpr {

/// The kernel implementations this build can dispatch to.  kScalar is
/// always available; the others require both compile-time support and
/// (on x86) a runtime cpuid check.
enum class SimdBackend {
  kScalar,
  kSse2,
  kAvx2,
  kAvx512,  // AVX2 kernels plus the AVX-512 OLH/BLH support count
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

/// Test hook: bit i is FastModEquals(g)(h[i], r[i]) for i < 8 as the
/// AVX-512 support kernel's lanes compute it.  Requires kAvx512.
uint8_t SimdModEqualsAvx512ForTest(const uint64_t* h, const uint64_t* r,
                                   uint32_t g);

}  // namespace ldpr

#endif  // LDPR_UTIL_SIMD_H_
