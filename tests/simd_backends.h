// The SIMD backends a kernel test runs against: every one the running
// machine offers, and a scope that pins dispatch to one of them.

#ifndef LDPR_TESTS_SIMD_BACKENDS_H_
#define LDPR_TESTS_SIMD_BACKENDS_H_

#include <vector>

#include "util/simd.h"

namespace ldpr {

/// Every backend SimdBackendAvailable reports, the scalar reference
/// first.
inline std::vector<SimdBackend> TestableBackends() {
  std::vector<SimdBackend> backends;
  for (SimdBackend backend :
       {SimdBackend::kScalar, SimdBackend::kSse2, SimdBackend::kAvx2,
        SimdBackend::kAvx512, SimdBackend::kNeon}) {
    if (SimdBackendAvailable(backend)) backends.push_back(backend);
  }
  return backends;
}

/// Pins kernel dispatch to `backend` for the scope's lifetime.
class ScopedBackend {
 public:
  explicit ScopedBackend(SimdBackend backend) {
    SetSimdBackendForTest(backend);
  }
  ~ScopedBackend() { ClearSimdBackendForTest(); }
};

}  // namespace ldpr

#endif  // LDPR_TESTS_SIMD_BACKENDS_H_
