#include "ldp/factory.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>

#include "ldp/blh.h"
#include "ldp/grr.h"
#include "ldp/olh.h"
#include "ldp/oue.h"
#include "ldp/sue.h"

namespace ldpr {

std::unique_ptr<FrequencyProtocol> MakeProtocol(ProtocolKind kind, size_t d,
                                                double epsilon) {
  switch (kind) {
    case ProtocolKind::kGrr:
      return std::make_unique<Grr>(d, epsilon);
    case ProtocolKind::kOue:
      return std::make_unique<Oue>(d, epsilon);
    case ProtocolKind::kOlh:
      return std::make_unique<Olh>(d, epsilon);
    case ProtocolKind::kSue:
      return std::make_unique<Sue>(d, epsilon);
    case ProtocolKind::kBlh:
      return std::make_unique<Blh>(d, epsilon);
  }
  return nullptr;
}

Status ValidateEpsilon(ProtocolKind kind, double epsilon) {
  // Negated so NaN fails too.
  if (!(epsilon > 0.0 && std::isfinite(epsilon)))
    return InvalidArgumentError("epsilon must be finite and > 0");
  const double e = std::exp(epsilon);
  if (!std::isfinite(e))
    return InvalidArgumentError(
        "epsilon too large: e^epsilon overflows a double (epsilon <= 709)");
  if (kind == ProtocolKind::kOlh &&
      std::ceil(e + 1.0) > std::numeric_limits<uint32_t>::max())
    return InvalidArgumentError(
        "epsilon too large for OLH: its hash range ceil(e^epsilon + 1) "
        "must fit 32 bits (epsilon <= 22.18)");
  if (kind == ProtocolKind::kSue) {
    const double half = std::exp(epsilon / 2.0);
    if (!(half / (half + 1.0) < 1.0))
      return InvalidArgumentError(
          "epsilon too large for SUE: its keep probability rounds to 1");
  }
  return Status::Ok();
}

StatusOr<ProtocolKind> ParseProtocolKind(const std::string& name) {
  std::string upper(name);
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  if (upper == "GRR") return ProtocolKind::kGrr;
  if (upper == "OUE") return ProtocolKind::kOue;
  if (upper == "OLH") return ProtocolKind::kOlh;
  if (upper == "SUE") return ProtocolKind::kSue;
  if (upper == "BLH") return ProtocolKind::kBlh;
  return InvalidArgumentError("unknown protocol: " + name);
}

}  // namespace ldpr
