#include "attack/mga.h"

#include <cmath>

#include "ldp/olh.h"
#include "ldp/unary.h"
#include "util/logging.h"
#include "util/simd.h"

namespace ldpr {

MgaAttack::MgaAttack(std::vector<ItemId> targets, MgaOptions options)
    : targets_(std::move(targets)), options_(options) {
  LDPR_CHECK(!targets_.empty());
}

std::vector<ItemId> MgaAttack::SampleTargets(size_t d, size_t r, Rng& rng) {
  LDPR_CHECK(r >= 1 && r <= d);
  return SampleWithoutReplacement(d, r, rng);
}

void MgaAttack::CraftBatch(const FrequencyProtocol& protocol, size_t m,
                           Rng& rng, ReportBatch::Builder& out) const {
  switch (protocol.kind()) {
    case ProtocolKind::kGrr: {
      out.Reserve(m);
      for (size_t i = 0; i < m; ++i) {
        const ItemId t = targets_[rng.UniformU64(targets_.size())];
        protocol.AppendCraftedReport(t, rng, out);
      }
      break;
    }
    case ProtocolKind::kOue:
    case ProtocolKind::kSue: {
      const auto& oue = static_cast<const UnaryEncoding&>(protocol);
      const size_t d = oue.domain_size();
      out.SetBitsWidth(d);
      out.Reserve(m);
      const size_t expected =
          static_cast<size_t>(std::llround(oue.ExpectedOnes()));
      for (size_t i = 0; i < m; ++i) {
        // Set every target bit in the zeroed row, then bring the
        // 1-count up to the expected count of a genuine report so the
        // crafted vectors pass a naive 1-count anomaly check.
        uint8_t* row = out.AddBitsRow();
        size_t ones = 0;
        for (ItemId t : targets_) {
          LDPR_CHECK(t < d);
          if (!row[t]) {
            row[t] = 1;
            ++ones;
          }
        }
        if (options_.pad_oue) {
          size_t guard = 0;
          while (ones < expected && guard < 16 * d) {
            const ItemId v = static_cast<ItemId>(rng.UniformU64(d));
            ++guard;
            if (!row[v]) {
              row[v] = 1;
              ++ones;
            }
          }
        }
      }
      break;
    }
    case ProtocolKind::kOlh:
    case ProtocolKind::kBlh: {
      const auto& olh = static_cast<const OlhBase&>(protocol);
      std::vector<uint64_t> seeds(m);
      std::vector<uint32_t> values(m);
      SimdMgaOlhCraft(targets_.data(), targets_.size(), olh.g(),
                      options_.olh_seed_tries, m, rng, seeds.data(),
                      values.data());
      out.Reserve(m);
      for (size_t i = 0; i < m; ++i) out.AddSeedValue(seeds[i], values[i]);
      break;
    }
  }
}

}  // namespace ldpr
