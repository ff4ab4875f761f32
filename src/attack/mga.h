// MGA: the Maximal Gain Attack of Cao, Jia & Gong (USENIX Security
// 2021) — the targeted poisoning attack the paper evaluates against.
//
// The attacker picks r target items T and crafts each malicious
// user's report so that it supports as many targets as the encoding
// permits:
//   * GRR   — a report carries one item, so each fake user sends one
//             target (uniformly over T, i.e. the paper's adaptive-
//             attack distribution with mass 1/r on each target);
//   * OUE   — the crafted bit vector sets the bit of *every* target;
//             optionally the vector is padded with random non-target
//             bits up to the expected 1-count of a genuine report so
//             that simple length-based anomaly checks do not flag it;
//   * OLH   — the attacker searches random hash seeds for one whose
//             induced partition maps many targets into a common
//             bucket, then reports (seed, that bucket).

#ifndef LDPR_ATTACK_MGA_H_
#define LDPR_ATTACK_MGA_H_

#include "attack/attack.h"

namespace ldpr {

/// Options of the MGA attack.
struct MgaOptions {
  /// Pad crafted OUE vectors to the expected genuine 1-count.
  bool pad_oue = true;
  /// Random seeds tried per crafted OLH report.
  size_t olh_seed_tries = 64;
};

class MgaAttack final : public Attack {
 public:
  /// `targets` must be non-empty and within the domain of every
  /// protocol this attack is used with.
  MgaAttack(std::vector<ItemId> targets, MgaOptions options = MgaOptions());

  std::string Name() const override { return "MGA"; }
  std::vector<ItemId> targets() const override { return targets_; }

  /// GRR: one uniformly drawn target per report.  OUE/SUE: every
  /// target bit plus random padding, written straight into packed
  /// rows.  OLH/BLH: the best of `olh_seed_tries` random seeds,
  /// emitted as (seed, bucket) pairs; the search is the dispatched
  /// SimdMgaOlhCraft kernel (util/simd.h), which under AVX-512 tries
  /// 8 seeds per vector for small g and draws the same seeds from
  /// `rng` as the scalar loop.
  void CraftBatch(const FrequencyProtocol& protocol, size_t m, Rng& rng,
                  ReportBatch::Builder& out) const override;

  /// Picks r distinct random targets in {0, ..., d-1} — the paper's
  /// "randomly select target items" (Section VI-A3).
  static std::vector<ItemId> SampleTargets(size_t d, size_t r, Rng& rng);

 private:
  std::vector<ItemId> targets_;
  MgaOptions options_;
};

}  // namespace ldpr

#endif  // LDPR_ATTACK_MGA_H_
