#include "tasks/heavy_hitters.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"

namespace ldpr {

namespace {

// Item ids of the top-k entries (frequency desc, id asc on ties).
std::vector<ItemId> TopKIds(const std::vector<double>& frequencies,
                            size_t k) {
  std::vector<ItemId> order(frequencies.size());
  std::iota(order.begin(), order.end(), 0u);
  k = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](ItemId a, ItemId b) {
                      if (frequencies[a] != frequencies[b])
                        return frequencies[a] > frequencies[b];
                      return a < b;
                    });
  order.resize(k);
  return order;
}

// Dense membership mask over the domain: O(d + k) to build, O(1) per
// lookup — top-k vectors scale with the domain, so a std::find per
// probed item would be quadratic in k.
std::vector<uint8_t> TopKMask(const std::vector<ItemId>& top, size_t d) {
  std::vector<uint8_t> mask(d, 0);
  for (ItemId v : top) mask[v] = 1;
  return mask;
}

}  // namespace

double TopKDisplacement(const std::vector<double>& true_frequencies,
                        const std::vector<double>& estimated_frequencies,
                        size_t k) {
  LDPR_CHECK(true_frequencies.size() == estimated_frequencies.size());
  LDPR_CHECK(k >= 1);
  const std::vector<ItemId> truth = TopKIds(true_frequencies, k);
  const std::vector<uint8_t> in_estimate = TopKMask(
      TopKIds(estimated_frequencies, k), estimated_frequencies.size());
  size_t missing = 0;
  for (ItemId t : truth) {
    if (!in_estimate[t]) ++missing;
  }
  return static_cast<double>(missing) / static_cast<double>(truth.size());
}

size_t CountInTopK(const std::vector<double>& frequencies,
                   const std::vector<ItemId>& items, size_t k) {
  const std::vector<uint8_t> in_top =
      TopKMask(TopKIds(frequencies, k), frequencies.size());
  size_t count = 0;
  for (ItemId item : items) {
    if (item < in_top.size() && in_top[item]) ++count;
  }
  return count;
}

}  // namespace ldpr
