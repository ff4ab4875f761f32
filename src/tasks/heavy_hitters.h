// Task-level views of a frequency estimate for heavy-hitter
// publication — the setting where targeted poisoning hurts most (MGA
// exists to push attacker items into the published top-k).
//
// The module measures how much an attack corrupted a published top-k
// ranking and how many attacker targets made it in, so the paper's
// recovery can be evaluated on the task-level outcome rather than raw
// MSE.  Rankings order items by decreasing frequency, ties broken by
// item id.

#ifndef LDPR_TASKS_HEAVY_HITTERS_H_
#define LDPR_TASKS_HEAVY_HITTERS_H_

#include <cstddef>
#include <vector>

#include "ldp/report.h"

namespace ldpr {

/// Fraction of the *true* top-k that is missing from the estimate's
/// top-k (0 = ranking intact, 1 = completely displaced).  The
/// task-level counterpart of MSE for heavy-hitter publication.
double TopKDisplacement(const std::vector<double>& true_frequencies,
                        const std::vector<double>& estimated_frequencies,
                        size_t k);

/// Number of `items` present in the top-k of `frequencies` — counts
/// how many attacker targets made it into a published ranking.
size_t CountInTopK(const std::vector<double>& frequencies,
                   const std::vector<ItemId>& items, size_t k);

}  // namespace ldpr

#endif  // LDPR_TASKS_HEAVY_HITTERS_H_
