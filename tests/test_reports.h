// Small views of the batch API shared by the protocol and attack
// tests: a report's support set and a crafted report (each through a
// one-row ReportBatch), and the support counts of a genuine batch.

#ifndef LDPR_TESTS_TEST_REPORTS_H_
#define LDPR_TESTS_TEST_REPORTS_H_

#include <cstdint>
#include <vector>

#include "ldp/protocol.h"
#include "ldp/report_batch.h"
#include "util/random.h"

namespace ldpr {

/// Support indicator of one report: entry v is 1 iff the report
/// supports item v (a one-row AccumulateSupportsBatch).
inline std::vector<uint64_t> SupportVector(const FrequencyProtocol& protocol,
                                           const Report& report) {
  std::vector<uint64_t> counts(protocol.domain_size(), 0);
  protocol.AccumulateSupportsBatch(std::vector<Report>{report}, counts);
  return counts;
}

/// True iff `report` supports `item` (Eq. (13)).
inline bool Supports(const FrequencyProtocol& protocol, const Report& report,
                     ItemId item) {
  return SupportVector(protocol, report)[item] != 0;
}

/// Support counts of `count` genuine reports of `item` (one
/// AppendGenuineReports batch).
inline std::vector<uint64_t> GenuineSupportCounts(
    const FrequencyProtocol& protocol, ItemId item, uint64_t count, Rng& rng) {
  ReportBatch batch;
  ReportBatch::Builder builder(batch);
  protocol.AppendGenuineReports(item, count, rng, builder);
  std::vector<uint64_t> counts(protocol.domain_size(), 0);
  protocol.AccumulateSupportsBatch(batch, counts);
  return counts;
}

/// One AppendCraftedReport row, extracted.
inline Report CraftedReport(const FrequencyProtocol& protocol, ItemId item,
                            Rng& rng) {
  ReportBatch batch;
  ReportBatch::Builder builder(batch);
  protocol.AppendCraftedReport(item, rng, builder);
  Report report;
  batch.ExtractReport(0, report);
  return report;
}

}  // namespace ldpr

#endif  // LDPR_TESTS_TEST_REPORTS_H_
