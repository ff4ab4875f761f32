// `ldpr stream`: replay the dataset as a time-ordered arrival stream
// through the windowed streaming engine (src/stream/) and print one
// row per closed window.
//
//   # A mid-stream MGA wave over sliding windows:
//   ldpr stream --protocol=OUE --dataset=zipf
//       --wave=wave --beta=0.25 --window=10000 --stride=5000
//
// Extra knobs over the shared layer: --window [n/10 reports],
// --stride [0 = tumbling], --wave [constant]
// (none|constant|wave|ramp; `wave` switches the MGA cohort on over
// the middle [0.3n, 0.7n) of the stream), with --beta as the (peak)
// attacker fraction and --targets as the MGA target count.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "ldp/factory.h"
#include "stream/streaming_engine.h"

namespace ldpr {
namespace cli {
namespace {

StatusOr<WaveShape> ParseWaveShape(const std::string& name) {
  if (name == "none") return WaveShape::kNone;
  if (name == "constant") return WaveShape::kConstant;
  if (name == "wave") return WaveShape::kWave;
  if (name == "ramp") return WaveShape::kRamp;
  return InvalidArgumentError("unknown wave shape: " + name);
}

}  // namespace

int StreamCommand(FlagParser& flags) {
  const TrialFlags trial = ReadTrialFlags(flags);
  const DatasetFlags dataset_flags = ReadDatasetFlags(flags);
  const uint64_t window = flags.GetUint("window", 0);
  const uint64_t stride = flags.GetUint("stride", 0);
  const auto wave = ParseWaveShape(flags.GetString("wave", "constant"));
  flags.Check(wave.status());
  const std::string out_path = flags.GetString("out", "");
  flags.RejectPositional("ldpr stream");
  if (!flags.status().ok()) return ReportError(flags.status());
  if (const Status valid = ValidateEpsilon(trial.protocol, trial.epsilon);
      !valid.ok()) {
    return ReportError(valid);
  }
  const auto dataset_or = ResolveDatasetFlags(dataset_flags, trial.scale);
  if (!dataset_or.ok()) return ReportError(dataset_or.status());
  const Dataset& dataset = *dataset_or;

  StreamSpec spec;
  spec.total_reports = dataset.num_users();
  spec.window_reports = window > 0
                            ? static_cast<size_t>(window)
                            : std::max<size_t>(1, spec.total_reports / 10);
  spec.stride_reports = static_cast<size_t>(stride);
  spec.item_counts = dataset.item_counts;
  spec.wave = *wave;
  spec.attacker_fraction = spec.wave == WaveShape::kNone ? 0.0 : trial.beta;
  spec.num_targets = static_cast<size_t>(trial.targets);
  if (spec.wave == WaveShape::kWave) {
    spec.wave_start = spec.total_reports * 3 / 10;
    spec.wave_end = spec.total_reports * 7 / 10;
  }
  if (const Status valid = ValidateStreamSpec(spec); !valid.ok())
    return ReportError(valid);

  auto sink_or = MakeRunSink(out_path, "cli-stream");
  if (!sink_or.ok()) return ReportError(sink_or.status());
  ResultSink& sink = **sink_or;

  const auto protocol =
      MakeProtocol(trial.protocol, dataset.domain_size(), trial.epsilon);
  StreamEngineOptions options;
  options.recover.eta = trial.eta;
  const double base = ApproxGenuineSuspicionRate(*protocol, spec.num_targets);
  const double peak =
      spec.attacker_fraction > 0.0 ? spec.attacker_fraction : 0.25;
  options.detect_fraction = base + peak * (1.0 - base) / 2.0;

  std::printf("ldpr stream: %s on %s (d=%zu, n=%llu), eps=%g, "
              "wave=%s, beta=%g, window=%zu, stride=%zu\n\n",
              ProtocolKindName(trial.protocol), dataset.name.c_str(),
              dataset.domain_size(),
              static_cast<unsigned long long>(spec.total_reports),
              trial.epsilon,
              WaveShapeName(spec.wave), spec.attacker_fraction,
              spec.window_reports, spec.stride_reports);

  const StreamSummary summary =
      RunStream(*protocol, spec, options, trial.seed);

  sink.BeginTable("Streaming windows",
                  {"Reports", "Attackers", "MSE", "RecMSE", "Detected"});
  for (const WindowResult& w : summary.windows) {
    sink.AddRow("win" + std::to_string(w.index),
                {static_cast<double>(w.report_count),
                 static_cast<double>(w.attackers), w.mse_estimate,
                 w.mse_recovered, w.detected ? 1.0 : 0.0});
  }
  sink.EndTable();

  if (summary.windows_to_detection == kNoDetection) {
    std::printf("windows to detection: none flagged\n");
  } else {
    std::printf("windows to detection: %lld after attack onset\n",
                static_cast<long long>(summary.windows_to_detection));
  }
  std::printf("total: %zu reports (%zu attackers), peak buffer %zu "
              "reports, mean window MSE %.3e (recovered %.3e)\n",
              summary.total_reports, summary.total_attackers,
              summary.peak_buffered_reports, summary.mean_mse_estimate,
              summary.mean_mse_recovered);

  if (const Status finish = sink.Finish(); !finish.ok())
    return ReportError(finish);
  if (!out_path.empty()) std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace cli
}  // namespace ldpr
