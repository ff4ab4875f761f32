#include "reenact.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "attack/attack.h"
#include "ldp/factory.h"
#include "recover/detection.h"
#include "recover/kmeans_defense.h"
#include "recover/ldprecover.h"
#include "recover/outlier.h"
#include "recover/simplex_projection.h"
#include "runner/scenario_runner.h"
#include "shard/fault.h"
#include "shard/merge.h"
#include "shard/shard_task.h"
#include "sim/experiment.h"
#include "sim/pipeline.h"
#include "stream/streaming_engine.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace perfbench {

using namespace ldpr;  // NOLINT: benchmark code speaks the library's names

namespace {

using Values = std::vector<double>;

// ---------------------------------------------------------- scheduling

// The per-unit bookkeeping of one parallel region.
struct Region {
  explicit Region(size_t units) : wait_s(units), busy_s(units) {}
  Clock::time_point start = Clock::now();
  std::vector<double> wait_s;
  std::vector<double> busy_s;

  // Folds the region's pool wait and idle worker time into `trace`.
  void Close(size_t outer, UnitTrace* trace) const {
    if (trace == nullptr) return;
    const double wall = SecondsSince(start);
    double busy = 0;
    for (size_t i = 0; i < wait_s.size(); ++i) {
      trace->pool_wait_s += wait_s[i];
      busy += busy_s[i];
    }
    trace->pool_idle_s += std::max(0.0, static_cast<double>(outer) * wall - busy);
  }
};

// RunTrialGrid's schedule: flat unit i = cell * trials + trial runs
// fn(cell, shards, DeriveSeed(seed, i), trace) on the budgeted outer
// fan-out.  Unit traces merge into `scenario_trace` in unit order.
template <typename Fn>
std::vector<Values> TrialGrid(size_t cells, size_t trials, uint64_t seed,
                              UnitTrace* scenario_trace, const Fn& fn) {
  const size_t total = cells * trials;
  const ThreadBudget budget = SplitThreadBudget(0, total);
  std::vector<Values> outputs(total);
  std::vector<UnitTrace> traces(total);
  Region region(total);
  ParallelFor(budget.outer, total, [&](size_t i) {
    const Clock::time_point start = Clock::now();
    region.wait_s[i] =
        std::chrono::duration<double>(start - region.start).count();
    UnitTrace* trace = scenario_trace != nullptr ? &traces[i] : nullptr;
    outputs[i] = fn(i / trials, budget.inner, DeriveSeed(seed, i), trace);
    region.busy_s[i] = SecondsSince(start);
    if (trace != nullptr) trace->busy_s = region.busy_s[i];
  });
  region.Close(budget.outer, scenario_trace);
  if (scenario_trace != nullptr)
    for (const UnitTrace& trace : traces) scenario_trace->Merge(trace);
  return outputs;
}

// Per cell, the mean over trials of each of the first `columns`
// unit outputs — RunningStat in trial order, as the scenarios fold.
std::vector<Values> FoldCells(const std::vector<Values>& outputs,
                              size_t cells, size_t trials, size_t columns) {
  std::vector<Values> rows(cells);
  for (size_t cell = 0; cell < cells; ++cell) {
    std::vector<RunningStat> stats(columns);
    for (size_t t = 0; t < trials; ++t) {
      const Values& unit = outputs[cell * trials + t];
      for (size_t c = 0; c < columns; ++c) stats[c].Add(unit[c]);
    }
    for (const RunningStat& stat : stats) rows[cell].push_back(stat.mean());
  }
  return rows;
}

// Protocol construction inside a unit (`scenario_level` false) is
// part of the unit's busy time already; outside any unit it is added.
std::unique_ptr<FrequencyProtocol> TracedMakeProtocol(ProtocolKind kind,
                                                      size_t d, double eps,
                                                      UnitTrace* trace,
                                                      bool scenario_level) {
  Span span(trace, "ldp.make_protocol_s");
  std::unique_ptr<FrequencyProtocol> protocol = MakeProtocol(kind, d, eps);
  const double s = span.Stop();
  if (trace != nullptr && scenario_level) trace->busy_s += s;
  return protocol;
}

StatusOr<std::vector<Dataset>> TracedResolve(const ScenarioSpec& spec,
                                             double scale, UnitTrace* trace) {
  Span span(trace, "data.resolve_s");
  auto datasets = ResolveDatasets(spec, scale);
  const double s = span.Stop();
  if (trace != nullptr) trace->busy_s += s;
  return datasets;
}

// --------------------------------------------------- poisoning trials

Values EncodeTrial(const TrialMetrics& t) {
  Values out;
  for (const std::optional<double>* field :
       {&t.mse_before, &t.mse_recover, &t.mse_recover_star, &t.mse_detection,
        &t.fg_before, &t.fg_recover, &t.fg_recover_star, &t.fg_detection,
        &t.mse_malicious_recover, &t.mse_malicious_recover_star}) {
    out.push_back(field->has_value() ? 1.0 : 0.0);
    out.push_back(field->value_or(0.0));
  }
  return out;
}

// RunSingleTrial, layer by layer: genuine sampling, attack crafting,
// malicious aggregation, LDPRecover / LDPRecover*, Detection.
TrialMetrics TracedTrial(const ExperimentConfig& config,
                         const Dataset& dataset, uint64_t trial_seed,
                         UnitTrace* trace) {
  const std::unique_ptr<FrequencyProtocol> protocol = TracedMakeProtocol(
      config.protocol, dataset.domain_size(), config.epsilon, trace,
      /*scenario_level=*/false);
  const PipelineConfig& pc = config.pipeline;
  const size_t d = protocol->domain_size();
  Rng rng(trial_seed);
  const size_t n = dataset.num_users();
  const size_t m =
      pc.attack == AttackKind::kNone ? 0 : MaliciousUserCount(pc.beta, n);
  const std::vector<double> true_freqs = dataset.TrueFrequencies();

  const uint64_t genuine_seed = rng.Next();
  std::vector<double> genuine_counts;
  {
    Span span(trace, "ldp.sample_genuine_s");
    genuine_counts =
        pc.exact_genuine
            ? ExactGenuineSupportCountsSharded(*protocol, dataset.item_counts,
                                               genuine_seed, pc.shards)
            : protocol->SampleSupportCountsSharded(dataset.item_counts,
                                                   genuine_seed, pc.shards);
  }
  Count(trace, "ldp.sample_genuine_users", n);
  const std::vector<double> genuine_freqs =
      protocol->EstimateFrequencies(genuine_counts, n);

  std::vector<double> malicious_counts(d, 0.0);
  std::vector<double> malicious_freqs;
  std::vector<ItemId> targets;
  ReportBatch malicious;
  if (m > 0) {
    Span craft(trace, "attack.craft_s");
    const std::unique_ptr<Attack> attack = MakeAttack(pc, d, rng);
    targets = attack->targets();
    ReportBatch::Builder builder(malicious);
    attack->CraftBatch(*protocol, m, rng, builder);
    const double craft_s = craft.Stop();
    Count(trace, "attack.crafted_reports", m);
    if (trace != nullptr && pc.attack == AttackKind::kMgaIpa) {
      trace->ipa_craft_s[m] += craft_s;
      trace->ipa_craft_reports[m] += m;
    }

    Span aggregate(trace, "ldp.aggregate_s");
    Aggregator aggregator(*protocol);
    aggregator.AddAllSharded(malicious, pc.shards);
    malicious_counts = aggregator.support_counts();
    aggregate.Stop();
    Count(trace, "ldp.aggregate_reports", m);
    malicious_freqs = protocol->EstimateFrequencies(malicious_counts, m);
  }
  std::vector<double> combined(d);
  for (size_t v = 0; v < d; ++v)
    combined[v] = genuine_counts[v] + malicious_counts[v];
  const std::vector<double> poisoned =
      protocol->EstimateFrequencies(combined, n + m);

  TrialMetrics out;
  const bool attacked = m > 0;
  const bool targeted = !targets.empty();
  out.mse_before = Mse(true_freqs, poisoned);
  if (targeted)
    out.fg_before = FrequencyGain(genuine_freqs, poisoned, targets);

  // Runs one LDPRecover instance inside the recovery span and counts
  // the simplex refinement's iterations outside it.
  const auto recover = [&](const RecoverOptions& options,
                           std::vector<double>& recovered,
                           std::vector<double>& malicious_estimate) {
    Span span(trace, "recover.ldprecover_s");
    const LdpRecover instance(*protocol, options);
    recovered = instance.Recover(poisoned);
    if (attacked)
      malicious_estimate = instance.EstimateMaliciousFrequencies(poisoned);
    span.Stop();
    Count(trace, "recover.ldprecover_calls", 1);
    if (trace != nullptr) {
      Count(trace, "recover.simplex_iters",
            SimplexProjectionIterations(
                instance.EstimateGenuineFrequencies(poisoned)));
    }
  };

  RecoverOptions base_opts;
  base_opts.eta = config.eta;
  base_opts.paper_literal_subdomain_sum = config.paper_literal_subdomain_sum;
  std::vector<double> recovered, malicious_estimate;
  recover(base_opts, recovered, malicious_estimate);
  out.mse_recover = Mse(true_freqs, recovered);
  if (targeted)
    out.fg_recover = FrequencyGain(genuine_freqs, recovered, targets);
  if (attacked)
    out.mse_malicious_recover = Mse(malicious_freqs, malicious_estimate);

  if (attacked && (config.run_star || config.run_detection)) {
    const std::vector<ItemId> star_targets =
        targeted ? targets
                 : TopFrequencyGainers(
                       genuine_freqs, poisoned,
                       std::max<size_t>(1, pc.num_targets / 2));

    if (config.run_star && !star_targets.empty() && star_targets.size() < d) {
      RecoverOptions star_opts = base_opts;
      star_opts.known_targets = star_targets;
      std::vector<double> recovered_star, malicious_star;
      recover(star_opts, recovered_star, malicious_star);
      out.mse_recover_star = Mse(true_freqs, recovered_star);
      if (targeted)
        out.fg_recover_star =
            FrequencyGain(genuine_freqs, recovered_star, targets);
      out.mse_malicious_recover_star = Mse(malicious_freqs, malicious_star);
    }

    if (config.run_detection && !star_targets.empty()) {
      Span span(trace, "recover.detection_s");
      DetectionFilter filter(*protocol, star_targets);
      if (pc.exact_genuine) {
        filter.OfferExactGenuine(dataset.item_counts, rng);
      } else {
        filter.OfferSampledGenuineSharded(dataset.item_counts, rng.Next(),
                                          pc.shards);
      }
      filter.OfferAll(malicious);
      std::vector<double> detected;
      if (filter.kept() > 0) detected = filter.Estimate();
      span.Stop();
      Count(trace, "recover.detection_offered", filter.offered());
      Count(trace, "recover.detection_kept", filter.kept());
      if (filter.kept() > 0) {
        out.mse_detection = Mse(true_freqs, detected);
        if (targeted)
          out.fg_detection = FrequencyGain(genuine_freqs, detected, targets);
      }
    }
  }
  return out;
}

// RunGridScenario + RunExperimentGrid + RunExperiment's schedule: per
// dataset, configs fan out on the outer budget and each config's
// trials split its share.  Untraced units call RunSingleTrial.
StatusOr<Reenactment> ReenactGrid(const Scenario& scenario,
                                  const ScenarioRun& run, uint64_t seed,
                                  UnitTrace* trace) {
  const ScenarioSpec& spec = scenario.spec;
  auto lowered = LowerScenario(spec, run.trials, seed);
  if (!lowered.ok()) return lowered.status();
  auto datasets = TracedResolve(spec, run.scale, trace);
  if (!datasets.ok()) return datasets.status();

  struct ConfigRef {
    size_t table, row, index;
  };
  std::vector<std::vector<std::vector<ExperimentResult>>> results(
      lowered->tables.size());
  for (size_t t = 0; t < lowered->tables.size(); ++t) {
    for (const LoweredRow& row : lowered->tables[t].rows) {
      if (row.n_override != 0 || row.d_override != 0)
        return InvalidArgumentError("dataset-axis sweeps are not re-enacted");
      results[t].emplace_back(row.configs.size());
    }
  }
  Reenactment out;
  for (size_t ds = 0; ds < datasets->size(); ++ds) {
    std::vector<ConfigRef> batch;
    for (size_t t = 0; t < lowered->tables.size(); ++t) {
      if (lowered->tables[t].dataset_index != ds) continue;
      for (size_t r = 0; r < lowered->tables[t].rows.size(); ++r) {
        for (size_t c = 0; c < results[t][r].size(); ++c)
          batch.push_back({t, r, c});
      }
    }
    if (batch.empty()) continue;
    const Dataset& dataset = (*datasets)[ds];

    const size_t threads = DefaultThreadCount();
    const ThreadBudget budget = SplitThreadBudget(threads, batch.size());
    const size_t used = budget.inner * budget.outer;
    const size_t remainder = threads > used ? threads - used : 0;
    std::vector<std::vector<TrialMetrics>> metrics(batch.size());
    std::vector<std::vector<UnitTrace>> traces(batch.size());
    Region region(batch.size());
    ParallelFor(budget.outer, batch.size(), [&](size_t i) {
      const Clock::time_point start = Clock::now();
      region.wait_s[i] =
          std::chrono::duration<double>(start - region.start).count();
      const ConfigRef& ref = batch[i];
      ExperimentConfig config =
          lowered->tables[ref.table].rows[ref.row].configs[ref.index];
      config.threads = budget.inner + (i < remainder ? 1 : 0);
      const ThreadBudget trial_budget =
          SplitThreadBudget(config.threads, config.trials);
      config.pipeline.shards = trial_budget.inner;
      metrics[i].resize(config.trials);
      traces[i].resize(config.trials);
      ParallelFor(trial_budget.outer, config.trials, [&](size_t k) {
        const Clock::time_point unit_start = Clock::now();
        const uint64_t trial_seed = DeriveSeed(config.seed, k);
        if (trace == nullptr) {
          metrics[i][k] = RunSingleTrial(config, dataset, trial_seed);
        } else {
          metrics[i][k] =
              TracedTrial(config, dataset, trial_seed, &traces[i][k]);
          traces[i][k].busy_s = SecondsSince(unit_start);
        }
      });
      region.busy_s[i] = SecondsSince(start);
    });
    region.Close(budget.outer, trace);

    for (size_t i = 0; i < batch.size(); ++i) {
      ExperimentResult merged;
      for (size_t k = 0; k < metrics[i].size(); ++k) {
        MergeTrialMetrics(metrics[i][k], merged);
        out.unit_outputs.push_back(EncodeTrial(metrics[i][k]));
        if (trace != nullptr) trace->Merge(traces[i][k]);
      }
      results[batch[i].table][batch[i].row][batch[i].index] =
          std::move(merged);
    }
  }

  for (size_t t = 0; t < lowered->tables.size(); ++t) {
    RowTable table;
    table.title = lowered->tables[t].title;
    table.columns = spec.columns;
    for (size_t r = 0; r < lowered->tables[t].rows.size(); ++r) {
      table.labels.push_back(lowered->tables[t].rows[r].label);
      table.values.push_back(scenario.format_row(results[t][r]));
    }
    out.tables.push_back(std::move(table));
  }
  return out;
}

// ------------------------------------------------------------- fig9

// The Figure 9 trial: per-user perturbation, MGA-IPA crafting, the
// full aggregate, the k-means defense and LDPRecover-KM.  There is no
// public per-trial entry point, so the untraced unit is this same
// body with tracing off.
Values Fig9Trial(const FrequencyProtocol& protocol, const Dataset& dataset,
                 const std::vector<double>& truth, double xi, double beta,
                 size_t shards, uint64_t trial_seed, UnitTrace* trace) {
  Rng rng(trial_seed);
  PipelineConfig pconfig;
  pconfig.attack = AttackKind::kMgaIpa;
  pconfig.beta = beta;
  const size_t m = MaliciousUserCount(pconfig.beta, dataset.num_users());

  std::vector<Report> reports;
  {
    Span span(trace, "ldp.perturb_s");
    reports.reserve(dataset.num_users() + m);
    for (ItemId item = 0; item < dataset.domain_size(); ++item) {
      for (uint64_t u = 0; u < dataset.item_counts[item]; ++u)
        reports.push_back(protocol.Perturb(item, rng));
    }
  }
  Count(trace, "ldp.perturb_reports", dataset.num_users());
  {
    Span span(trace, "attack.craft_s");
    const auto attack = MakeAttack(pconfig, dataset.domain_size(), rng);
    auto crafted = attack->Craft(protocol, m, rng);
    std::move(crafted.begin(), crafted.end(), std::back_inserter(reports));
  }
  Count(trace, "attack.crafted_reports", m);

  Values row(3);
  {
    Span span(trace, "ldp.aggregate_s");
    Aggregator all(protocol);
    all.AddAllSharded(reports, shards);
    span.Stop();
    row[0] = Mse(truth, all.EstimateFrequencies());
  }
  Count(trace, "ldp.aggregate_reports", reports.size());

  KMeansDefenseOptions opts;
  opts.sample_rate = xi;
  Span defense_span(trace, "recover.kmeans_s");
  const KMeansDefenseResult defense =
      RunKMeansDefense(protocol, reports, opts, rng);
  defense_span.Stop();
  Count(trace, "recover.kmeans_calls", 1);
  Count(trace, "recover.kmeans_defense_runs", 1);
  Sum(trace, "recover.kmeans_malicious_subset_frac",
      defense.malicious_subset_fraction);
  row[1] = Mse(truth, defense.genuine_estimate);

  Span km_span(trace, "recover.kmeans_s");
  const std::vector<double> km = LdpRecoverKm(protocol, reports, opts, 0.2, rng);
  km_span.Stop();
  Count(trace, "recover.kmeans_calls", 1);
  row[2] = Mse(truth, km);
  return row;
}

StatusOr<Reenactment> ReenactFig9(const Scenario& scenario,
                                  const ScenarioRun& run, uint64_t seed,
                                  UnitTrace* trace) {
  const ScenarioSpec& spec = scenario.spec;
  auto datasets = TracedResolve(spec, run.scale, trace);
  if (!datasets.ok()) return datasets.status();
  const Dataset& ipums = (*datasets)[0];
  const std::vector<double> truth = ipums.TrueFrequencies();
  const std::vector<double>& xis = spec.sweeps[0].values;

  Reenactment out;
  for (size_t p = 0; p < spec.protocols.size(); ++p) {
    const ProtocolKind kind = spec.protocols[p];
    const auto protocol =
        TracedMakeProtocol(kind, ipums.domain_size(), spec.defaults.epsilon,
                           trace, /*scenario_level=*/true);
    const std::vector<Values> units = TrialGrid(
        xis.size(), run.trials, DeriveSeed(seed, p), trace,
        [&](size_t xi_index, size_t shards, uint64_t trial_seed,
            UnitTrace* unit_trace) {
          return Fig9Trial(*protocol, ipums, truth, xis[xi_index],
                           spec.defaults.beta, shards, trial_seed, unit_trace);
        });
    RowTable table;
    table.title = std::string("Figure 9 (IPUMS, MGA-IPA, ") +
                  ProtocolKindName(kind) + "): MSE vs xi";
    table.columns = spec.columns;
    table.values = FoldCells(units, xis.size(), run.trials, 3);
    for (double xi : xis) {
      char name[32];
      std::snprintf(name, sizeof(name), "xi=%g", xi);
      table.labels.push_back(name);
    }
    out.tables.push_back(std::move(table));
    out.unit_outputs.insert(out.unit_outputs.end(), units.begin(), units.end());
  }
  return out;
}

// -------------------------------------------------------- streaming

StreamSummary TracedRunStream(const FrequencyProtocol& protocol,
                              const StreamSpec& spec,
                              const StreamEngineOptions& options,
                              uint64_t seed, UnitTrace* trace) {
  Span span(trace, "stream.run_s");
  StreamSummary summary = RunStream(protocol, spec, options, seed);
  span.Stop();
  Count(trace, "stream.reports", summary.total_reports);
  Count(trace, "stream.windows", summary.windows.size());
  Max(trace, "stream.peak_buffered_reports", summary.peak_buffered_reports);
  return summary;
}

// The streaming scenarios' detection threshold and window size
// (bench/scenario_streaming.cc).
StreamEngineOptions StreamOptionsFor(const FrequencyProtocol& protocol,
                                     size_t num_targets,
                                     double peak_fraction) {
  StreamEngineOptions options;
  const double base = ApproxGenuineSuspicionRate(protocol, num_targets);
  options.detect_fraction = base + peak_fraction * (1.0 - base) / 2.0;
  return options;
}

size_t DefaultWindowReports(size_t total) {
  return std::max<size_t>(1, total / 10);
}

double Detect(const StreamSummary& summary) {
  return static_cast<double>(summary.windows_to_detection);
}

std::vector<double> GenuineFreqs(const std::vector<uint64_t>& tally) {
  uint64_t genuine = 0;
  for (uint64_t c : tally) genuine += c;
  std::vector<double> f(tally.size(), 0.0);
  if (genuine > 0) {
    for (size_t v = 0; v < f.size(); ++v)
      f[v] = static_cast<double>(tally[v]) / static_cast<double>(genuine);
  }
  return f;
}

StatusOr<Reenactment> ReenactStreaming(const Scenario& scenario,
                                       const ScenarioRun& run, uint64_t seed,
                                       UnitTrace* trace) {
  const ScenarioSpec& spec = scenario.spec;
  auto datasets = TracedResolve(spec, run.scale, trace);
  if (!datasets.ok()) return datasets.status();
  const Dataset& data = (*datasets)[0];
  const size_t cells = spec.protocols.size();
  std::vector<std::unique_ptr<FrequencyProtocol>> protocols;
  for (ProtocolKind kind : spec.protocols)
    protocols.push_back(TracedMakeProtocol(kind, data.domain_size(),
                                           spec.defaults.epsilon, trace,
                                           /*scenario_level=*/true));

  const size_t total = data.num_users();
  StreamSpec stream;
  stream.total_reports = total;
  stream.num_targets = spec.defaults.num_targets;
  std::function<Values(size_t, size_t, uint64_t, UnitTrace*)> unit;
  std::string title;
  StreamSpec wave;

  if (spec.id == "streaming_equiv") {
    title = "Streaming vs batch equivalence (Zipf)";
    stream.window_reports = total;
    stream.item_counts = data.item_counts;
    stream.wave = WaveShape::kConstant;
    stream.attacker_fraction = 0.05;
    unit = [&](size_t cell, size_t shards, uint64_t trial_seed,
               UnitTrace* t) {
      const FrequencyProtocol& protocol = *protocols[cell];
      StreamEngineOptions options = StreamOptionsFor(
          protocol, stream.num_targets, stream.attacker_fraction);
      options.run_recovery = false;
      const StreamSummary summary =
          TracedRunStream(protocol, stream, options, trial_seed, t);
      Span replay_span(t, "stream.replay_s");
      const StreamReplay replay = ReplayStream(protocol, stream, trial_seed);
      replay_span.Stop();
      Count(t, "stream.replay_reports", replay.reports.size());
      Span aggregate_span(t, "ldp.aggregate_s");
      Aggregator aggregator(protocol);
      aggregator.AddAllSharded(replay.reports, shards);
      aggregate_span.Stop();
      Count(t, "ldp.aggregate_reports", replay.reports.size());

      Values row(4, 0.0);
      row[0] = summary.mean_mse_estimate;
      row[1] = Mse(GenuineFreqs(replay.genuine_item_counts),
                   aggregator.EstimateFrequencies());
      const std::vector<double>& batch_counts = aggregator.support_counts();
      for (size_t v = 0; v < batch_counts.size(); ++v) {
        row[2] = std::max(
            row[2], std::abs(summary.final_support_counts[v] - batch_counts[v]));
      }
      row[3] = Detect(summary);
      return row;
    };
  } else if (spec.id == "streaming_wave") {
    title = "Streaming MGA wave (Zipf): clean vs attacked";
    const size_t window = DefaultWindowReports(total);
    const size_t stride = std::max<size_t>(1, window / 2);
    stream.window_reports = stride * (window / stride);
    stream.stride_reports = stride;
    stream.item_counts = data.item_counts;
    stream.wave = WaveShape::kNone;
    wave = stream;
    wave.wave = WaveShape::kWave;
    wave.attacker_fraction = 0.25;
    wave.wave_start = total * 3 / 10;
    wave.wave_end = total * 7 / 10;
    unit = [&](size_t cell, size_t, uint64_t trial_seed, UnitTrace* t) {
      const FrequencyProtocol& protocol = *protocols[cell];
      const StreamEngineOptions options =
          StreamOptionsFor(protocol, stream.num_targets, 0.25);
      const StreamSummary clean_run =
          TracedRunStream(protocol, stream, options, trial_seed, t);
      const StreamSummary wave_run =
          TracedRunStream(protocol, wave, options, trial_seed, t);
      return Values{clean_run.mean_mse_estimate, wave_run.mean_mse_estimate,
                    wave_run.mean_mse_recovered, Detect(clean_run),
                    Detect(wave_run),
                    wave_run.windows_to_detection != kNoDetection ? 1.0 : 0.0};
    };
  } else if (spec.id == "streaming_ramp") {
    title = "Streaming ramping attacker fraction (Zipf)";
    stream.window_reports = DefaultWindowReports(total);
    stream.item_counts = data.item_counts;
    stream.wave = WaveShape::kRamp;
    stream.attacker_fraction = 0.3;
    unit = [&](size_t cell, size_t, uint64_t trial_seed, UnitTrace* t) {
      const FrequencyProtocol& protocol = *protocols[cell];
      const StreamEngineOptions options = StreamOptionsFor(
          protocol, stream.num_targets, stream.attacker_fraction);
      const StreamSummary summary =
          TracedRunStream(protocol, stream, options, trial_seed, t);
      Values row{summary.mean_mse_estimate, summary.mean_mse_recovered, 0.0,
                 0.0, Detect(summary)};
      if (!summary.windows.empty()) {
        row[2] = static_cast<double>(summary.windows.front().attackers);
        row[3] = static_cast<double>(summary.windows.back().attackers);
      }
      return row;
    };
  } else {  // streaming_drift
    title = "Streaming drifting Zipf + wave";
    stream.window_reports = DefaultWindowReports(total);
    stream.domain_size = data.domain_size();
    stream.zipf_s_start = 1.6;
    stream.zipf_s_end = 0.6;
    stream.zipf_segments = 8;
    stream.wave = WaveShape::kWave;
    stream.attacker_fraction = 0.2;
    stream.wave_start = total * 4 / 10;
    stream.wave_end = total * 7 / 10;
    unit = [&](size_t cell, size_t, uint64_t trial_seed, UnitTrace* t) {
      const FrequencyProtocol& protocol = *protocols[cell];
      const StreamEngineOptions options = StreamOptionsFor(
          protocol, stream.num_targets, stream.attacker_fraction);
      const StreamSummary summary =
          TracedRunStream(protocol, stream, options, trial_seed, t);
      Values row{summary.mean_mse_estimate, summary.mean_mse_recovered, 0.0,
                 Detect(summary)};
      if (summary.windows.size() >= 2) {
        row[2] = L1Distance(GenuineFreqs(summary.windows.front().genuine_tally),
                            GenuineFreqs(summary.windows.back().genuine_tally));
      }
      return row;
    };
  }

  Reenactment out;
  out.unit_outputs = TrialGrid(cells, run.trials, seed, trace, unit);
  RowTable table;
  table.title = title;
  table.columns = spec.columns;
  table.values =
      FoldCells(out.unit_outputs, cells, run.trials, spec.columns.size());
  for (ProtocolKind kind : spec.protocols)
    table.labels.push_back(ProtocolKindName(kind));
  out.tables.push_back(std::move(table));
  return out;
}

// ------------------------------------------------------------ shards

constexpr uint64_t kFaultWorkers = 8;

// The shard-fault scenarios' task spec (bench/scenario_shard_fault.cc).
ShardTaskSpec FaultTaskSpec(const ScenarioSpec& spec, const Dataset& data,
                            ProtocolKind protocol, AttackKind attack,
                            double scale, uint64_t trial_seed) {
  ShardTaskSpec task;
  task.protocol = protocol;
  task.epsilon = spec.defaults.epsilon;
  task.dataset = "zipf";
  task.scale = scale;
  task.attack = attack;
  task.beta = spec.defaults.beta;
  task.num_targets = spec.defaults.num_targets;
  task.eta = spec.defaults.eta;
  task.seed = trial_seed;
  const uint64_t n = data.num_users();
  const uint64_t m = attack == AttackKind::kNone
                         ? 0
                         : MaliciousUserCount(spec.defaults.beta, n);
  task.chunking.users_per_chunk = std::max<uint64_t>(1, (n + 15) / 16);
  task.chunking.reports_per_chunk = std::max<uint64_t>(1, (m + 7) / 8);
  return task;
}

StatusOr<ShardTaskPlan> TracedPlan(const ShardTaskSpec& spec,
                                   const Dataset& data, UnitTrace* trace) {
  Span span(trace, "shard.plan_s");
  return BuildShardTaskPlan(spec, data);
}

// Every worker's partials, encoded as wire lines.
std::vector<std::vector<std::string>> TracedWorkerLines(
    const ShardTaskPlan& plan, UnitTrace* trace) {
  std::vector<std::vector<std::string>> lines(kFaultWorkers);
  for (uint64_t w = 0; w < kFaultWorkers; ++w) {
    Span worker_span(trace, "shard.worker_s");
    const std::vector<PartialRecord> records =
        ComputeWorkerPartials(plan, w, kFaultWorkers);
    worker_span.Stop();
    Span encode_span(trace, "shard.encode_s");
    for (const PartialRecord& record : records)
      lines[w].push_back(EncodePartialLine(record));
    encode_span.Stop();
    for (const std::string& line : lines[w])
      Count(trace, "shard.wire_bytes", line.size());
  }
  return lines;
}

StatusOr<MergedPartials> TracedMerge(const ShardTaskPlan& plan,
                                     const std::vector<std::string>& lines,
                                     const MergeOptions& options,
                                     UnitTrace* trace) {
  Span span(trace, "shard.merge_s");
  StatusOr<MergedPartials> merged = MergeShardPartials(plan, lines, options);
  span.Stop();
  if (merged.ok()) {
    Count(trace, "shard.lines_total", merged->stats.lines_total);
    Count(trace, "shard.lines_rejected", merged->stats.lines_rejected);
  }
  return merged;
}

struct FaultedMerge {
  StatusOr<MergedPartials> merged = InternalError("unset");
  FaultyDelivery delivery;
};

FaultedMerge MergeUnderFaults(
    const ShardTaskPlan& plan,
    const std::vector<std::vector<std::string>>& worker_lines,
    const FaultSpec& fault_spec, UnitTrace* trace) {
  FaultedMerge result;
  {
    Span span(trace, "shard.deliver_s");
    const FaultPlan fault_plan = MakeFaultPlan(fault_spec, kFaultWorkers);
    result.delivery = ApplyFaultPlan(fault_plan, worker_lines);
  }
  MergeOptions options;
  options.allow_missing = true;
  result.merged = TracedMerge(plan, result.delivery.lines, options, trace);
  return result;
}

ShardOutcome TracedOutcome(const ShardTaskPlan& plan, const Dataset& data,
                           const MergedPartials& merged, UnitTrace* trace) {
  Span span(trace, "recover.ldprecover_s");
  ShardOutcome outcome = ComputeShardOutcome(plan, data, merged);
  span.Stop();
  Count(trace, "recover.ldprecover_calls", 1);
  return outcome;
}

Values ShardLossTrial(const ScenarioSpec& spec, const Dataset& data,
                      double scale, size_t cell, uint64_t trial_seed,
                      UnitTrace* t) {
  Values row(8, 0.0);
  const double kill_fractions[3] = {0.0, 0.25, 0.5};
  auto gen_plan =
      TracedPlan(FaultTaskSpec(spec, data, spec.protocols[cell],
                               AttackKind::kNone, scale, trial_seed),
                 data, t);
  auto mga_plan =
      TracedPlan(FaultTaskSpec(spec, data, spec.protocols[cell],
                               AttackKind::kMga, scale, trial_seed),
                 data, t);
  if (!gen_plan.ok() || !mga_plan.ok()) return row;
  const auto gen_lines = TracedWorkerLines(*gen_plan, t);
  const auto mga_lines = TracedWorkerLines(*mga_plan, t);
  const double nan = std::nan("");
  for (int k = 0; k < 3; ++k) {
    FaultSpec fault;
    fault.kill_fraction = kill_fractions[k];
    fault.seed = DeriveSeed(trial_seed, 9000 + k);
    const FaultedMerge gen = MergeUnderFaults(*gen_plan, gen_lines, fault, t);
    const FaultedMerge mga = MergeUnderFaults(*mga_plan, mga_lines, fault, t);
    row[k] = gen.merged.ok()
                 ? TracedOutcome(*gen_plan, data, *gen.merged, t).poisoned_mse
                 : nan;
    row[3 + k] =
        mga.merged.ok()
            ? TracedOutcome(*mga_plan, data, *mga.merged, t).poisoned_mse
            : nan;
    if (k == 0 || k == 2) {
      double rec = nan;
      if (mga.merged.ok())
        rec = TracedOutcome(*mga_plan, data, *mga.merged, t).recovered_mse;
      row[k == 0 ? 6 : 7] = rec;
    }
  }
  return row;
}

// Untraced, the clean merge is RunShardTaskInProcess; traced, it is
// re-enacted (worker partials, encode, merge).  Its counts follow the
// five row columns so the two can be compared bit for bit.
Values ShardMixedTrial(const ScenarioSpec& spec, const Dataset& data,
                       double scale, size_t cell, uint64_t trial_seed,
                       UnitTrace* t) {
  Values row(5, 0.0);
  auto plan = TracedPlan(FaultTaskSpec(spec, data, spec.protocols[cell],
                                       AttackKind::kMga, scale, trial_seed),
                         data, t);
  if (!plan.ok()) return row;
  const auto lines = TracedWorkerLines(*plan, t);
  const uint64_t total_chunks = plan->total_chunks();

  StatusOr<MergedPartials> clean = InternalError("unset");
  if (t == nullptr) {
    clean = RunShardTaskInProcess(*plan, kFaultWorkers);
  } else {
    std::vector<std::string> clean_lines;
    for (auto& worker : TracedWorkerLines(*plan, t))
      for (std::string& line : worker) clean_lines.push_back(std::move(line));
    clean = TracedMerge(*plan, clean_lines, MergeOptions{}, t);
  }
  if (!clean.ok()) return row;

  FaultSpec dup_fault;
  dup_fault.duplicate_fraction = 0.5;
  dup_fault.seed = DeriveSeed(trial_seed, 9100);
  const FaultedMerge dup = MergeUnderFaults(*plan, lines, dup_fault, t);
  if (dup.merged.ok()) {
    for (size_t v = 0; v < clean->genuine_counts.size(); ++v) {
      row[0] = std::max(
          row[0],
          std::abs(dup.merged->genuine_counts[v] - clean->genuine_counts[v]) +
              std::abs(dup.merged->malicious_counts[v] -
                       clean->malicious_counts[v]));
    }
  }

  FaultSpec torn_fault;
  torn_fault.torn_fraction = 0.25;
  torn_fault.seed = DeriveSeed(trial_seed, 9200);
  const FaultedMerge torn = MergeUnderFaults(*plan, lines, torn_fault, t);
  if (torn.merged.ok() && torn.delivery.lines_torn > 0) {
    row[1] = static_cast<double>(torn.merged->stats.lines_rejected) /
             static_cast<double>(torn.delivery.lines_torn);
  }
  FaultSpec flip_fault;
  flip_fault.bitflip_fraction = 0.25;
  flip_fault.seed = DeriveSeed(trial_seed, 9300);
  const FaultedMerge flip = MergeUnderFaults(*plan, lines, flip_fault, t);
  if (flip.merged.ok() && flip.delivery.lines_flipped > 0) {
    row[2] = static_cast<double>(flip.merged->stats.lines_rejected) /
             static_cast<double>(flip.delivery.lines_flipped);
  }

  FaultSpec straggler_fault;
  straggler_fault.straggler_fraction = 0.25;
  straggler_fault.seed = DeriveSeed(trial_seed, 9400);
  const FaultedMerge straggler =
      MergeUnderFaults(*plan, lines, straggler_fault, t);
  if (straggler.merged.ok() && total_chunks > 0) {
    row[3] = static_cast<double>(straggler.merged->stats.genuine_chunks_lost +
                                 straggler.merged->stats.malicious_chunks_lost) /
             static_cast<double>(total_chunks);
  }

  FaultSpec all_fault;
  all_fault.kill_fraction = 0.125;
  all_fault.straggler_fraction = 0.125;
  all_fault.duplicate_fraction = 0.25;
  all_fault.torn_fraction = 0.125;
  all_fault.bitflip_fraction = 0.125;
  all_fault.seed = DeriveSeed(trial_seed, 9500);
  const FaultedMerge all = MergeUnderFaults(*plan, lines, all_fault, t);
  row[4] = all.merged.ok()
               ? TracedOutcome(*plan, data, *all.merged, t).poisoned_mse
               : std::nan("");

  row.insert(row.end(), clean->genuine_counts.begin(),
             clean->genuine_counts.end());
  row.insert(row.end(), clean->malicious_counts.begin(),
             clean->malicious_counts.end());
  return row;
}

StatusOr<Reenactment> ReenactShard(const Scenario& scenario,
                                   const ScenarioRun& run, uint64_t seed,
                                   UnitTrace* trace) {
  const ScenarioSpec& spec = scenario.spec;
  auto datasets = TracedResolve(spec, run.scale, trace);
  if (!datasets.ok()) return datasets.status();
  const Dataset& data = (*datasets)[0];
  const size_t cells = spec.protocols.size();
  const bool loss = spec.id == "shard_fault_loss";

  Reenactment out;
  out.unit_outputs = TrialGrid(
      cells, run.trials, seed, trace,
      [&](size_t cell, size_t, uint64_t trial_seed, UnitTrace* t) {
        return loss ? ShardLossTrial(spec, data, run.scale, cell, trial_seed, t)
                    : ShardMixedTrial(spec, data, run.scale, cell, trial_seed,
                                      t);
      });
  RowTable table;
  table.title = loss ? "Shard loss: estimate MSE vs killed-shard fraction "
                       "(Zipf, 8 workers)"
                     : "Shard faults: duplicates, torn writes, bit flips, "
                       "stragglers (Zipf, 8 workers, MGA)";
  table.columns = spec.columns;
  table.values =
      FoldCells(out.unit_outputs, cells, run.trials, spec.columns.size());
  for (ProtocolKind kind : spec.protocols)
    table.labels.push_back(ProtocolKindName(kind));
  out.tables.push_back(std::move(table));
  return out;
}

}  // namespace

StatusOr<Reenactment> Reenact(const Scenario& scenario, const ScenarioRun& run,
                              uint64_t seed, bool traced) {
  UnitTrace trace;
  UnitTrace* t = traced ? &trace : nullptr;
  const std::string& id = scenario.spec.id;
  StatusOr<Reenactment> out = InternalError("unset");
  if (!scenario.spec.custom) {
    out = ReenactGrid(scenario, run, seed, t);
  } else if (id == "fig9") {
    out = ReenactFig9(scenario, run, seed, t);
  } else if (id.rfind("streaming_", 0) == 0) {
    out = ReenactStreaming(scenario, run, seed, t);
  } else if (id.rfind("shard_fault_", 0) == 0) {
    out = ReenactShard(scenario, run, seed, t);
  } else {
    return InvalidArgumentError("no re-enactment for scenario " + id);
  }
  if (!out.ok()) return out;
  if (traced) out->trace = std::move(trace);
  return out;
}

}  // namespace perfbench
