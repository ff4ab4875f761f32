#include "cli/cli.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/loader.h"
#include "data/synthetic.h"
#include "ldp/factory.h"
#include "runner/scenario_runner.h"
#include "util/thread_pool.h"

namespace ldpr {
namespace cli {

int ReportError(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

TrialFlags ReadTrialFlags(FlagParser& flags) {
  TrialFlags trial;
  const auto protocol = ParseProtocolKind(flags.GetString("protocol", "GRR"));
  flags.Check(protocol.status());
  trial.protocol = protocol.value_or(trial.protocol);
  trial.epsilon = flags.GetDouble("epsilon", trial.epsilon);
  trial.beta = flags.GetDouble("beta", trial.beta);
  trial.eta = flags.GetDouble("eta", trial.eta);
  trial.targets = flags.GetUint("targets", trial.targets);
  trial.seed = flags.GetUint("seed", trial.seed);
  trial.scale = flags.GetDouble("scale", trial.scale);
  if (!(trial.scale > 0.0 && trial.scale <= 1.0))
    flags.Check(InvalidArgumentError("--scale must be in (0, 1]"));
  return trial;
}

DatasetFlags ReadDatasetFlags(FlagParser& flags) {
  DatasetFlags dataset;
  // Flags the selected data cannot take stay unread, so giving them is
  // an unknown-flag error: all shape flags for a CSV, --zipf_s for a
  // generator other than zipf.
  dataset.csv = flags.GetString("csv", "");
  if (!dataset.csv.empty()) return dataset;
  dataset.name = flags.GetString("dataset", "ipums");
  if (flags.Has("d")) {
    dataset.d = flags.GetUint("d", 0);
    if (dataset.d < 2) flags.Check(InvalidArgumentError("--d must be >= 2"));
  }
  if (flags.Has("n")) {
    dataset.n = flags.GetUint("n", 0);
    if (dataset.n < 1) flags.Check(InvalidArgumentError("--n must be >= 1"));
  }
  if (dataset.name == "zipf" && flags.Has("zipf_s"))
    dataset.zipf_s = flags.GetDouble("zipf_s", 1.0);
  return dataset;
}

StatusOr<Dataset> ResolveDatasetFlags(const DatasetFlags& dataset,
                                      double scale) {
  if (!dataset.csv.empty()) {
    auto loaded = LoadItemCsv(dataset.csv);
    if (!loaded.ok()) return loaded.status();
    return ScaleDataset(loaded->dataset, scale);
  }
  if (dataset.zipf_s) {
    // The exponent is the one generator knob ResolveBenchDataset does
    // not take; the shape defaults are the synthetic generators'.
    return ScaleDataset(
        MakeZipfDataset("zipf", dataset.d != 0 ? dataset.d : 102,
                        dataset.n != 0 ? dataset.n : 100000, *dataset.zipf_s,
                        /*shuffle_seed=*/17),
        scale);
  }
  auto resolved = ResolveBenchDataset(dataset.name, scale, dataset.d,
                                      dataset.n);
  if (!resolved.ok())
    return InvalidArgumentError("--dataset=" + dataset.name + ": " +
                                resolved.status().message());
  return resolved;
}

StatusOr<std::unique_ptr<ResultSink>> MakeRunSink(
    const std::string& out_path, const std::string& scenario_id) {
  // The console table and the optional --out file are two sinks over
  // one row stream, so the file always mirrors what was printed.
  // Opened before the run so a bad path fails in milliseconds, not
  // after a paper-scale experiment.
  std::vector<std::unique_ptr<ResultSink>> sinks;
  sinks.push_back(std::make_unique<ConsoleSink>());
  if (!out_path.empty()) {
    const bool jsonl = out_path.size() >= 6 &&
                       out_path.compare(out_path.size() - 6, 6, ".jsonl") == 0;
    if (jsonl) {
      auto out_sink = std::make_unique<JsonlSink>(out_path);
      if (!out_sink->ok())
        return NotFoundError("cannot write " + out_path);
      sinks.push_back(std::move(out_sink));
    } else {
      auto out_sink = std::make_unique<CsvSink>(out_path);
      if (!out_sink->ok())
        return NotFoundError("cannot write " + out_path);
      sinks.push_back(std::move(out_sink));
    }
  }
  auto sink = std::make_unique<MultiSink>(std::move(sinks));
  ScenarioRunInfo info;
  info.id = scenario_id;
  sink->BeginScenario(info);
  return StatusOr<std::unique_ptr<ResultSink>>(std::move(sink));
}

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: ldpr <command> [--flags]\n"
               "\n"
               "commands:\n"
               "  run           batch poisoning + recovery pipeline\n"
               "  stream        windowed streaming ingest replay\n"
               "  shard-worker  compute one worker's partial support counts\n"
               "  shard-merge   merge worker partials into a result tree\n"
               "  list          subcommands and registered scenarios\n"
               "\n"
               "run `ldpr list` for the shared flags of each command.\n");
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage(stderr);
    return 1;
  }
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    PrintUsage(stdout);
    return 0;
  }
  if (!command.empty() && command[0] == '-') {
    std::fprintf(stderr,
                 "error: expected a subcommand before flags (got %s)\n",
                 command.c_str());
    PrintUsage(stderr);
    return 1;
  }
  if (const auto threads = ThreadCountFromEnv(); !threads.ok())
    return ReportError(threads.status());
  // The subcommand's FlagParser sees argv[1] as its program name, so
  // file operands of shard-merge land in positional().
  FlagParser flags(argc - 1, argv + 1,
                   command == "shard-merge"
                       ? std::vector<std::string>{"allow_missing", "inprocess"}
                       : std::vector<std::string>{});
  if (command == "run") return RunCommand(flags);
  if (command == "stream") return StreamCommand(flags);
  if (command == "shard-worker") return ShardWorkerCommand(flags);
  if (command == "shard-merge") return ShardMergeCommand(flags);
  if (command == "list") return ListCommand(flags);
  std::fprintf(stderr, "error: unknown command: %s\n", command.c_str());
  PrintUsage(stderr);
  return 1;
}

}  // namespace cli
}  // namespace ldpr
