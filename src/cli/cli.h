// The `ldpr` subcommand CLI: one binary fronting every interactive
// entry point of the library behind a shared flag layer.
//
//   ldpr run           batch poisoning + recovery pipeline
//   ldpr stream        windowed streaming ingest replay
//   ldpr shard-worker  compute one worker's partial support counts
//   ldpr shard-merge   merge worker partials into a result tree
//   ldpr list          subcommands and registered scenarios
//
// Flags take --name=value or --name value; the shard-merge booleans
// (--allow_missing, --inprocess) may also appear bare, and never take
// the file operand after them as a value.  The trial flags
// (--protocol/--epsilon/--beta/--eta/--targets/--seed/--scale) parse
// identically, with the same defaults, in every subcommand that takes
// them.  A subcommand reads all its flags, then checks the one
// FlagParser::status(): the first malformed or negative value, or
// else the first unknown flag.
//
// Exit codes: 0 success, 1 any error (bad flags, I/O, failed merge).

#ifndef LDPR_CLI_CLI_H_
#define LDPR_CLI_CLI_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "data/dataset.h"
#include "ldp/protocol.h"
#include "runner/result_sink.h"
#include "util/flags.h"
#include "util/status.h"

namespace ldpr {
namespace cli {

/// Prints "error: <status>" to stderr; returns exit code 1.
int ReportError(const Status& status);

/// The trial flags shared by `run`, `stream` and the shard commands,
/// with their one set of defaults.
struct TrialFlags {
  ProtocolKind protocol = ProtocolKind::kGrr;
  double epsilon = 0.5;
  double beta = 0.05;
  double eta = 0.2;
  uint64_t targets = 10;
  uint64_t seed = 1;
  double scale = 1.0;  // in (0, 1]
};

/// Reads --protocol/--epsilon/--beta/--eta/--targets/--seed/--scale;
/// a bad value is latched in `flags`.
TrialFlags ReadTrialFlags(FlagParser& flags);

/// Dataset selection shared by `run` and `stream`: --csv FILE, or
/// --dataset (a ResolveBenchDataset generator: ipums|fire|zipf|uniform)
/// with --d/--n shape overrides for the resizable ones and --zipf_s
/// for zipf.
struct DatasetFlags {
  std::string csv;
  std::string name;
  uint64_t d = 0;  // 0: the generator's default shape
  uint64_t n = 0;
  std::optional<double> zipf_s;
};

/// Reads the dataset flags; a bad value is latched in `flags`.
DatasetFlags ReadDatasetFlags(FlagParser& flags);

/// Builds the dataset the flags select, scaled by `scale`.
StatusOr<Dataset> ResolveDatasetFlags(const DatasetFlags& dataset,
                                      double scale);

/// The console-plus-optional-file sink `run` and `stream` write
/// through: always a ConsoleSink, plus a CsvSink (or JsonlSink when
/// `out_path` ends in .jsonl) when `out_path` is non-empty.  The
/// scenario banner carries `scenario_id`.  Errors when the file
/// cannot be opened — callers fail fast before any expensive run.
StatusOr<std::unique_ptr<ResultSink>> MakeRunSink(
    const std::string& out_path, const std::string& scenario_id);

/// Subcommand entry points; each consumes the flags *after* the
/// subcommand word and returns the process exit code.
int RunCommand(FlagParser& flags);
int StreamCommand(FlagParser& flags);
int ShardWorkerCommand(FlagParser& flags);
int ShardMergeCommand(FlagParser& flags);
int ListCommand(FlagParser& flags);

void PrintUsage(std::FILE* out);

/// Full dispatch: argv[1] selects the subcommand, the rest parses
/// through one FlagParser (declaring the subcommand's booleans) handed
/// to the subcommand.  An LDPR_THREADS that does not parse fails every
/// subcommand up front.
int Main(int argc, char** argv);

}  // namespace cli
}  // namespace ldpr

#endif  // LDPR_CLI_CLI_H_
