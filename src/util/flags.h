// Command-line flag parsing for the ldpr binaries and tools.
//
// Forms: --name=value and --name value, plus bare --name for the
// boolean flags a command declares when it constructs the parser.  A
// declared boolean never takes the next token as its value, so in
// `--allow_missing torn.jsonl` the file stays positional; after `=` it
// accepts only true, false, 1 or 0.  Other tokens not starting with
// "--" are positional.  The last occurrence of a flag wins.
//
// Reads never fail on their own: a malformed value returns the
// fallback and latches an error, the first one winning.  Once every
// flag is read, status() returns that error, or else the first flag on
// the command line that no read asked for (a typo).

#ifndef LDPR_UTIL_FLAGS_H_
#define LDPR_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/status.h"

namespace ldpr {

/// Full-match number parses shared by flags and environment knobs:
/// the whole of `text` must parse, and the error names `what`
/// ("LDPR_BENCH_SCALE expects a number, got: abc").
StatusOr<double> ParseNumber(const std::string& what, const std::string& text);
StatusOr<int64_t> ParseInteger(const std::string& what,
                               const std::string& text);

class FlagParser {
 public:
  /// Parses argv (argv[0] is skipped); `booleans` names the flags that
  /// may appear bare.
  FlagParser(int argc, const char* const* argv,
             const std::vector<std::string>& booleans = {});

  /// String flag, or `fallback` when absent.
  std::string GetString(const std::string& name, const std::string& fallback);

  /// Number flag, or `fallback` when absent or malformed.
  double GetDouble(const std::string& name, double fallback);

  /// Non-negative integer flag (a count, seed or index), or `fallback`
  /// when absent, malformed or negative.
  uint64_t GetUint(const std::string& name, uint64_t fallback);

  /// Boolean flag: bare, true or 1 => true; false or 0 => false.
  bool GetBool(const std::string& name, bool fallback);

  /// True iff the flag appeared on the command line.
  bool Has(const std::string& name);

  const std::vector<std::string>& positional() const { return positional_; }

  /// For commands that take no operands: latches "<command> takes no
  /// positional operands, got: <first>" when any was given.
  void RejectPositional(const std::string& command);

  /// Latches `error` unless it is OK or an earlier error is latched —
  /// for the checks a command makes on the values it read.
  void Check(const Status& error);

  /// The first latched error, else the first flag never read, else OK.
  Status status() const;

 private:
  /// The flag's value (marking it read), or nullptr when absent.
  const std::string* Find(const std::string& name);

  std::map<std::string, std::string> flags_;
  std::vector<std::string> order_;  // flag names in command-line order
  std::set<std::string> read_;
  std::vector<std::string> positional_;
  Status error_;
};

}  // namespace ldpr

#endif  // LDPR_UTIL_FLAGS_H_
