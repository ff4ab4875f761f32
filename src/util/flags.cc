#include "util/flags.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

namespace ldpr {

StatusOr<double> ParseNumber(const std::string& what, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0')
    return InvalidArgumentError(what + " expects a number, got: " + text);
  return v;
}

StatusOr<int64_t> ParseInteger(const std::string& what,
                               const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE)
    return InvalidArgumentError(what + " expects an integer, got: " + text);
  return static_cast<int64_t>(v);
}

FlagParser::FlagParser(int argc, const char* const* argv,
                       const std::vector<std::string>& booleans) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const size_t eq = body.find('=');
    const std::string name = body.substr(0, eq);
    order_.push_back(name);
    if (eq != std::string::npos) {
      flags_[name] = body.substr(eq + 1);
    } else if (std::find(booleans.begin(), booleans.end(), name) ==
                   booleans.end() &&
               i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[name] = argv[++i];  // "--name value"
    } else {
      flags_[name] = "";  // bare
    }
  }
}

const std::string* FlagParser::Find(const std::string& name) {
  read_.insert(name);
  const auto it = flags_.find(name);
  return it == flags_.end() ? nullptr : &it->second;
}

bool FlagParser::Has(const std::string& name) { return Find(name) != nullptr; }

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& fallback) {
  const std::string* value = Find(name);
  return value == nullptr ? fallback : *value;
}

double FlagParser::GetDouble(const std::string& name, double fallback) {
  const std::string* value = Find(name);
  if (value == nullptr) return fallback;
  const auto v = ParseNumber("flag --" + name, *value);
  Check(v.status());
  return v.value_or(fallback);
}

uint64_t FlagParser::GetUint(const std::string& name, uint64_t fallback) {
  const std::string* value = Find(name);
  if (value == nullptr) return fallback;
  const auto v = ParseInteger("flag --" + name, *value);
  if (v.ok() && *v >= 0) return static_cast<uint64_t>(*v);
  Check(InvalidArgumentError("flag --" + name +
                             " expects a non-negative integer, got: " +
                             *value));
  return fallback;
}

bool FlagParser::GetBool(const std::string& name, bool fallback) {
  const std::string* value = Find(name);
  if (value == nullptr) return fallback;
  if (value->empty() || *value == "true" || *value == "1") return true;
  if (*value == "false" || *value == "0") return false;
  Check(InvalidArgumentError("flag --" + name +
                             " expects true, false, 1 or 0, got: " + *value));
  return fallback;
}

void FlagParser::RejectPositional(const std::string& command) {
  if (!positional_.empty())
    Check(InvalidArgumentError(command +
                               " takes no positional operands, got: " +
                               positional_.front()));
}

void FlagParser::Check(const Status& error) {
  if (error_.ok()) error_ = error;
}

Status FlagParser::status() const {
  if (!error_.ok()) return error_;
  for (const std::string& name : order_) {
    if (read_.count(name) == 0)
      return InvalidArgumentError("unknown flag --" + name);
  }
  return Status::Ok();
}

}  // namespace ldpr
