#include "lint/format.h"

namespace ldpr {
namespace lint {
namespace {

/// The rules a SARIF consumer can see, in id order.  Kept in sync
/// with lint.h's rule list; RuleDescription is the lookup.
struct RuleMeta {
  const char* id;
  const char* description;
};

constexpr RuleMeta kRules[] = {
    {"R1", "Banned nondeterminism source (rand/random_device/clock/lgamma)"},
    {"R2", "Iteration over an unordered container in src/"},
    {"R3", "Floating-point accumulation in a loop without integer counts "
           "or an fp-order-ok pragma"},
    {"R4", "Test/tool registration drift between CMake and the CI matrix"},
    {"R5", "Non-canonical or missing include guard"},
    {"R6", "Layer-DAG violation in the src/ include graph"},
    {"R7", "By-reference capture written inside a parallel lambda"},
    {"R8", "Rng seeded outside the DeriveSeed discipline"},
    {"allowlist", "Stale allowlist entry that matches no finding"},
};

/// JSON string escaping (quotes, backslash, control characters).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xF];
          out += hex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string RuleDescription(const std::string& rule) {
  for (const RuleMeta& meta : kRules) {
    if (rule == meta.id) return meta.description;
  }
  return "";
}

std::string FindingsToSarif(const std::vector<Finding>& findings) {
  std::string out;
  out += "{\n";
  out += "  \"version\": \"2.1.0\",\n";
  out +=
      "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/"
      "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n";
  out += "  \"runs\": [\n";
  out += "    {\n";
  out += "      \"tool\": {\n";
  out += "        \"driver\": {\n";
  out += "          \"name\": \"ldpr_lint\",\n";
  out += "          \"informationUri\": "
         "\"https://example.invalid/ldprecover/docs/architecture\",\n";
  out += "          \"rules\": [\n";
  for (size_t i = 0; i < sizeof(kRules) / sizeof(kRules[0]); ++i) {
    out += "            {\"id\": \"" + std::string(kRules[i].id) +
           "\", \"shortDescription\": {\"text\": \"" +
           JsonEscape(kRules[i].description) + "\"}}";
    out += i + 1 < sizeof(kRules) / sizeof(kRules[0]) ? ",\n" : "\n";
  }
  out += "          ]\n";
  out += "        }\n";
  out += "      },\n";
  out += "      \"results\": [\n";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += "        {\n";
    out += "          \"ruleId\": \"" + JsonEscape(f.rule) + "\",\n";
    out += "          \"level\": \"error\",\n";
    out += "          \"message\": {\"text\": \"" + JsonEscape(f.message) +
           "\"},\n";
    out += "          \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \"" +
           JsonEscape(f.path) +
           "\"}, \"region\": {\"startLine\": " + std::to_string(f.line) +
           "}}}]\n";
    out += i + 1 < findings.size() ? "        },\n" : "        }\n";
  }
  out += "      ]\n";
  out += "    }\n";
  out += "  ]\n";
  out += "}\n";
  return out;
}

std::string FindingsToGithub(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    // Workflow-command escaping: %, CR, LF in the message body.
    std::string message = "[" + f.rule + "] " + f.message;
    std::string escaped;
    for (char c : message) {
      if (c == '%') {
        escaped += "%25";
      } else if (c == '\r') {
        escaped += "%0D";
      } else if (c == '\n') {
        escaped += "%0A";
      } else {
        escaped += c;
      }
    }
    out += "::error file=" + f.path + ",line=" + std::to_string(f.line) +
           ",title=ldpr_lint " + f.rule + "::" + escaped + "\n";
  }
  return out;
}

}  // namespace lint
}  // namespace ldpr
