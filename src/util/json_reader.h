// Minimal JSON parser — the read side of util/json_writer.h, used by
// the ldpr_diff result-tree comparator to load manifests and JSONL
// rows.  Recursive-descent over the full JSON grammar; objects keep
// their key order (result rows list metric columns in table order,
// and drift reports should too).
//
// Deliberately small: no streaming, no SAX, inputs are the KB-sized
// files our own sinks write.  Numbers parse as double (the sinks
// never emit integers a double cannot hold exactly).

#ifndef LDPR_UTIL_JSON_READER_H_
#define LDPR_UTIL_JSON_READER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace ldpr {

/// One parsed JSON value.  Containers own their children; objects
/// preserve insertion order and expect unique keys (duplicates are a
/// parse error — our writers never produce them).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  double number() const { return number_; }
  const std::string& string() const { return string_; }
  const std::vector<JsonValue>& array() const { return array_; }
  const std::vector<std::pair<std::string, JsonValue>>& object() const {
    return object_;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Typed member accessors with fallbacks, for tolerant manifest
  /// reading (older schema versions simply lack newer fields).
  double NumberOr(const std::string& key, double fallback) const;
  std::string StringOr(const std::string& key,
                       const std::string& fallback) const;

  static JsonValue Null();
  static JsonValue Bool(bool value);
  static JsonValue Number(double value);
  static JsonValue String(std::string value);
  static JsonValue Array(std::vector<JsonValue> values);
  static JsonValue Object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parses exactly one JSON document; trailing non-whitespace is an
/// error, and so is nesting deeper than 64 containers.
/// Error messages carry a byte offset.
StatusOr<JsonValue> ParseJson(const std::string& text);

}  // namespace ldpr

#endif  // LDPR_UTIL_JSON_READER_H_
