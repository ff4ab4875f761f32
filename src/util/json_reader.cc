#include "util/json_reader.h"

#include <cctype>
#include <cstddef>
#include <cstdlib>

namespace ldpr {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& member : object_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

double JsonValue::NumberOr(const std::string& key, double fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->is_number() ? value->number() : fallback;
}

std::string JsonValue::StringOr(const std::string& key,
                                const std::string& fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->is_string() ? value->string() : fallback;
}

JsonValue JsonValue::Null() { return JsonValue(); }

JsonValue JsonValue::Bool(bool value) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::Number(double value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::String(std::string value) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::Array(std::vector<JsonValue> values) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(values);
  return v;
}

JsonValue JsonValue::Object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

namespace {

// Deepest container nesting ParseJson accepts.  The writers here nest
// a few levels; the bound keeps the recursive descent's stack use
// fixed on hostile input.
constexpr size_t kMaxJsonDepth = 64;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> ParseDocument() {
    auto value = ParseValue();
    if (!value.ok()) return value;
    SkipWhitespace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return InvalidArgumentError("JSON parse error at byte " +
                                std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* literal) {
    size_t n = 0;
    while (literal[n] != '\0') ++n;
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  StatusOr<JsonValue> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
      case '[': {
        if (depth_ == kMaxJsonDepth)
          return Error("nesting deeper than " + std::to_string(kMaxJsonDepth) +
                       " levels");
        ++depth_;
        auto container = text_[pos_] == '{' ? ParseObject() : ParseArray();
        --depth_;
        return container;
      }
      case '"': {
        auto s = ParseString();
        if (!s.ok()) return s.status();
        return JsonValue::String(std::move(*s));
      }
      case 't':
        if (ConsumeLiteral("true")) return JsonValue::Bool(true);
        return Error("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) return JsonValue::Bool(false);
        return Error("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) return JsonValue::Null();
        return Error("invalid literal");
      default:
        return ParseNumber();
    }
  }

  StatusOr<JsonValue> ParseObject() {
    ++pos_;  // '{'
    std::vector<std::pair<std::string, JsonValue>> members;
    SkipWhitespace();
    if (Consume('}')) return JsonValue::Object(std::move(members));
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return Error("expected object key");
      auto key = ParseString();
      if (!key.ok()) return key.status();
      for (const auto& member : members) {
        if (member.first == *key) return Error("duplicate key '" + *key + "'");
      }
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      auto value = ParseValue();
      if (!value.ok()) return value;
      members.emplace_back(std::move(*key), std::move(*value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return JsonValue::Object(std::move(members));
      return Error("expected ',' or '}'");
    }
  }

  StatusOr<JsonValue> ParseArray() {
    ++pos_;  // '['
    std::vector<JsonValue> values;
    SkipWhitespace();
    if (Consume(']')) return JsonValue::Array(std::move(values));
    while (true) {
      auto value = ParseValue();
      if (!value.ok()) return value;
      values.push_back(std::move(*value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return JsonValue::Array(std::move(values));
      return Error("expected ',' or ']'");
    }
  }

  StatusOr<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"':
            out.push_back('"');
            break;
          case '\\':
            out.push_back('\\');
            break;
          case '/':
            out.push_back('/');
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9')
                code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code += static_cast<unsigned>(h - 'A' + 10);
              else
                return Error("invalid \\u escape");
            }
            // UTF-8 encode the code point (no surrogate-pair joining:
            // our writers only escape control characters).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Error("invalid escape");
        }
        continue;
      }
      out.push_back(c);
      ++pos_;
    }
    return Error("unterminated string");
  }

  StatusOr<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return Error("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0')
      return Error("invalid number '" + token + "'");
    return JsonValue::Number(value);
  }

  const std::string& text_;
  size_t pos_ = 0;
  size_t depth_ = 0;  // open containers around the current value
};

}  // namespace

StatusOr<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).ParseDocument();
}

}  // namespace ldpr
