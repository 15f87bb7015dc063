#ifndef VALENTINE_SERVE_JSON_H_
#define VALENTINE_SERVE_JSON_H_

/// \file json.h
/// Minimal JSON value model, parser, and writer. ParseJson is the
/// library's one JSON reader: it decodes HTTP request bodies at the
/// serving boundary and replays campaign journal lines
/// (harness/journal.h).
///
/// The parser is written for hostile input: recursion depth is bounded
/// (a few-KB body of '[' must not blow the worker stack), a request
/// body's size is already bounded upstream by the HTTP body limit, and
/// every malformed document yields kParseError instead of UB. Objects
/// keep sorted keys (std::map), so re-serialization is deterministic;
/// duplicate keys are last-wins, like most production parsers.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/status.h"

namespace valentine {
namespace serve {

/// \brief One JSON value (tagged union, tree-owned).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Number(double d);
  static JsonValue String(std::string s);
  static JsonValue Array();
  static JsonValue Object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return array_; }
  std::vector<JsonValue>& array_items() { return array_; }
  const std::map<std::string, JsonValue>& object_items() const {
    return object_;
  }

  /// Member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Sets/overwrites an object member (no-op unless is_object()).
  void Set(const std::string& key, JsonValue value);
  /// Appends an array element (no-op unless is_array()).
  void Append(JsonValue value);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parses one complete JSON document (trailing garbage rejected).
/// `max_depth` bounds array/object nesting; exceeding it, or any syntax
/// error, yields kParseError with a byte offset in the message.
Result<JsonValue> ParseJson(const std::string& text, size_t max_depth = 64);

/// Serializes a value compactly (no whitespace). Object keys come out
/// sorted; numbers render with JsonNumberToString, so ParseJson accepts
/// every document this writes and finite doubles round-trip exactly.
std::string WriteJson(const JsonValue& value);

/// Canonical rendering of a double for serving payloads and journal
/// lines: %.17g, with integral values of magnitude below 1e15 printed
/// without an exponent or fraction. JSON cannot spell NaN or infinity,
/// so a non-finite number renders as `null`.
std::string JsonNumberToString(double d);

}  // namespace serve
}  // namespace valentine

#endif  // VALENTINE_SERVE_JSON_H_
