#pragma once
// Minimal JSON value model for the wire protocol (src/net): a
// recursive-descent parser with a depth limit and a compact serialiser.
// Scope is deliberately small — objects, arrays, strings (full escape
// set, \uXXXX incl. surrogate pairs), int64/double numbers, bools, null —
// because frames are short control messages, not documents.  Integer
// tokens round-trip as int64; anything with '.', 'e' or out of int64
// range becomes a double.
//
// This is a parser for *untrusted* input: every malformed byte sequence
// returns an error instead of throwing, and nesting is capped so a
// hostile frame cannot blow the stack.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace picola::net {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  JsonValue() = default;  // null
  static JsonValue make_bool(bool b);
  static JsonValue make_int(int64_t v);
  static JsonValue make_double(double v);
  static JsonValue make_string(std::string s);
  static JsonValue make_array();
  static JsonValue make_object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const {
    return type_ == Type::kInt || type_ == Type::kDouble;
  }
  bool is_int() const { return type_ == Type::kInt; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  /// Numeric value as int64 (doubles are truncated and saturate at the
  /// int64 range).
  int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const { return string_; }
  const std::vector<JsonValue>& items() const { return array_; }
  std::vector<JsonValue>& items() { return array_; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
  void set(const std::string& key, JsonValue v);
  void push_back(JsonValue v);
  const std::map<std::string, JsonValue>& members() const { return object_; }

  /// Compact serialisation (no whitespace, keys sorted — deterministic).
  std::string dump() const;

  /// Parse `text` (must be one complete JSON value, trailing whitespace
  /// allowed).  On failure returns nullopt and fills `*error` with a
  /// byte-offset diagnostic.
  static std::optional<JsonValue> parse(const std::string& text,
                                        std::string* error = nullptr);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Escape `s` for inclusion in a JSON string literal (quotes excluded).
std::string json_escape(const std::string& s);

}  // namespace picola::net
