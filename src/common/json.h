#ifndef PPDP_COMMON_JSON_H_
#define PPDP_COMMON_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace ppdp {

/// Minimal JSON document model used by the telemetry pipeline: run reports
/// are serialized through it, `ppdp_stat report` parses them back, and tests
/// validate the emitted schema without regexing raw text. Objects preserve
/// insertion order so emitted documents diff stably; duplicate keys are
/// rejected at parse time. Numbers are doubles (64-bit integers round-trip
/// exactly up to 2^53, far beyond any count this repo emits).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Number(double v);
  static JsonValue String(std::string s);
  static JsonValue Array();
  static JsonValue Object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; each dies (PPDP_CHECK) on a kind mismatch — callers
  /// validate kinds first or use the Get*Or lookup helpers below.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;

  /// Array access.
  size_t size() const;  ///< elements (array) or members (object)
  const JsonValue& at(size_t index) const;
  void Append(JsonValue value);  ///< array only

  /// Object access. Find returns nullptr when the key is absent.
  const JsonValue* Find(std::string_view key) const;
  bool Has(std::string_view key) const { return Find(key) != nullptr; }
  /// Sets (or replaces) a member, preserving first-insertion order.
  void Set(std::string_view key, JsonValue value);
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Lookup helpers for tolerant readers (`ppdp_stat report` diffs reports emitted
  /// by older schema versions): missing key or kind mismatch -> fallback.
  double GetNumberOr(std::string_view key, double fallback) const;
  std::string GetStringOr(std::string_view key, std::string fallback) const;
  bool GetBoolOr(std::string_view key, bool fallback) const;

  /// Compact single-line serialization (RFC 8259; NaN/Inf are emitted as
  /// null since JSON cannot represent them).
  std::string Dump() const;

  /// Parses a complete JSON document (trailing garbage is an error).
  static Result<JsonValue> Parse(std::string_view text);
  /// Reads and parses `path`.
  static Result<JsonValue> Load(const std::string& path);

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Escapes `raw` per JSON string rules (quotes, backslashes, control
/// characters) without the surrounding quotes — shared by the JSON log sink
/// and the writers above.
std::string JsonEscape(std::string_view raw);

}  // namespace ppdp

#endif  // PPDP_COMMON_JSON_H_
