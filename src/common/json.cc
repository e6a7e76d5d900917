#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.h"

namespace ppdp {

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::String(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

bool JsonValue::as_bool() const {
  PPDP_CHECK(is_bool()) << "JsonValue is not a bool";
  return bool_;
}

double JsonValue::as_number() const {
  PPDP_CHECK(is_number()) << "JsonValue is not a number";
  return number_;
}

const std::string& JsonValue::as_string() const {
  PPDP_CHECK(is_string()) << "JsonValue is not a string";
  return string_;
}

size_t JsonValue::size() const {
  if (is_array()) return array_.size();
  if (is_object()) return object_.size();
  return 0;
}

const JsonValue& JsonValue::at(size_t index) const {
  PPDP_CHECK(is_array()) << "JsonValue::at on a non-array";
  PPDP_CHECK(index < array_.size()) << "JSON array index " << index << " out of range";
  return array_[index];
}

void JsonValue::Append(JsonValue value) {
  PPDP_CHECK(is_array()) << "JsonValue::Append on a non-array";
  array_.push_back(std::move(value));
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void JsonValue::Set(std::string_view key, JsonValue value) {
  PPDP_CHECK(is_object()) << "JsonValue::Set on a non-object";
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::string(key), std::move(value));
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members() const {
  PPDP_CHECK(is_object()) << "JsonValue::members on a non-object";
  return object_;
}

double JsonValue::GetNumberOr(std::string_view key, double fallback) const {
  const JsonValue* v = Find(key);
  return v && v->is_number() ? v->number_ : fallback;
}

std::string JsonValue::GetStringOr(std::string_view key, std::string fallback) const {
  const JsonValue* v = Find(key);
  return v && v->is_string() ? v->string_ : std::move(fallback);
}

bool JsonValue::GetBoolOr(std::string_view key, bool fallback) const {
  const JsonValue* v = Find(key);
  return v && v->is_bool() ? v->bool_ : fallback;
}

std::string JsonEscape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (unsigned char c : raw) {
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
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

namespace {

/// Appends `v` as a JSON number. Integral values within the exact range
/// print without an exponent or trailing ".0" so counts stay greppable;
/// anything else prints 17 significant digits, byte for byte what printf's
/// "%.17g" prints: enough to round-trip every double, though not always the
/// shortest form that does.
void AppendNumber(double v, std::string& out) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buffer[32];
  const bool integral =
      std::fabs(v) < 9.007199254740992e15 && v == static_cast<double>(static_cast<int64_t>(v));
  const std::to_chars_result printed =
      integral ? std::to_chars(buffer, buffer + sizeof(buffer), static_cast<int64_t>(v))
               : std::to_chars(buffer, buffer + sizeof(buffer), v, std::chars_format::general, 17);
  out.append(buffer, printed.ptr);
}

void DumpTo(const JsonValue& value, std::string& out);

void DumpTo(const JsonValue& value, std::string& out) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull:
      out += "null";
      break;
    case JsonValue::Kind::kBool:
      out += value.as_bool() ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber:
      AppendNumber(value.as_number(), out);
      break;
    case JsonValue::Kind::kString:
      out += '"';
      out += JsonEscape(value.as_string());
      out += '"';
      break;
    case JsonValue::Kind::kArray: {
      out += '[';
      for (size_t i = 0; i < value.size(); ++i) {
        if (i) out += ',';
        DumpTo(value.at(i), out);
      }
      out += ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : value.members()) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += JsonEscape(k);
        out += "\":";
        DumpTo(v, out);
      }
      out += '}';
      break;
    }
  }
}

/// Recursive-descent parser. Depth-limited so hostile inputs cannot blow the
/// stack; the telemetry documents it reads are at most a few levels deep.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> ParseDocument() {
    JsonValue value;
    // PPDP_RETURN_IF_ERROR works here: Status converts implicitly to the
    // error arm of Result<JsonValue>.
    PPDP_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("trailing characters after JSON document at offset " +
                                     std::to_string(pos_));
    }
    return value;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  Status Fail(const std::string& what) {
    return Status::InvalidArgument(what + " at offset " + std::to_string(pos_));
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Fail("JSON nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        PPDP_RETURN_IF_ERROR(ParseString(&s));
        *out = JsonValue::String(std::move(s));
        return Status::Ok();
      }
      case 't':
        return ParseLiteral("true", JsonValue::Bool(true), out);
      case 'f':
        return ParseLiteral("false", JsonValue::Bool(false), out);
      case 'n':
        return ParseLiteral("null", JsonValue::Null(), out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseLiteral(std::string_view word, JsonValue value, JsonValue* out) {
    if (text_.substr(pos_, word.size()) != word) return Fail("invalid literal");
    pos_ += word.size();
    *out = std::move(value);
    return Status::Ok();
  }

  Status ParseNumber(JsonValue* out) {
    // RFC 8259 grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? —
    // notably no leading '+', no leading zeros, no bare '.' or exponent.
    const size_t start = pos_;
    auto digit = [this] {
      return pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]));
    };
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (!digit()) return Fail("expected a JSON value");
    if (text_[pos_] == '0') {
      ++pos_;
      if (digit()) {
        pos_ = start;
        return Fail("leading zero in number");
      }
    } else {
      while (digit()) ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digit()) return Fail("expected digits after decimal point");
      while (digit()) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      if (!digit()) return Fail("expected digits in exponent");
      while (digit()) ++pos_;
    }
    std::string token(text_.substr(start, pos_ - start));
    *out = JsonValue::Number(std::strtod(token.c_str(), nullptr));
    return Status::Ok();
  }

  Status ParseString(std::string* out) {
    if (text_[pos_] != '"') return Fail("expected '\"'");
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::Ok();
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
        char esc = text_[pos_++];
        switch (esc) {
          case '"':
            *out += '"';
            break;
          case '\\':
            *out += '\\';
            break;
          case '/':
            *out += '/';
            break;
          case 'b':
            *out += '\b';
            break;
          case 'f':
            *out += '\f';
            break;
          case 'n':
            *out += '\n';
            break;
          case 'r':
            *out += '\r';
            break;
          case 't':
            *out += '\t';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_ + static_cast<size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Fail("bad hex digit in \\u escape");
              }
            }
            pos_ += 4;
            // UTF-8 encode the BMP code point (surrogate pairs degrade to
            // their raw halves — telemetry strings are ASCII in practice).
            if (code < 0x80) {
              *out += static_cast<char>(code);
            } else if (code < 0x800) {
              *out += static_cast<char>(0xC0 | (code >> 6));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              *out += static_cast<char>(0xE0 | (code >> 12));
              *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Fail("unknown escape");
        }
        continue;
      }
      *out += c;
      ++pos_;
    }
    return Fail("unterminated string");
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // consume '['
    JsonValue array = JsonValue::Array();
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      *out = std::move(array);
      return Status::Ok();
    }
    while (true) {
      JsonValue element;
      PPDP_RETURN_IF_ERROR(ParseValue(&element, depth + 1));
      array.Append(std::move(element));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        *out = std::move(array);
        return Status::Ok();
      }
      return Fail("expected ',' or ']'");
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // consume '{'
    JsonValue object = JsonValue::Object();
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      *out = std::move(object);
      return Status::Ok();
    }
    while (true) {
      SkipWhitespace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') return Fail("expected object key");
      PPDP_RETURN_IF_ERROR(ParseString(&key));
      if (object.Has(key)) return Fail("duplicate object key \"" + key + "\"");
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') return Fail("expected ':'");
      ++pos_;
      JsonValue value;
      PPDP_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      object.Set(key, std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        *out = std::move(object);
        return Status::Ok();
      }
      return Fail("expected ',' or '}'");
    }
  }


  static constexpr int kMaxDepth = 64;
  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(*this, out);
  return out;
}

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

Result<JsonValue> JsonValue::Load(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  if (!file.good() && !file.eof()) return Status::Internal("read of " + path + " failed");
  Result<JsonValue> parsed = Parse(buffer.str());
  if (!parsed.ok()) return parsed.status().Annotate(path);
  return parsed;
}

}  // namespace ppdp
