#include "net/json.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

namespace picola::net {

namespace {

constexpr int kMaxDepth = 64;

struct Parser {
  const char* p;
  const char* end;
  const char* begin;
  std::string error;

  bool fail(const std::string& msg) {
    if (error.empty())
      error = msg + " at offset " + std::to_string(p - begin);
    return false;
  }

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
      ++p;
  }

  bool parse_value(JsonValue* out, int depth);

  bool parse_literal(const char* lit, size_t len) {
    if (static_cast<size_t>(end - p) < len || std::memcmp(p, lit, len) != 0)
      return fail("bad literal");
    p += len;
    return true;
  }

  /// Append `cp` to `out` as UTF-8.
  static void append_utf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool parse_hex4(uint32_t* out) {
    if (end - p < 4) return fail("truncated \\u escape");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = *p++;
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<uint32_t>(c - 'A' + 10);
      else return fail("bad \\u escape");
    }
    *out = v;
    return true;
  }

  bool parse_string(std::string* out) {
    if (p >= end || *p != '"') return fail("expected string");
    ++p;
    out->clear();
    while (p < end) {
      unsigned char c = static_cast<unsigned char>(*p);
      if (c == '"') {
        ++p;
        return true;
      }
      if (c == '\\') {
        ++p;
        if (p >= end) return fail("truncated escape");
        char e = *p++;
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            uint32_t cp = 0;
            if (!parse_hex4(&cp)) return false;
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              // High surrogate: a \uDC00-\uDFFF low half must follow.
              if (end - p < 2 || p[0] != '\\' || p[1] != 'u')
                return fail("lone high surrogate");
              p += 2;
              uint32_t lo = 0;
              if (!parse_hex4(&lo)) return false;
              if (lo < 0xDC00 || lo > 0xDFFF)
                return fail("bad low surrogate");
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              return fail("lone low surrogate");
            }
            append_utf8(cp, out);
            break;
          }
          default:
            return fail("bad escape");
        }
      } else if (c < 0x20) {
        return fail("raw control character in string");
      } else {
        out->push_back(static_cast<char>(c));
        ++p;
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue* out) {
    const char* start = p;
    if (p < end && *p == '-') ++p;
    while (p < end && std::isdigit(static_cast<unsigned char>(*p))) ++p;
    bool integral = true;
    if (p < end && *p == '.') {
      integral = false;
      ++p;
      while (p < end && std::isdigit(static_cast<unsigned char>(*p))) ++p;
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
      integral = false;
      ++p;
      if (p < end && (*p == '+' || *p == '-')) ++p;
      while (p < end && std::isdigit(static_cast<unsigned char>(*p))) ++p;
    }
    if (p == start || (p == start + 1 && *start == '-'))
      return fail("bad number");
    if (integral) {
      int64_t v = 0;
      auto [ptr, ec] = std::from_chars(start, p, v);
      if (ec == std::errc() && ptr == p) {
        *out = JsonValue::make_int(v);
        return true;
      }
      // Out of int64 range: fall through to double.
    }
    double d = 0;
    auto [ptr, ec] = std::from_chars(start, p, d);
    if (ec != std::errc() || ptr != p) return fail("bad number");
    *out = JsonValue::make_double(d);
    return true;
  }
};

bool Parser::parse_value(JsonValue* out, int depth) {
  if (depth > kMaxDepth) return fail("nesting too deep");
  skip_ws();
  if (p >= end) return fail("unexpected end of input");
  switch (*p) {
    case 'n':
      if (!parse_literal("null", 4)) return false;
      *out = JsonValue();
      return true;
    case 't':
      if (!parse_literal("true", 4)) return false;
      *out = JsonValue::make_bool(true);
      return true;
    case 'f':
      if (!parse_literal("false", 5)) return false;
      *out = JsonValue::make_bool(false);
      return true;
    case '"': {
      std::string s;
      if (!parse_string(&s)) return false;
      *out = JsonValue::make_string(std::move(s));
      return true;
    }
    case '[': {
      ++p;
      *out = JsonValue::make_array();
      skip_ws();
      if (p < end && *p == ']') {
        ++p;
        return true;
      }
      for (;;) {
        JsonValue item;
        if (!parse_value(&item, depth + 1)) return false;
        out->push_back(std::move(item));
        skip_ws();
        if (p < end && *p == ',') {
          ++p;
          continue;
        }
        if (p < end && *p == ']') {
          ++p;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    case '{': {
      ++p;
      *out = JsonValue::make_object();
      skip_ws();
      if (p < end && *p == '}') {
        ++p;
        return true;
      }
      for (;;) {
        skip_ws();
        std::string key;
        if (!parse_string(&key)) return false;
        skip_ws();
        if (p >= end || *p != ':') return fail("expected ':'");
        ++p;
        JsonValue val;
        if (!parse_value(&val, depth + 1)) return false;
        out->set(key, std::move(val));
        skip_ws();
        if (p < end && *p == ',') {
          ++p;
          continue;
        }
        if (p < end && *p == '}') {
          ++p;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    default:
      return parse_number(out);
  }
}

void dump_string(const std::string& s, std::string* out) {
  out->push_back('"');
  *out += json_escape(s);
  out->push_back('"');
}

void dump_value(const JsonValue& v, std::string* out) {
  switch (v.type()) {
    case JsonValue::Type::kNull:
      *out += "null";
      break;
    case JsonValue::Type::kBool:
      *out += v.as_bool() ? "true" : "false";
      break;
    case JsonValue::Type::kInt:
      *out += std::to_string(v.as_int());
      break;
    case JsonValue::Type::kDouble: {
      double d = v.as_double();
      if (std::isfinite(d)) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", d);
        *out += buf;
      } else {
        *out += "null";  // JSON has no inf/nan
      }
      break;
    }
    case JsonValue::Type::kString:
      dump_string(v.as_string(), out);
      break;
    case JsonValue::Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& item : v.items()) {
        if (!first) out->push_back(',');
        first = false;
        dump_value(item, out);
      }
      out->push_back(']');
      break;
    }
    case JsonValue::Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, val] : v.members()) {
        if (!first) out->push_back(',');
        first = false;
        dump_string(key, out);
        out->push_back(':');
        dump_value(val, out);
      }
      out->push_back('}');
      break;
    }
  }
}

}  // namespace

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_int(int64_t i) {
  JsonValue v;
  v.type_ = Type::kInt;
  v.int_ = i;
  return v;
}

JsonValue JsonValue::make_double(double d) {
  JsonValue v;
  v.type_ = Type::kDouble;
  v.double_ = d;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue JsonValue::make_object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

int64_t JsonValue::as_int() const {
  if (type_ == Type::kInt) return int_;
  if (type_ == Type::kDouble) {
    // Saturate: casting a double outside int64's range is undefined.
    constexpr double kLimit = 9.2e18;
    if (std::isnan(double_)) return 0;
    return static_cast<int64_t>(std::clamp(double_, -kLimit, kLimit));
  }
  return 0;
}

double JsonValue::as_double() const {
  if (type_ == Type::kDouble) return double_;
  if (type_ == Type::kInt) return static_cast<double>(int_);
  return 0;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

void JsonValue::set(const std::string& key, JsonValue v) {
  type_ = Type::kObject;
  object_[key] = std::move(v);
}

void JsonValue::push_back(JsonValue v) {
  type_ = Type::kArray;
  array_.push_back(std::move(v));
}

std::string JsonValue::dump() const {
  std::string out;
  dump_value(*this, &out);
  return out;
}

std::optional<JsonValue> JsonValue::parse(const std::string& text,
                                          std::string* error) {
  Parser parser{text.data(), text.data() + text.size(), text.data(), {}};
  JsonValue v;
  if (!parser.parse_value(&v, 0)) {
    if (error) *error = parser.error;
    return std::nullopt;
  }
  parser.skip_ws();
  if (parser.p != parser.end) {
    if (error)
      *error = "trailing bytes at offset " +
               std::to_string(parser.p - parser.begin);
    return std::nullopt;
  }
  return v;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  return out;
}

}  // namespace picola::net
