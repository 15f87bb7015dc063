#include "serve/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/export.h"

namespace valentine {
namespace serve {

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double d) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::String(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

void JsonValue::Set(const std::string& key, JsonValue value) {
  if (type_ != Type::kObject) return;
  object_[key] = std::move(value);
}

void JsonValue::Append(JsonValue value) {
  if (type_ != Type::kArray) return;
  array_.push_back(std::move(value));
}

namespace {

/// Recursive-descent parser over a bounded input. Depth is decremented
/// on every container so a pathological body cannot recurse past
/// max_depth frames.
class Parser {
 public:
  Parser(const std::string& text, size_t max_depth)
      : text_(text), max_depth_(max_depth) {}

  Result<JsonValue> Run() {
    JsonValue v;
    Status st = ParseValue(max_depth_, &v);
    if (!st.ok()) return st;
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing bytes after JSON document");
    }
    return v;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::ParseError(what + " at byte " + std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Literal(const char* word) {
    size_t n = std::char_traits<char>::length(word);
    if (text_.compare(pos_, n, word) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Status ParseValue(size_t depth, JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth, out);
      case '[':
        return ParseArray(depth, out);
      case '"': {
        std::string s;
        VALENTINE_RETURN_NOT_OK(ParseString(&s));
        *out = JsonValue::String(std::move(s));
        return Status::OK();
      }
      case 't':
        if (!Literal("true")) return Error("bad literal");
        *out = JsonValue::Bool(true);
        return Status::OK();
      case 'f':
        if (!Literal("false")) return Error("bad literal");
        *out = JsonValue::Bool(false);
        return Status::OK();
      case 'n':
        if (!Literal("null")) return Error("bad literal");
        *out = JsonValue::Null();
        return Status::OK();
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(size_t depth, JsonValue* out) {
    if (depth == 0) return Error("nesting too deep");
    if (!Consume('{')) return Error("expected '{'");
    *out = JsonValue::Object();
    SkipWs();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWs();
      std::string key;
      VALENTINE_RETURN_NOT_OK(ParseString(&key));
      if (!Consume(':')) return Error("expected ':'");
      JsonValue member;
      VALENTINE_RETURN_NOT_OK(ParseValue(depth - 1, &member));
      out->Set(key, std::move(member));
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Error("expected ',' or '}'");
    }
  }

  Status ParseArray(size_t depth, JsonValue* out) {
    if (depth == 0) return Error("nesting too deep");
    if (!Consume('[')) return Error("expected '['");
    *out = JsonValue::Array();
    SkipWs();
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue element;
      VALENTINE_RETURN_NOT_OK(ParseValue(depth - 1, &element));
      out->Append(std::move(element));
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Error("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Error("expected string");
    }
    ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("truncated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(10 + h - 'a');
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(10 + h - 'A');
            } else {
              return Error("bad \\u escape");
            }
          }
          // UTF-8-encode the code point; surrogate pairs are rejected
          // (request payloads here are ASCII-centric table data, and a
          // lone surrogate must not round-trip silently).
          if (code >= 0xD800 && code <= 0xDFFF) {
            return Error("surrogate \\u escape unsupported");
          }
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("bad escape");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool digits = false;
    size_t int_start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
      digits = true;
    }
    // RFC 8259 forbids leading zeros ("01"); permissiveness here would
    // let two wire spellings decode to one value and break the
    // parse→write canonicalization the golden tests pin.
    if (pos_ - int_start > 1 && text_[int_start] == '0') {
      return Error("leading zero in number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        digits = true;
      }
    }
    if (digits && pos_ < text_.size() &&
        (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      bool exp_digits = false;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        exp_digits = true;
      }
      if (!exp_digits) return Error("bad exponent");
    }
    if (!digits) return Error("expected value");
    double d = std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
    if (!std::isfinite(d)) return Error("number out of range");
    *out = JsonValue::Number(d);
    return Status::OK();
  }

  const std::string& text_;
  const size_t max_depth_;
  size_t pos_ = 0;
};

void WriteValue(const JsonValue& v, std::string* out) {
  switch (v.type()) {
    case JsonValue::Type::kNull:
      out->append("null");
      return;
    case JsonValue::Type::kBool:
      out->append(v.bool_value() ? "true" : "false");
      return;
    case JsonValue::Type::kNumber:
      out->append(JsonNumberToString(v.number_value()));
      return;
    case JsonValue::Type::kString:
      out->push_back('"');
      out->append(JsonEscape(v.string_value()));
      out->push_back('"');
      return;
    case JsonValue::Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& item : v.array_items()) {
        if (!first) out->push_back(',');
        first = false;
        WriteValue(item, out);
      }
      out->push_back(']');
      return;
    }
    case JsonValue::Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, member] : v.object_items()) {
        if (!first) out->push_back(',');
        first = false;
        out->push_back('"');
        out->append(JsonEscape(key));
        out->append("\":");
        WriteValue(member, out);
      }
      out->push_back('}');
      return;
    }
  }
}

}  // namespace

Result<JsonValue> ParseJson(const std::string& text, size_t max_depth) {
  return Parser(text, max_depth).Run();
}

std::string WriteJson(const JsonValue& value) {
  std::string out;
  WriteValue(value, &out);
  return out;
}

std::string JsonNumberToString(double d) {
  // JSON has no spelling for NaN or infinity; ParseJson must accept
  // everything WriteJson emits.
  if (!std::isfinite(d)) return "null";
  if (std::fabs(d) < 1e15 && d == static_cast<int64_t>(d)) {
    return std::to_string(static_cast<int64_t>(d));
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

}  // namespace serve
}  // namespace valentine
