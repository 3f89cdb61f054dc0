#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/check.hpp"

namespace dcft::obs {

// ---------------------------------------------------------------------------
// JsonWriter

JsonWriter::JsonWriter() { out_.reserve(4096); }

void JsonWriter::comma_and_indent(bool is_value) {
    if (stack_.empty()) return;  // root value: no separator
    Frame& top = stack_.back();
    if (!top.array && is_value && top.has_key) {
        // value directly after its key: no comma/newline, key() wrote ": ".
        top.has_key = false;
        return;
    }
    if (top.members > 0) out_ += ',';
    out_ += '\n';
    out_.append(2 * stack_.size(), ' ');
    ++top.members;
}

JsonWriter& JsonWriter::begin_object() {
    comma_and_indent(true);
    out_ += '{';
    stack_.push_back(Frame{false, 0, false});
    return *this;
}

JsonWriter& JsonWriter::end_object() {
    DCFT_EXPECTS(!stack_.empty() && !stack_.back().array,
                 "JsonWriter::end_object: no open object");
    const bool had_members = stack_.back().members > 0;
    stack_.pop_back();
    if (had_members) {
        out_ += '\n';
        out_.append(2 * stack_.size(), ' ');
    }
    out_ += '}';
    return *this;
}

JsonWriter& JsonWriter::begin_array() {
    comma_and_indent(true);
    out_ += '[';
    stack_.push_back(Frame{true, 0, false});
    return *this;
}

JsonWriter& JsonWriter::end_array() {
    DCFT_EXPECTS(!stack_.empty() && stack_.back().array,
                 "JsonWriter::end_array: no open array");
    const bool had_members = stack_.back().members > 0;
    stack_.pop_back();
    if (had_members) {
        out_ += '\n';
        out_.append(2 * stack_.size(), ' ');
    }
    out_ += ']';
    return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
    DCFT_EXPECTS(!stack_.empty() && !stack_.back().array,
                 "JsonWriter::key outside an object");
    comma_and_indent(false);
    out_ += quote(k);
    out_ += ": ";
    stack_.back().has_key = true;
    return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
    comma_and_indent(true);
    out_ += quote(s);
    return *this;
}

JsonWriter& JsonWriter::value(bool b) {
    comma_and_indent(true);
    out_ += b ? "true" : "false";
    return *this;
}

JsonWriter& JsonWriter::value(double d) {
    comma_and_indent(true);
    if (!std::isfinite(d)) {
        out_ += "null";  // JSON has no NaN/Inf
        return *this;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", d);
    out_ += buf;
    // Ensure the token parses back as a number even for integral doubles.
    return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t u) {
    comma_and_indent(true);
    out_ += std::to_string(u);
    return *this;
}

JsonWriter& JsonWriter::value(std::int64_t i) {
    comma_and_indent(true);
    out_ += std::to_string(i);
    return *this;
}

JsonWriter& JsonWriter::null() {
    comma_and_indent(true);
    out_ += "null";
    return *this;
}

std::string JsonWriter::quote(std::string_view s) {
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned>(
                                      static_cast<unsigned char>(c)));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
    return out;
}

// ---------------------------------------------------------------------------
// JsonValue

JsonValue JsonValue::make_bool(bool b) {
    JsonValue v;
    v.kind_ = Kind::Bool;
    v.bool_ = b;
    return v;
}
JsonValue JsonValue::make_number(double d) {
    JsonValue v;
    v.kind_ = Kind::Number;
    v.number_ = d;
    return v;
}
JsonValue JsonValue::make_string(std::string s) {
    JsonValue v;
    v.kind_ = Kind::String;
    v.string_ = std::move(s);
    return v;
}
JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
    JsonValue v;
    v.kind_ = Kind::Array;
    v.array_ = std::move(items);
    return v;
}
JsonValue JsonValue::make_object(std::map<std::string, JsonValue> members) {
    JsonValue v;
    v.kind_ = Kind::Object;
    v.object_ = std::move(members);
    return v;
}

const JsonValue* JsonValue::find(std::string_view key) const {
    if (kind_ != Kind::Object) return nullptr;
    const auto it = object_.find(std::string(key));
    return it == object_.end() ? nullptr : &it->second;
}

const JsonValue* JsonValue::find(std::string_view key, Kind kind) const {
    const JsonValue* v = find(key);
    return (v != nullptr && v->kind() == kind) ? v : nullptr;
}

// ---------------------------------------------------------------------------
// Parser

namespace {

class Parser {
public:
    Parser(std::string_view text, std::string* error)
        : text_(text), error_(error) {}

    std::optional<JsonValue> parse() {
        skip_ws();
        JsonValue v;
        if (!parse_value(v)) return std::nullopt;
        skip_ws();
        if (pos_ != text_.size()) {
            fail("trailing characters after document");
            return std::nullopt;
        }
        return v;
    }

private:
    void fail(const std::string& what) {
        if (error_ != nullptr && error_->empty())
            *error_ = what + " at offset " + std::to_string(pos_);
    }

    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool literal(std::string_view lit) {
        if (text_.substr(pos_, lit.size()) != lit) return false;
        pos_ += lit.size();
        return true;
    }

    bool parse_value(JsonValue& out) {
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return false;
        }
        const char c = text_[pos_];
        if (c == '{') return parse_object(out);
        if (c == '[') return parse_array(out);
        if (c == '"') {
            std::string s;
            if (!parse_string(s)) return false;
            out = JsonValue::make_string(std::move(s));
            return true;
        }
        if (literal("true")) {
            out = JsonValue::make_bool(true);
            return true;
        }
        if (literal("false")) {
            out = JsonValue::make_bool(false);
            return true;
        }
        if (literal("null")) {
            out = JsonValue::make_null();
            return true;
        }
        return parse_number(out);
    }

    bool parse_number(JsonValue& out) {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '-' ||
                text_[pos_] == '+'))
            ++pos_;
        if (pos_ == start) {
            fail("expected a value");
            return false;
        }
        const std::string token(text_.substr(start, pos_ - start));
        char* end = nullptr;
        const double d = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0') {
            fail("malformed number '" + token + "'");
            return false;
        }
        out = JsonValue::make_number(d);
        return true;
    }

    bool parse_string(std::string& out) {
        if (pos_ >= text_.size() || text_[pos_] != '"') {
            fail("expected '\"'");
            return false;
        }
        ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"') return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) break;
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) {
                        fail("truncated \\u escape");
                        return false;
                    }
                    const std::string hex(text_.substr(pos_, 4));
                    pos_ += 4;
                    char* end = nullptr;
                    const long cp = std::strtol(hex.c_str(), &end, 16);
                    if (end == nullptr || *end != '\0') {
                        fail("malformed \\u escape");
                        return false;
                    }
                    // Emit UTF-8 (BMP only; surrogate pairs unsupported —
                    // the writer never emits them).
                    if (cp < 0x80) {
                        out += static_cast<char>(cp);
                    } else if (cp < 0x800) {
                        out += static_cast<char>(0xC0 | (cp >> 6));
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (cp >> 12));
                        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    }
                    break;
                }
                default:
                    fail("unknown escape");
                    return false;
            }
        }
        fail("unterminated string");
        return false;
    }

    bool parse_array(JsonValue& out) {
        ++pos_;  // '['
        std::vector<JsonValue> items;
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            out = JsonValue::make_array(std::move(items));
            return true;
        }
        for (;;) {
            skip_ws();
            JsonValue item;
            if (!parse_value(item)) return false;
            items.push_back(std::move(item));
            skip_ws();
            if (pos_ >= text_.size()) {
                fail("unterminated array");
                return false;
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                out = JsonValue::make_array(std::move(items));
                return true;
            }
            fail("expected ',' or ']'");
            return false;
        }
    }

    bool parse_object(JsonValue& out) {
        ++pos_;  // '{'
        std::map<std::string, JsonValue> members;
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            out = JsonValue::make_object(std::move(members));
            return true;
        }
        for (;;) {
            skip_ws();
            std::string k;
            if (!parse_string(k)) return false;
            skip_ws();
            if (pos_ >= text_.size() || text_[pos_] != ':') {
                fail("expected ':'");
                return false;
            }
            ++pos_;
            skip_ws();
            JsonValue v;
            if (!parse_value(v)) return false;
            members.emplace(std::move(k), std::move(v));
            skip_ws();
            if (pos_ >= text_.size()) {
                fail("unterminated object");
                return false;
            }
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                out = JsonValue::make_object(std::move(members));
                return true;
            }
            fail("expected ',' or '}'");
            return false;
        }
    }

    std::string_view text_;
    std::string* error_;
    std::size_t pos_ = 0;
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text,
                                    std::string* error) {
    if (error != nullptr) error->clear();
    return Parser(text, error).parse();
}

}  // namespace dcft::obs
