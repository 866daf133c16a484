#include "core/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>

namespace advect::core::json {

namespace {

/// Deepest array/object nesting parse() accepts. The parser recurses once
/// per level, so without a bound one hostile document (an advectd submit
/// frame of 40 000 '[') overflows the stack.
constexpr int kMaxDepth = 64;

class Parser {
  public:
    Parser(const std::string& text, const std::string& origin)
        : s_(text), origin_(origin) {}

    Value parse() {
        Value v = value();
        skip_ws();
        if (pos_ != s_.size()) fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string& what) const {
        std::size_t line = 1;
        for (std::size_t i = 0; i < pos_ && i < s_.size(); ++i)
            if (s_[i] == '\n') ++line;
        throw std::invalid_argument(origin_ + ":" + std::to_string(line) +
                                    ": " + what);
    }

    void skip_ws() {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    char peek() {
        skip_ws();
        if (pos_ >= s_.size()) fail("unexpected end of input");
        return s_[pos_];
    }

    void expect(char c) {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" + s_[pos_] + "'");
        ++pos_;
    }

    Value value() {
        switch (peek()) {
            case '{': return nested(&Parser::object);
            case '[': return nested(&Parser::array);
            case '"': {
                Value v;
                v.kind = Value::Kind::String;
                v.str = string();
                return v;
            }
            case 't':
            case 'f': return boolean();
            case 'n': {
                literal("null");
                return Value{};
            }
            default: return number();
        }
    }

    Value nested(Value (Parser::*parse)()) {
        if (depth_ == kMaxDepth)
            fail("nesting deeper than " + std::to_string(kMaxDepth) +
                 " levels");
        ++depth_;
        Value v = (this->*parse)();
        --depth_;
        return v;
    }

    Value object() {
        expect('{');
        Value v;
        v.kind = Value::Kind::Object;
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            if (peek() != '"') fail("expected a quoted object key");
            std::string key = string();
            expect(':');
            v.members.emplace_back(std::move(key), value());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    Value array() {
        expect('[');
        Value v;
        v.kind = Value::Kind::Array;
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.items.push_back(value());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string string() {
        expect('"');
        std::string out;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c == '\\') {
                if (pos_ >= s_.size()) fail("unterminated escape");
                switch (s_[pos_++]) {
                    case '"': out += '"'; break;
                    case '\\': out += '\\'; break;
                    case '/': out += '/'; break;
                    case 'n': out += '\n'; break;
                    case 't': out += '\t'; break;
                    case 'r': out += '\r'; break;
                    default: fail("unsupported string escape");
                }
            } else {
                out += c;
            }
        }
        if (pos_ >= s_.size()) fail("unterminated string");
        ++pos_;  // closing quote
        return out;
    }

    Value boolean() {
        Value v;
        v.kind = Value::Kind::Bool;
        if (s_[pos_] == 't') {
            literal("true");
            v.b = true;
        } else {
            literal("false");
        }
        return v;
    }

    void literal(const char* word) {
        for (const char* p = word; *p != '\0'; ++p) {
            if (pos_ >= s_.size() || s_[pos_] != *p)
                fail(std::string("expected '") + word + "'");
            ++pos_;
        }
    }

    Value number() {
        skip_ws();
        const std::size_t start = pos_;
        if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '-' || s_[pos_] == '+'))
            ++pos_;
        if (pos_ == start) fail("expected a value");
        try {
            Value v;
            v.kind = Value::Kind::Number;
            v.num = std::stod(s_.substr(start, pos_ - start));
            return v;
        } catch (const std::exception&) {
            pos_ = start;
            fail("malformed number");
        }
    }

    const std::string& s_;
    const std::string& origin_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

void escape_into(std::ostringstream& os, const std::string& s) {
    os << '"';
    for (const char c : s) {
        switch (c) {
            case '"': os << "\\\""; break;
            case '\\': os << "\\\\"; break;
            case '\n': os << "\\n"; break;
            case '\t': os << "\\t"; break;
            case '\r': os << "\\r"; break;
            default: os << c;
        }
    }
    os << '"';
}

void number_into(std::ostringstream& os, double d) {
    // Integers (the common case in every schema here) print exactly; other
    // values get enough digits to round-trip.
    if (d == std::floor(d) && std::abs(d) < 9.007199254740992e15) {
        os << static_cast<long long>(d);
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    os << buf;
}

void dump_into(std::ostringstream& os, const Value& v, int indent) {
    const std::string pad(2 * static_cast<std::size_t>(indent), ' ');
    const std::string pad_in(2 * static_cast<std::size_t>(indent + 1), ' ');
    switch (v.kind) {
        case Value::Kind::Null: os << "null"; return;
        case Value::Kind::Bool: os << (v.b ? "true" : "false"); return;
        case Value::Kind::Number: number_into(os, v.num); return;
        case Value::Kind::String: escape_into(os, v.str); return;
        case Value::Kind::Array: {
            if (v.items.empty()) {
                os << "[]";
                return;
            }
            os << "[";
            for (std::size_t i = 0; i < v.items.size(); ++i) {
                os << (i == 0 ? "\n" : ",\n") << pad_in;
                dump_into(os, v.items[i], indent + 1);
            }
            os << "\n" << pad << "]";
            return;
        }
        case Value::Kind::Object: {
            if (v.members.empty()) {
                os << "{}";
                return;
            }
            os << "{";
            for (std::size_t i = 0; i < v.members.size(); ++i) {
                os << (i == 0 ? "\n" : ",\n") << pad_in;
                escape_into(os, v.members[i].first);
                os << ": ";
                dump_into(os, v.members[i].second, indent + 1);
            }
            os << "\n" << pad << "}";
            return;
        }
    }
}

}  // namespace

Value Value::null() { return Value{}; }

Value Value::boolean(bool v) {
    Value out;
    out.kind = Kind::Bool;
    out.b = v;
    return out;
}

Value Value::number(double v) {
    Value out;
    out.kind = Kind::Number;
    out.num = v;
    return out;
}

Value Value::string(std::string v) {
    Value out;
    out.kind = Kind::String;
    out.str = std::move(v);
    return out;
}

Value Value::array() {
    Value out;
    out.kind = Kind::Array;
    return out;
}

Value Value::object() {
    Value out;
    out.kind = Kind::Object;
    return out;
}

void Value::set(const std::string& key, Value v) {
    for (auto& [k, existing] : members)
        if (k == key) {
            existing = std::move(v);
            return;
        }
    members.emplace_back(key, std::move(v));
}

Value parse(const std::string& text, const std::string& origin) {
    return Parser(text, origin).parse();
}

Value load_file(const std::string& path) {
    std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
        std::fopen(path.c_str(), "rb"), &std::fclose);
    if (!f) throw std::runtime_error("json: cannot read " + path);
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f.get())) > 0)
        text.append(buf, n);
    return parse(text, path);
}

std::string dump(const Value& v, int indent) {
    std::ostringstream os;
    dump_into(os, v, indent);
    return os.str();
}

void save_file(const Value& v, const std::string& path) {
    std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
        std::fopen(path.c_str(), "w"), &std::fclose);
    if (!f) throw std::runtime_error("json: cannot write " + path);
    const std::string text = dump(v) + "\n";
    if (std::fwrite(text.data(), 1, text.size(), f.get()) != text.size())
        throw std::runtime_error("json: short write to " + path);
}

void bad_key(const std::string& origin, const std::string& key,
             const std::string& what) {
    throw std::invalid_argument(origin + ": " + key + ": " + what);
}

double require_number(const Value& v, const std::string& origin,
                      const std::string& key) {
    if (v.kind != Value::Kind::Number)
        bad_key(origin, key, "expected a number");
    return v.num;
}

int require_int(const Value& v, const std::string& origin,
                const std::string& key) {
    const double d = require_number(v, origin, key);
    if (d != std::floor(d) || d < std::numeric_limits<int>::min() ||
        d > std::numeric_limits<int>::max())
        bad_key(origin, key, "expected an integer");
    return static_cast<int>(d);
}

std::uint64_t require_u64(const Value& v, const std::string& origin,
                          const std::string& key) {
    const double d = require_number(v, origin, key);
    if (d != std::floor(d) || d < 0.0 || d > 1.8446744073709552e19)
        bad_key(origin, key, "expected a non-negative integer");
    return static_cast<std::uint64_t>(d);
}

const std::string& require_string(const Value& v, const std::string& origin,
                                  const std::string& key) {
    if (v.kind != Value::Kind::String)
        bad_key(origin, key, "expected a string");
    return v.str;
}

bool require_bool(const Value& v, const std::string& origin,
                  const std::string& key) {
    if (v.kind != Value::Kind::Bool)
        bad_key(origin, key, "expected true or false");
    return v.b;
}

}  // namespace advect::core::json
