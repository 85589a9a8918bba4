#include "common/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <system_error>

#include "common/error.hh"

namespace sdnav::json
{

Value::Value(bool value) : type_(Type::Bool), bool_(value) {}

Value::Value(double value) : type_(Type::Number), number_(value) {}

Value::Value(int value)
    : type_(Type::Number), number_(static_cast<double>(value))
{}

Value::Value(const char *value)
    : type_(Type::String), string_(value)
{}

Value::Value(std::string value)
    : type_(Type::String), string_(std::move(value))
{}

Value::Value(Array value) : type_(Type::Array), array_(std::move(value))
{}

Value::Value(Object value)
    : type_(Type::Object), object_(std::move(value))
{}

bool
Value::asBool() const
{
    require(type_ == Type::Bool, "JSON value is not a bool");
    return bool_;
}

double
Value::asNumber() const
{
    require(type_ == Type::Number, "JSON value is not a number");
    return number_;
}

const std::string &
Value::asString() const
{
    require(type_ == Type::String, "JSON value is not a string");
    return string_;
}

const Value::Array &
Value::asArray() const
{
    require(type_ == Type::Array, "JSON value is not an array");
    return array_;
}

const Value::Object &
Value::asObject() const
{
    require(type_ == Type::Object, "JSON value is not an object");
    return object_;
}

Value::Array &
Value::array()
{
    if (type_ == Type::Null)
        type_ = Type::Array;
    require(type_ == Type::Array, "JSON value is not an array");
    return array_;
}

Value::Object &
Value::object()
{
    if (type_ == Type::Null)
        type_ = Type::Object;
    require(type_ == Type::Object, "JSON value is not an object");
    return object_;
}

void
Value::push(Value value)
{
    array().push_back(std::move(value));
}

void
Value::set(const std::string &key, Value value)
{
    Object &members = object();
    for (auto &member : members) {
        if (member.first == key) {
            member.second = std::move(value);
            return;
        }
    }
    members.emplace_back(key, std::move(value));
}

const Value *
Value::find(std::string_view key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &member : object_) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

bool
Value::contains(std::string_view key) const
{
    return find(key) != nullptr;
}

const Value &
Value::at(std::string_view key) const
{
    require(type_ == Type::Object, "JSON value is not an object");
    if (const Value *member = find(key))
        return *member;
    throw ModelError("JSON object has no member '" + std::string(key) +
                     "'");
}

double
Value::numberOr(const std::string &key, double fallback) const
{
    const Value *member = find(key);
    return member ? member->asNumber() : fallback;
}

std::string
Value::stringOr(const std::string &key, std::string fallback) const
{
    const Value *member = find(key);
    return member ? member->asString() : std::move(fallback);
}

bool
Value::boolOr(const std::string &key, bool fallback) const
{
    const Value *member = find(key);
    return member ? member->asBool() : fallback;
}

bool
Value::operator==(const Value &other) const
{
    if (type_ != other.type_)
        return false;
    switch (type_) {
      case Type::Null:
        return true;
      case Type::Bool:
        return bool_ == other.bool_;
      case Type::Number:
        return number_ == other.number_;
      case Type::String:
        return string_ == other.string_;
      case Type::Array:
        return array_ == other.array_;
      case Type::Object:
        return object_ == other.object_;
    }
    return false;
}

void
appendString(std::string &out, std::string_view s)
{
    out += '"';
    // Copy the runs between escapes whole.
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const char c = s[i];
        if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20)
            continue;
        out.append(s.data() + run, i - run);
        run = i + 1;
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
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          default: {
            // Widen through unsigned char: a plain signed char would
            // sign-extend into garbage if the escape set ever grows
            // past the control range.
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(
                              static_cast<unsigned char>(c)));
            out += buf;
          }
        }
    }
    out.append(s.data() + run, s.size() - run);
    out += '"';
}

void
appendNumber(std::string &out, double value)
{
    require(std::isfinite(value),
            "JSON cannot represent non-finite numbers");
    // std::to_chars writes exactly what printf("%.{p}g") does, in the
    // C locale, without a stream or an allocation.
    char buf[32];
    char *end;
    // Bound the magnitude before the cast: converting a double
    // outside long long's range is undefined.
    if (std::fabs(value) < 1e15 &&
        value == static_cast<double>(static_cast<long long>(value))) {
        end = std::to_chars(buf, buf + sizeof(buf),
                            static_cast<long long>(value))
                  .ptr;
    } else {
        // Shortest representation that round-trips exactly; 17
        // significant digits always do.
        for (int precision = 15;; ++precision) {
            end = std::to_chars(buf, buf + sizeof(buf), value,
                                std::chars_format::general, precision)
                      .ptr;
            double back = 0.0;
            if (precision == 17 ||
                (std::from_chars(buf, end, back).ec == std::errc() &&
                 back == value))
                break;
        }
    }
    out.append(buf, end);
}

void
Value::dumpTo(std::string &out, int indent, int depth) const
{
    auto newline = [&out, indent, depth](int extra) {
        if (indent <= 0)
            return;
        out += '\n';
        out.append(static_cast<std::size_t>(indent * (depth + extra)),
                   ' ');
    };
    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Number:
        appendNumber(out, number_);
        break;
      case Type::String:
        appendString(out, string_);
        break;
      case Type::Array: {
        if (array_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        bool first = true;
        for (const Value &item : array_) {
            if (!first)
                out += ',';
            first = false;
            newline(1);
            item.dumpTo(out, indent, depth + 1);
        }
        newline(0);
        out += ']';
        break;
      }
      case Type::Object: {
        if (object_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        bool first = true;
        for (const auto &member : object_) {
            if (!first)
                out += ',';
            first = false;
            newline(1);
            appendString(out, member.first);
            out += indent > 0 ? ": " : ":";
            member.second.dumpTo(out, indent, depth + 1);
        }
        newline(0);
        out += '}';
        break;
      }
    }
}

std::string
Value::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace
{

/** Recursive-descent JSON parser with offset-bearing errors. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Value
    parseDocument()
    {
        skipWhitespace();
        Value value = parseValue(0);
        skipWhitespace();
        if (pos_ != text_.size())
            fail("trailing content after JSON document");
        return value;
    }

  private:
    [[noreturn]] void
    fail(const std::string &message) const
    {
        throw ModelError("JSON parse error at offset " +
                         std::to_string(pos_) + ": " + message);
    }

    static bool isDigit(char c) { return c >= '0' && c <= '9'; }

    void
    skipWhitespace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char
    peek() const
    {
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    char
    take()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_++];
    }

    void
    expect(char c)
    {
        if (take() != c)
            fail(std::string("expected '") + c + "'");
    }

    bool
    consumeLiteral(const char *literal)
    {
        std::size_t len = std::char_traits<char>::length(literal);
        if (text_.compare(pos_, len, literal) == 0) {
            pos_ += len;
            return true;
        }
        return false;
    }

    Value
    parseValue(int depth)
    {
        if (depth > 128)
            fail("nesting too deep");
        skipWhitespace();
        char c = peek();
        switch (c) {
          case '{':
            return parseObject(depth);
          case '[':
            return parseArray(depth);
          case '"':
            return Value(parseString());
          case 't':
            if (consumeLiteral("true"))
                return Value(true);
            fail("invalid literal");
          case 'f':
            if (consumeLiteral("false"))
                return Value(false);
            fail("invalid literal");
          case 'n':
            if (consumeLiteral("null"))
                return Value();
            fail("invalid literal");
          default:
            return parseNumber();
        }
    }

    Value
    parseObject(int depth)
    {
        expect('{');
        // Built aside and wrapped once; the reserve covers a request
        // line's members in one allocation.
        Value::Object members;
        skipWhitespace();
        if (peek() == '}') {
            ++pos_;
            return Value(std::move(members));
        }
        members.reserve(8);
        for (;;) {
            skipWhitespace();
            if (peek() != '"')
                fail("expected object key string");
            std::string key = parseString();
            skipWhitespace();
            expect(':');
            Value value = parseValue(depth + 1);
            for (const auto &member : members) {
                if (member.first == key)
                    fail("duplicate object key '" + key + "'");
            }
            members.emplace_back(std::move(key), std::move(value));
            skipWhitespace();
            char c = take();
            if (c == '}')
                return Value(std::move(members));
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    Value
    parseArray(int depth)
    {
        expect('[');
        Value result = Value::makeArray();
        skipWhitespace();
        if (peek() == ']') {
            ++pos_;
            return result;
        }
        for (;;) {
            result.push(parseValue(depth + 1));
            skipWhitespace();
            char c = take();
            if (c == ']')
                return result;
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            // Copy the run up to the next quote, escape or control
            // character whole.
            std::size_t run = pos_;
            while (run < text_.size() && text_[run] != '"' &&
                   text_[run] != '\\' &&
                   static_cast<unsigned char>(text_[run]) >= 0x20)
                ++run;
            out.append(text_, pos_, run - pos_);
            pos_ = run;
            char c = take();
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("unescaped control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            char esc = take();
            switch (esc) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'n':
                out += '\n';
                break;
              case 't':
                out += '\t';
                break;
              case 'r':
                out += '\r';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'u': {
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = take();
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += h - '0';
                    else if (h >= 'a' && h <= 'f')
                        code += 10 + h - 'a';
                    else if (h >= 'A' && h <= 'F')
                        code += 10 + h - 'A';
                    else
                        fail("invalid \\u escape");
                }
                // Encode as UTF-8 (basic multilingual plane only;
                // surrogate pairs are rejected as out of scope).
                if (code >= 0xd800 && code <= 0xdfff)
                    fail("surrogate pairs are not supported");
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xc0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                fail("invalid escape sequence");
            }
        }
    }

    Value
    parseNumber()
    {
        std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        if (!isDigit(peek()))
            fail("invalid number");
        // RFC 8259: an integer part is 0 or starts with 1-9.
        if (peek() == '0' && pos_ + 1 < text_.size() &&
            isDigit(text_[pos_ + 1]))
            fail("leading zero in number");
        while (isDigit(peek()))
            ++pos_;
        if (peek() == '.') {
            ++pos_;
            if (!isDigit(peek()))
                fail("digit required after decimal point");
            while (isDigit(peek()))
                ++pos_;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-')
                ++pos_;
            if (!isDigit(peek()))
                fail("digit required in exponent");
            while (isDigit(peek()))
                ++pos_;
        }
        // The span is valid JSON, so from_chars reads all of it; it
        // rounds subnormals to nearest and flags only literals whose
        // magnitude overflows or underflows to zero.
        double value = 0.0;
        const char *first = text_.data() + start;
        const char *last = text_.data() + pos_;
        auto [end, ec] = std::from_chars(first, last, value);
        if (ec != std::errc() || end != last) {
            pos_ = start;
            fail(ec == std::errc::result_out_of_range ? "number out of range"
                                                      : "invalid number");
        }
        return Value(value);
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // anonymous namespace

Value
parse(const std::string &text)
{
    Parser parser(text);
    return parser.parseDocument();
}

Value
parseFile(const std::string &path)
{
    std::ifstream in(path);
    require(static_cast<bool>(in), "cannot open JSON file: " + path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    return parse(content);
}

} // namespace sdnav::json
