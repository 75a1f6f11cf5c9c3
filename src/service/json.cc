#include "service/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace cirfix::service {

namespace {

[[noreturn]] void
typeError(const char *want, Json::Kind got)
{
    static const char *names[] = {"null",   "bool",  "int",   "double",
                                  "string", "array", "object"};
    throw std::runtime_error(std::string("json: expected ") + want +
                             ", got " +
                             names[static_cast<int>(got)]);
}

void
escapeTo(const std::string &s, std::string &out)
{
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
}

class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    Json
    document()
    {
        Json v = value();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        throw std::runtime_error("json: " + what + " at offset " +
                                 std::to_string(pos_));
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consume(const char *lit)
    {
        size_t n = std::char_traits<char>::length(lit);
        if (text_.compare(pos_, n, lit) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    Json
    value()
    {
        skipWs();
        char c = peek();
        switch (c) {
          case '{':
          case '[': {
            if (++depth_ > kMaxJsonDepth)
                fail("nesting deeper than " +
                     std::to_string(kMaxJsonDepth) + " levels");
            Json v = c == '{' ? object() : array();
            --depth_;
            return v;
          }
          case '"': return Json(string());
          case 't':
            if (consume("true"))
                return Json(true);
            fail("bad literal");
          case 'f':
            if (consume("false"))
                return Json(false);
            fail("bad literal");
          case 'n':
            if (consume("null"))
                return Json(nullptr);
            fail("bad literal");
          default: return number();
        }
    }

    Json
    object()
    {
        expect('{');
        Json obj = Json::object();
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        while (true) {
            skipWs();
            std::string key = string();
            skipWs();
            expect(':');
            obj[key] = value();
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return obj;
        }
    }

    Json
    array()
    {
        expect('[');
        Json arr = Json::array();
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        while (true) {
            arr.push(value());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return arr;
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad hex digit in \\u escape");
                }
                // Encode the code point as UTF-8 (BMP only; the
                // protocol's payloads are ASCII Verilog/CSV text, so
                // surrogate pairs are rejected rather than handled).
                if (cp >= 0xD800 && cp <= 0xDFFF)
                    fail("surrogate \\u escapes are not supported");
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
              default: fail("unknown escape");
            }
        }
    }

    Json
    number()
    {
        size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        bool integral = true;
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        std::string tok = text_.substr(start, pos_ - start);
        if (tok.empty() || tok == "-")
            fail("bad number");
        char *end = nullptr;
        if (integral) {
            errno = 0;
            long long v = std::strtoll(tok.c_str(), &end, 10);
            if (end && *end == '\0' && errno != ERANGE)
                return Json(v);
        }
        end = nullptr;
        double d = std::strtod(tok.c_str(), &end);
        if (!end || *end != '\0')
            fail("bad number '" + tok + "'");
        return Json(d);
    }

    const std::string &text_;
    size_t pos_ = 0;
    int depth_ = 0;  //!< open arrays/objects
};

void
dumpTo(const Json &v, std::string &out)
{
    switch (v.kind()) {
      case Json::Kind::Null: out += "null"; break;
      case Json::Kind::Bool: out += v.asBool() ? "true" : "false"; break;
      case Json::Kind::Int: out += std::to_string(v.asInt()); break;
      case Json::Kind::Double: {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v.asDouble());
        out += buf;
        break;
      }
      case Json::Kind::String: escapeTo(v.asString(), out); break;
      case Json::Kind::Array: {
        out += '[';
        bool first = true;
        for (const Json &e : v.items()) {
            if (!first)
                out += ',';
            first = false;
            dumpTo(e, out);
        }
        out += ']';
        break;
      }
      case Json::Kind::Object: {
        out += '{';
        bool first = true;
        for (const auto &[key, val] : v.members()) {
            if (!first)
                out += ',';
            first = false;
            escapeTo(key, out);
            out += ':';
            dumpTo(val, out);
        }
        out += '}';
        break;
      }
    }
}

} // namespace

bool
Json::asBool() const
{
    if (kind_ != Kind::Bool)
        typeError("bool", kind_);
    return bool_;
}

int64_t
Json::asInt() const
{
    if (kind_ != Kind::Int)
        typeError("int", kind_);
    return int_;
}

double
Json::asDouble() const
{
    if (kind_ == Kind::Int)
        return static_cast<double>(int_);
    if (kind_ != Kind::Double)
        typeError("number", kind_);
    return double_;
}

const std::string &
Json::asString() const
{
    if (kind_ != Kind::String)
        typeError("string", kind_);
    return string_;
}

Json &
Json::operator[](const std::string &key)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Object;
    if (kind_ != Kind::Object)
        typeError("object", kind_);
    return object_[key];
}

const Json *
Json::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    auto it = object_.find(key);
    return it == object_.end() ? nullptr : &it->second;
}

void
Json::remove(const std::string &key)
{
    if (kind_ == Kind::Object)
        object_.erase(key);
}

const std::map<std::string, Json> &
Json::members() const
{
    if (kind_ != Kind::Object)
        typeError("object", kind_);
    return object_;
}

std::string
Json::str(const std::string &key, const std::string &dflt) const
{
    const Json *v = find(key);
    return v && v->isString() ? v->asString() : dflt;
}

int64_t
Json::num(const std::string &key, int64_t dflt) const
{
    const Json *v = find(key);
    return v && v->kind() == Kind::Int ? v->asInt() : dflt;
}

double
Json::real(const std::string &key, double dflt) const
{
    const Json *v = find(key);
    return v && v->isNumber() ? v->asDouble() : dflt;
}

bool
Json::flag(const std::string &key, bool dflt) const
{
    const Json *v = find(key);
    return v && v->kind() == Kind::Bool ? v->asBool() : dflt;
}

void
Json::push(Json v)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Array;
    if (kind_ != Kind::Array)
        typeError("array", kind_);
    array_.push_back(std::move(v));
}

const std::vector<Json> &
Json::items() const
{
    if (kind_ != Kind::Array)
        typeError("array", kind_);
    return array_;
}

size_t
Json::size() const
{
    if (kind_ == Kind::Array)
        return array_.size();
    if (kind_ == Kind::Object)
        return object_.size();
    typeError("array or object", kind_);
}

bool
Json::operator==(const Json &other) const
{
    if (kind_ != other.kind_)
        return false;
    switch (kind_) {
      case Kind::Null: return true;
      case Kind::Bool: return bool_ == other.bool_;
      case Kind::Int: return int_ == other.int_;
      case Kind::Double: return double_ == other.double_;
      case Kind::String: return string_ == other.string_;
      case Kind::Array: return array_ == other.array_;
      case Kind::Object: return object_ == other.object_;
    }
    return false;
}

std::string
Json::dump() const
{
    std::string out;
    dumpTo(*this, out);
    return out;
}

Json
Json::parse(const std::string &text)
{
    return Parser(text).document();
}

} // namespace cirfix::service
