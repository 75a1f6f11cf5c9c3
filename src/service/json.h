#pragma once

/**
 * @file
 * Minimal JSON value type for the repair-service wire protocol.
 *
 * The daemon speaks length-prefixed JSON frames (see framing.h), so it
 * needs exactly a parser, a serializer, and a convenient value type —
 * not a general-purpose JSON library. Design points that matter for
 * the protocol:
 *
 *  - Integers are kept as int64_t (not coerced through double), so
 *    evaluation counters and seeds round-trip exactly.
 *  - Objects use an ordered map, so dump() output is deterministic:
 *    two equal values serialize to identical bytes, which the tests
 *    (and the bit-identical-resume acceptance check) rely on.
 *  - parse() throws std::runtime_error with a byte offset on any
 *    malformed input; it never returns partial values. Nesting deeper
 *    than kMaxJsonDepth is malformed too: every frame a client sends
 *    is parsed, and the recursive parser (and the recursive dump and
 *    destructor of what it builds) must not run off the stack.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cirfix::service {

/** Deepest array/object nesting Json::parse() accepts. The protocol's
 *  own documents nest a handful of levels. */
inline constexpr int kMaxJsonDepth = 256;

class Json
{
  public:
    enum class Kind { Null, Bool, Int, Double, String, Array, Object };

    Json() = default;
    Json(std::nullptr_t) {}
    Json(bool b) : kind_(Kind::Bool), bool_(b) {}
    Json(int v) : kind_(Kind::Int), int_(v) {}
    Json(long v) : kind_(Kind::Int), int_(v) {}
    Json(long long v) : kind_(Kind::Int), int_(v) {}
    Json(unsigned long long v)
        : kind_(Kind::Int), int_(static_cast<int64_t>(v))
    {}
    Json(double v) : kind_(Kind::Double), double_(v) {}
    Json(const char *s) : kind_(Kind::String), string_(s) {}
    Json(std::string s) : kind_(Kind::String), string_(std::move(s)) {}

    static Json array() { return Json(Kind::Array); }
    static Json object() { return Json(Kind::Object); }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isString() const { return kind_ == Kind::String; }
    bool isNumber() const
    {
        return kind_ == Kind::Int || kind_ == Kind::Double;
    }

    /** Typed accessors; throw std::runtime_error on kind mismatch. */
    bool asBool() const;
    int64_t asInt() const;        //!< Int only (no silent truncation)
    double asDouble() const;      //!< Int or Double
    const std::string &asString() const;

    // -------- object interface --------
    /** Insert-or-get a member (makes this an object if Null). */
    Json &operator[](const std::string &key);
    /** Member lookup without insertion; nullptr when absent. */
    const Json *find(const std::string &key) const;
    bool has(const std::string &key) const { return find(key); }
    void remove(const std::string &key);
    const std::map<std::string, Json> &members() const;

    /** Typed member getters with defaults (object kind only). */
    std::string str(const std::string &key,
                    const std::string &dflt = "") const;
    int64_t num(const std::string &key, int64_t dflt = 0) const;
    double real(const std::string &key, double dflt = 0.0) const;
    bool flag(const std::string &key, bool dflt = false) const;

    // -------- array interface --------
    /** Append an element (makes this an array if Null). */
    void push(Json v);
    const std::vector<Json> &items() const;
    size_t size() const;

    bool operator==(const Json &other) const;
    bool operator!=(const Json &o) const { return !(*this == o); }

    /** Serialize; deterministic (sorted keys, %.17g doubles). */
    std::string dump() const;

    /** Parse a complete JSON document; throws std::runtime_error
     *  (also past kMaxJsonDepth levels of nesting). */
    static Json parse(const std::string &text);

  private:
    explicit Json(Kind k) : kind_(k) {}

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    int64_t int_ = 0;
    double double_ = 0.0;
    std::string string_;
    std::vector<Json> array_;
    std::map<std::string, Json> object_;
};

} // namespace cirfix::service
