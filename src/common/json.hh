/**
 * @file
 * A minimal JSON value model, parser, and serializer.
 *
 * Controller catalogs and deployment topologies are declarative data;
 * supporting them as JSON documents lets downstream users analyze
 * their own controllers without recompiling (see fmea/catalogIo and
 * topology/topologyIo, and the sdnav_cli tool). The dialect is
 * strict RFC-8259 JSON minus one extension: numbers are always
 * doubles. Object member order is preserved for deterministic
 * round-trips.
 */

#ifndef SDNAV_COMMON_JSON_HH
#define SDNAV_COMMON_JSON_HH

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sdnav::json
{

/** A JSON value: null, bool, number, string, array, or object. */
class Value
{
  public:
    /** Discriminator of the stored alternative. */
    enum class Type { Null, Bool, Number, String, Array, Object };

    /** Objects preserve insertion order. */
    using Object = std::vector<std::pair<std::string, Value>>;
    using Array = std::vector<Value>;

    /** Construct null. */
    Value() = default;

    /** Construct from primitives. */
    Value(bool value);
    Value(double value);
    Value(int value);
    Value(const char *value);
    Value(std::string value);
    Value(Array value);
    Value(Object value);

    /** Factory helpers that read naturally at call sites. */
    static Value makeArray() { return Value(Array{}); }
    static Value makeObject() { return Value(Object{}); }

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isBool() const { return type_ == Type::Bool; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Checked accessors; throw ModelError on type mismatch. */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    const Array &asArray() const;
    const Object &asObject() const;

    /** Mutable array/object access (converts a null in place). */
    Array &array();
    Object &object();

    /** Append to an array value. */
    void push(Value value);

    /** Set an object member (replaces an existing key). */
    void set(const std::string &key, Value value);

    /**
     * Object member lookup in one pass: the member, or nullptr when
     * absent or when this is not an object.
     */
    const Value *find(std::string_view key) const;

    /** True if an object contains the key. */
    bool contains(std::string_view key) const;

    /**
     * Object member lookup. @throws ModelError when absent or when
     * this is not an object.
     */
    const Value &at(std::string_view key) const;

    /** Object member lookup with a default for absent keys. */
    double numberOr(const std::string &key, double fallback) const;
    std::string stringOr(const std::string &key,
                         std::string fallback) const;
    bool boolOr(const std::string &key, bool fallback) const;

    /** Serialize; indent > 0 pretty-prints with that many spaces. */
    std::string dump(int indent = 0) const;

    /** Append the compact serialization to out. */
    void dump(std::string &out) const { dumpTo(out, 0, 0); }

    bool operator==(const Value &other) const;

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_ = Type::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    Array array_;
    Object object_;
};

/**
 * Append s to out as a quoted, escaped JSON string. Value::dump
 * writes strings through this, so a reply written without a tree
 * escapes exactly as a dumped one.
 */
void appendString(std::string &out, std::string_view s);

/**
 * Append a finite number to out: an integer of magnitude below 1e15
 * as its digits, any other value as the shortest of %.15g, %.16g and
 * %.17g that reads back as the same double. The text never depends
 * on the global locale. Value::dump writes numbers through this.
 *
 * @throws ModelError for NaN and infinities.
 */
void appendNumber(std::string &out, double value);

/**
 * Parse a JSON document. A number literal reads as its nearest
 * double, subnormals included; one whose magnitude overflows, or
 * underflows to zero although nonzero, is rejected as "number out of
 * range" at its offset.
 *
 * @param text The document.
 * @return The root value.
 * @throws ModelError with offset information on malformed input.
 */
Value parse(const std::string &text);

/** Parse the contents of a file. @throws ModelError on I/O failure. */
Value parseFile(const std::string &path);

} // namespace sdnav::json

#endif // SDNAV_COMMON_JSON_HH
