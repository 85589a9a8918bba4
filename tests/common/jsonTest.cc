/**
 * @file
 * Tests for the JSON parser and serializer.
 */

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "common/json.hh"

namespace
{

using namespace sdnav::json;
using sdnav::ModelError;

TEST(JsonParse, Primitives)
{
    EXPECT_TRUE(parse("null").isNull());
    EXPECT_TRUE(parse("true").asBool());
    EXPECT_FALSE(parse("false").asBool());
    EXPECT_DOUBLE_EQ(parse("42").asNumber(), 42.0);
    EXPECT_DOUBLE_EQ(parse("-3.5").asNumber(), -3.5);
    EXPECT_DOUBLE_EQ(parse("1e-5").asNumber(), 1e-5);
    EXPECT_DOUBLE_EQ(parse("2.5E+3").asNumber(), 2500.0);
    EXPECT_EQ(parse("\"hi\"").asString(), "hi");
}

TEST(JsonParse, EmptyContainers)
{
    EXPECT_TRUE(parse("[]").asArray().empty());
    EXPECT_TRUE(parse("{}").asObject().empty());
    EXPECT_TRUE(parse(" [ ] ").isArray());
}

TEST(JsonParse, NestedDocument)
{
    Value v = parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
    EXPECT_EQ(v.asObject().size(), 2u);
    const Value &a = v.at("a");
    ASSERT_EQ(a.asArray().size(), 3u);
    EXPECT_DOUBLE_EQ(a.asArray()[1].asNumber(), 2.0);
    EXPECT_TRUE(a.asArray()[2].at("b").asBool());
    EXPECT_EQ(v.at("c").asString(), "x");
}

TEST(JsonParse, StringEscapes)
{
    EXPECT_EQ(parse(R"("a\"b")").asString(), "a\"b");
    EXPECT_EQ(parse(R"("line\nbreak")").asString(), "line\nbreak");
    EXPECT_EQ(parse(R"("tab\there")").asString(), "tab\there");
    EXPECT_EQ(parse(R"("back\\slash")").asString(), "back\\slash");
    EXPECT_EQ(parse(R"("A")").asString(), "A");
    // Two-byte and three-byte UTF-8 encodings.
    EXPECT_EQ(parse(R"("é")").asString(), "\xc3\xa9");
    EXPECT_EQ(parse(R"("€")").asString(), "\xe2\x82\xac");
}

TEST(JsonParse, Whitespace)
{
    Value v = parse("  {\n\t\"k\" :\r [ 1 ,  2 ]\n}  ");
    EXPECT_EQ(v.at("k").asArray().size(), 2u);
}

TEST(JsonParse, ErrorsCarryOffsets)
{
    try {
        parse("{\"a\": }");
        FAIL() << "expected ModelError";
    } catch (const ModelError &e) {
        EXPECT_NE(std::string(e.what()).find("offset"),
                  std::string::npos);
    }
}

TEST(JsonParse, MalformedDocumentsRejected)
{
    EXPECT_THROW(parse(""), ModelError);
    EXPECT_THROW(parse("{"), ModelError);
    EXPECT_THROW(parse("[1,]"), ModelError);
    EXPECT_THROW(parse("{\"a\":1,}"), ModelError);
    EXPECT_THROW(parse("tru"), ModelError);
    EXPECT_THROW(parse("01x"), ModelError);
    EXPECT_THROW(parse("\"unterminated"), ModelError);
    EXPECT_THROW(parse("1 2"), ModelError);
    EXPECT_THROW(parse("{'a': 1}"), ModelError);
    EXPECT_THROW(parse("{\"a\":1 \"b\":2}"), ModelError);
    EXPECT_THROW(parse("[1"), ModelError);
    EXPECT_THROW(parse("-"), ModelError);
    EXPECT_THROW(parse("1."), ModelError);
    EXPECT_THROW(parse("1e"), ModelError);
}

TEST(JsonParse, OutOfRangeNumbersFailWithTheirOffset)
{
    // A literal whose magnitude overflows, or underflows to zero, is
    // reported at its first byte.
    const std::pair<const char *, const char *> cases[] = {
        {"1e999", "offset 0"},
        {"-1e999", "offset 0"},
        {"1e-400", "offset 0"},
        {R"({"a": [1, 1e999]})", "offset 10"},
    };
    for (const auto &[text, offset] : cases) {
        try {
            parse(text);
            FAIL() << "expected ModelError for " << text;
        } catch (const ModelError &e) {
            EXPECT_EQ(std::string(e.what()),
                      std::string("JSON parse error at ") + offset +
                          ": number out of range")
                << text;
        }
    }
}

TEST(JsonParse, LeadingZerosFailAtTheZero)
{
    // RFC 8259 allows 0 as an integer part, never 0 before a digit.
    const std::pair<const char *, const char *> cases[] = {
        {"01", "offset 0"},
        {"-007.5", "offset 1"},
        {"[00]", "offset 1"},
        {R"({"nodes": 03})", "offset 10"},
        {"-01e2", "offset 1"},
    };
    for (const auto &[text, offset] : cases) {
        try {
            parse(text);
            FAIL() << "expected ModelError for " << text;
        } catch (const ModelError &e) {
            EXPECT_EQ(std::string(e.what()),
                      std::string("JSON parse error at ") + offset +
                          ": leading zero in number")
                << text;
        }
    }
}

TEST(JsonParse, ZeroIntegerPartsStillParse)
{
    EXPECT_EQ(parse("0").asNumber(), 0.0);
    EXPECT_TRUE(std::signbit(parse("-0").asNumber()));
    EXPECT_EQ(parse("0.5").asNumber(), 0.5);
    EXPECT_EQ(parse("-0.25").asNumber(), -0.25);
    EXPECT_EQ(parse("0e1").asNumber(), 0.0);
    EXPECT_EQ(parse("0E-3").asNumber(), 0.0);
    EXPECT_EQ(parse("[0,10,0.0]").asArray()[1].asNumber(), 10.0);
    EXPECT_EQ(parse("100").asNumber(), 100.0);
}

TEST(JsonParse, SubnormalsReadAsTheirNearestDouble)
{
    EXPECT_EQ(parse("4e-320").asNumber(), 4e-320);
    EXPECT_EQ(parse("-4e-320").asNumber(), -4e-320);
    EXPECT_EQ(parse("5e-324").asNumber(),
              std::numeric_limits<double>::denorm_min());
    EXPECT_EQ(parse("1.5e-315").asNumber(), 1.5e-315);
    // Zero in any spelling is in range.
    EXPECT_EQ(parse("0e-400").asNumber(), 0.0);
}

TEST(JsonDump, SubnormalIdsEchoAndReadBack)
{
    // An id of 5e-324 echoes as the shortest text that reads back as
    // the same double.
    Value id = parse(R"({"id":5e-324})").at("id");
    EXPECT_EQ(id.dump(), "4.94065645841247e-324");
    EXPECT_EQ(parse(id.dump()).asNumber(), id.asNumber());
    EXPECT_EQ(Value(1.51836335800763e-315).dump(), "1.51836335800763e-315");
}

TEST(JsonDump, LargeIntegersTakeTheFloatingPath)
{
    // Only magnitudes below 1e15 print as integers; the bound is
    // tested before the cast, which is undefined past long long.
    EXPECT_EQ(Value(999999999999999.0).dump(), "999999999999999");
    EXPECT_EQ(Value(1e15).dump(), "1e+15");
    EXPECT_EQ(Value(-1e300).dump(), "-1e+300");
    EXPECT_EQ(Value(1e19).dump(), "1e+19");
    EXPECT_EQ(Value(-0.0).dump(), "0");
    EXPECT_THROW(Value(std::nan("")).dump(), ModelError);
}

TEST(JsonParse, DuplicateKeysRejected)
{
    EXPECT_THROW(parse("{\"a\":1,\"a\":2}"), ModelError);
}

TEST(JsonParse, ControlCharactersAndSurrogatesRejected)
{
    EXPECT_THROW(parse(std::string("\"a\nb\"")), ModelError);
    EXPECT_THROW(parse(R"("\ud800")"), ModelError);
    EXPECT_THROW(parse(R"("\q")"), ModelError);
}

TEST(JsonParse, DeepNestingBounded)
{
    std::string deep(200, '[');
    deep += std::string(200, ']');
    EXPECT_THROW(parse(deep), ModelError);
}

TEST(JsonValue, TypedAccessorsEnforceTypes)
{
    Value v = parse("[1]");
    EXPECT_THROW(v.asObject(), ModelError);
    EXPECT_THROW(v.asBool(), ModelError);
    EXPECT_THROW(v.asNumber(), ModelError);
    EXPECT_THROW(v.asString(), ModelError);
    EXPECT_THROW(v.at("x"), ModelError);
}

TEST(JsonValue, BuildersAndLookups)
{
    Value obj = Value::makeObject();
    obj.set("name", "test");
    obj.set("count", 3);
    obj.set("flag", true);
    Value arr = Value::makeArray();
    arr.push(1.5);
    arr.push("two");
    obj.set("items", std::move(arr));

    EXPECT_TRUE(obj.contains("name"));
    EXPECT_FALSE(obj.contains("missing"));
    EXPECT_EQ(obj.at("name").asString(), "test");
    EXPECT_DOUBLE_EQ(obj.numberOr("count", 0.0), 3.0);
    EXPECT_DOUBLE_EQ(obj.numberOr("missing", 7.0), 7.0);
    EXPECT_EQ(obj.stringOr("missing", "dflt"), "dflt");
    EXPECT_TRUE(obj.boolOr("flag", false));

    // set() replaces existing keys.
    obj.set("count", 9);
    EXPECT_DOUBLE_EQ(obj.at("count").asNumber(), 9.0);
    EXPECT_EQ(obj.asObject().size(), 4u);
}

TEST(JsonDump, CompactForm)
{
    Value v = parse(R"({"a":[1,true,null],"b":"x"})");
    EXPECT_EQ(v.dump(), R"({"a":[1,true,null],"b":"x"})");
}

TEST(JsonDump, PrettyForm)
{
    Value v = parse(R"({"a":[1]})");
    EXPECT_EQ(v.dump(2), "{\n  \"a\": [\n    1\n  ]\n}");
}

TEST(JsonDump, EscapesSpecialCharacters)
{
    Value v(std::string("a\"b\\c\nd"));
    EXPECT_EQ(v.dump(), R"("a\"b\\c\nd")");
}

TEST(JsonDump, RoundTripsPreserveStructure)
{
    const char *docs[] = {
        R"({"roles":[{"name":"Config","tag":"G"}],"n":3})",
        R"([[],{},[{"x":[1,2,3]}],"s",-1.25e-3])",
        R"({"deep":{"deeper":{"deepest":[null,false]}}})",
    };
    for (const char *doc : docs) {
        Value first = parse(doc);
        Value second = parse(first.dump());
        EXPECT_TRUE(first == second) << doc;
        Value third = parse(first.dump(4));
        EXPECT_TRUE(first == third) << doc;
    }
}

TEST(JsonDump, ObjectOrderIsPreserved)
{
    Value v = parse(R"({"z":1,"a":2,"m":3})");
    EXPECT_EQ(v.dump(), R"({"z":1,"a":2,"m":3})");
}

TEST(JsonDump, IntegersPrintWithoutDecimalPoint)
{
    EXPECT_EQ(Value(3.0).dump(), "3");
    EXPECT_EQ(Value(-42).dump(), "-42");
    EXPECT_EQ(parse("0.99998").dump(), "0.99998");
}

TEST(JsonFile, ParseFileErrors)
{
    EXPECT_THROW(parseFile("/nonexistent/file.json"), ModelError);
}

TEST(JsonDump, EverySingleByteStringRoundTripsExactly)
{
    // Writer -> parser round trip for all 256 single-byte strings.
    // This locks in the escapeString fix: bytes >= 0x80 must pass
    // through verbatim, not sign-extend into "\uffffff80"-style
    // garbage, and control bytes must escape and re-parse to the
    // identical byte.
    for (int byte = 0; byte < 256; ++byte) {
        std::string original(1, static_cast<char>(byte));
        Value wrapped(original);
        std::string dumped = wrapped.dump();
        // Control bytes must leave as \uXXXX escapes with exactly
        // two hex digits of payload.
        if (byte < 0x20 && byte != '\n' && byte != '\t' &&
            byte != '\r' && byte != '\b' && byte != '\f') {
            char expect[16];
            std::snprintf(expect, sizeof(expect), "\"\\u%04x\"",
                          byte);
            EXPECT_EQ(dumped, expect) << "byte " << byte;
        }
        Value reparsed = parse(dumped);
        ASSERT_TRUE(reparsed.isString()) << "byte " << byte;
        EXPECT_EQ(reparsed.asString(), original)
            << "byte " << byte << " dumped as " << dumped;
    }
}

} // anonymous namespace
