/**
 * @file
 * The JSON number codec's contract: dump() writes the bytes of the
 * stream-based formatter it replaced, parse(dump(x)) reads back x
 * bit for bit, and neither depends on the global locale.
 */

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <locale>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "common/json.hh"

namespace
{

using namespace sdnav::json;

/**
 * The formatter dump() used before it moved to std::to_chars: an
 * integer below 1e15 in magnitude as its digits, otherwise the first
 * of precision 15, 16, 17 whose ostringstream text strtod reads back
 * exactly. Imbued with the classic locale so it stays the reference
 * whatever the global locale is. It threw on subnormals, which strtod
 * reports as ERANGE; callers keep them out.
 */
std::string
referenceFormat(double value)
{
    if (std::fabs(value) < 1e15 &&
        value == static_cast<double>(static_cast<long long>(value)))
        return std::to_string(static_cast<long long>(value));
    for (int precision = 15; precision <= 17; ++precision) {
        std::ostringstream os;
        os.imbue(std::locale::classic());
        os.precision(precision);
        os << value;
        if (std::strtod(os.str().c_str(), nullptr) == value)
            return os.str();
    }
    std::ostringstream os;
    os.imbue(std::locale::classic());
    os.precision(17);
    os << value;
    return os.str();
}

std::uint64_t
bits(double value)
{
    std::uint64_t out;
    std::memcpy(&out, &value, sizeof(out));
    return out;
}

/**
 * A fixed-seed corpus of finite doubles: random bit patterns (normal
 * and subnormal), availabilities 1 - 10^-k, integers around +-1e15,
 * powers of ten and the negatives of all of these. Negative zero is
 * left out: dump() writes it as the integer 0.
 */
std::vector<double>
corpus()
{
    std::mt19937_64 rng(20190324);
    std::vector<double> values;
    auto add = [&values](double v) {
        if (std::isfinite(v) && !(v == 0.0 && std::signbit(v))) {
            values.push_back(v);
            values.push_back(-v);
        }
    };
    for (int i = 0; i < 35000; ++i) {
        std::uint64_t pattern = rng();
        double v;
        std::memcpy(&v, &pattern, sizeof(v));
        add(v);
    }
    // Subnormals: exponent field zero, random mantissa.
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t pattern = rng() & ((std::uint64_t{1} << 52) - 1);
        double v;
        std::memcpy(&v, &pattern, sizeof(v));
        add(v);
    }
    std::uniform_real_distribution<double> exponent(0.0, 17.0);
    for (int i = 0; i < 10000; ++i)
        add(1.0 - std::pow(10.0, -exponent(rng)));
    for (int k = 1; k <= 16; ++k)
        add(1.0 - std::pow(10.0, -k));
    for (int d = -2000; d <= 2000; ++d) {
        add(1e15 + d);
        add(1e15 + d + 0.5);
    }
    for (int k = -323; k <= 308; ++k)
        add(std::pow(10.0, k));
    add(std::numeric_limits<double>::max());
    add(std::numeric_limits<double>::min());
    add(std::numeric_limits<double>::denorm_min());
    add(9007199254740993.0); // 2^53 + 1 rounds to 2^53
    return values;
}

bool
isSubnormal(double value)
{
    return std::fpclassify(value) == FP_SUBNORMAL;
}

TEST(JsonCodec, CorpusIsLargeAndCoversSubnormals)
{
    std::vector<double> values = corpus();
    EXPECT_GE(values.size(), 100000u);
    std::size_t subnormals = 0;
    for (double v : values)
        subnormals += isSubnormal(v) ? 1 : 0;
    EXPECT_GE(subnormals, 4000u);
}

TEST(JsonCodec, DumpEqualsTheStreamFormatterItReplaced)
{
    std::size_t compared = 0;
    for (double v : corpus()) {
        if (isSubnormal(v))
            continue;
        ASSERT_EQ(Value(v).dump(), referenceFormat(v))
            << "bits " << std::hex << bits(v);
        ++compared;
    }
    EXPECT_GE(compared, 100000u);
}

TEST(JsonCodec, ParseOfDumpIsBitwiseTheValue)
{
    for (double v : corpus()) {
        const std::string text = Value(v).dump();
        ASSERT_EQ(bits(parse(text).asNumber()), bits(v)) << text;
    }
}

/** A numpunct facet with a comma decimal point and grouped digits. */
class CommaDecimal : public std::numpunct<char>
{
  protected:
    char do_decimal_point() const override { return ','; }
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
};

/** Install a global locale for one scope, then restore the old one. */
class GlobalLocale
{
  public:
    explicit GlobalLocale(const std::locale &locale)
        : previous_(std::locale::global(locale))
    {}
    ~GlobalLocale() { std::locale::global(previous_); }

  private:
    std::locale previous_;
};

TEST(JsonCodec, OutputIgnoresTheGlobalLocale)
{
    std::vector<double> values = corpus();
    std::vector<std::string> classic;
    for (std::size_t i = 0; i < values.size(); i += 7)
        classic.push_back(Value(values[i]).dump());

    GlobalLocale scope(
        std::locale(std::locale::classic(), new CommaDecimal));
    // The facet is in force: a default stream now writes "0,5".
    std::ostringstream probe;
    probe << 0.5 << ' ' << 1234567;
    ASSERT_EQ(probe.str(), "0,5 1.234.567");

    for (std::size_t i = 0, j = 0; i < values.size(); i += 7, ++j) {
        ASSERT_EQ(Value(values[i]).dump(), classic[j]);
        ASSERT_EQ(bits(parse(classic[j]).asNumber()), bits(values[i]));
    }
    EXPECT_EQ(Value(0.5).dump(), "0.5");
    EXPECT_EQ(parse(R"({"a":[1234567,0.25]})").dump(),
              R"({"a":[1234567,0.25]})");
    // Error offsets are plain digits too.
    try {
        parse(std::string(1500, ' ') + "x");
        FAIL() << "expected ModelError";
    } catch (const sdnav::ModelError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "JSON parse error at offset 1500: invalid number");
    }
}

} // anonymous namespace
