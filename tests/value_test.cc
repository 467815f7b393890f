#include "core/value.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <ios>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/data_type.h"

namespace mad {
namespace {

TEST(DataTypeTest, Names) {
  EXPECT_STREQ(DataTypeName(DataType::kInt64), "INT64");
  EXPECT_STREQ(DataTypeName(DataType::kDouble), "DOUBLE");
  EXPECT_STREQ(DataTypeName(DataType::kString), "STRING");
  EXPECT_STREQ(DataTypeName(DataType::kBool), "BOOL");
  EXPECT_STREQ(DataTypeName(DataType::kNull), "NULL");
}

TEST(DataTypeTest, FromNameIsCaseInsensitiveWithAliases) {
  EXPECT_EQ(DataTypeFromName("int64"), DataType::kInt64);
  EXPECT_EQ(DataTypeFromName("INT"), DataType::kInt64);
  EXPECT_EQ(DataTypeFromName("Double"), DataType::kDouble);
  EXPECT_EQ(DataTypeFromName("float"), DataType::kDouble);
  EXPECT_EQ(DataTypeFromName("STRING"), DataType::kString);
  EXPECT_EQ(DataTypeFromName("text"), DataType::kString);
  EXPECT_EQ(DataTypeFromName("bool"), DataType::kBool);
  EXPECT_EQ(DataTypeFromName("boolean"), DataType::kBool);
  EXPECT_EQ(DataTypeFromName("blob"), DataType::kNull);
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), DataType::kNull);
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(int64_t{5}).AsInt64(), 5);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("abc").AsString(), "abc");
  EXPECT_EQ(Value(true).AsBool(), true);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value().ToString(), "NULL");
  EXPECT_EQ(Value(int64_t{1000}).ToString(), "1000");
  EXPECT_EQ(Value("SP").ToString(), "'SP'");
  EXPECT_EQ(Value(false).ToString(), "FALSE");
}

/// What Value::ToString printed for doubles when it wrote them through a
/// default-formatted std::ostringstream.
std::string StreamFormatted(double d) {
  std::ostringstream os;
  os << d;
  return os.str();
}

TEST(ValueTest, DoubleToStringMatchesTheDefaultStream) {
  using Limits = std::numeric_limits<double>;
  std::vector<double> values = {
      0.0,
      -0.0,
      Limits::infinity(),
      -Limits::infinity(),
      Limits::quiet_NaN(),
      -Limits::quiet_NaN(),
      Limits::denorm_min(),
      -Limits::denorm_min(),
      Limits::min() / 3,
      Limits::min(),
      -Limits::min(),
      Limits::max(),
      Limits::lowest(),
      Limits::epsilon(),
      1.0,
      -1.5,
      0.1,
      123456.0,
      1234567.0,
      999999.5,
      1e-5,
      0.0001,
      1e100,
      2.5e-300,
  };
  // Random mantissas over 600 binary exponents, both signs.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> mantissa(1.0, 2.0);
  for (int exponent = -300; exponent < 300; ++exponent) {
    for (int k = 0; k < 4; ++k) {
      const double d = std::ldexp(mantissa(rng), exponent);
      values.push_back(k % 2 == 0 ? d : -d);
    }
  }
  // Random bit patterns: denormals, NaN payloads, every exponent.
  for (int k = 0; k < 2000; ++k) {
    const uint64_t bits = rng();
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    values.push_back(d);
  }
  for (double d : values) {
    EXPECT_EQ(Value(d).ToString(), StreamFormatted(d)) << std::hexfloat << d;
  }
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
  EXPECT_EQ(Value(1e100).ToString(), "1e+100");
  EXPECT_EQ(Value(-0.0).ToString(), "-0");
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value(int64_t{3}), Value(3.0));
  EXPECT_LT(Value(int64_t{3}), Value(3.5));
  EXPECT_GT(Value(4.5), Value(int64_t{4}));
}

TEST(ValueTest, NullOrdering) {
  EXPECT_LT(Value(), Value(int64_t{-100}));
  EXPECT_LT(Value(), Value("a"));
  EXPECT_EQ(Value(), Value());
}

TEST(ValueTest, StringOrdering) {
  EXPECT_LT(Value("abc"), Value("abd"));
  EXPECT_EQ(Value("abc"), Value("abc"));
}

TEST(ValueTest, CrossTypeRankOrdering) {
  // bool < numeric < string; the exact order is an implementation choice
  // but must be total and consistent.
  EXPECT_LT(Value(true), Value(int64_t{0}));
  EXPECT_LT(Value(int64_t{1'000'000}), Value(""));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value(int64_t{3}).Hash(), Value(3.0).Hash());
  EXPECT_EQ(Value("x").Hash(), Value("x").Hash());
  EXPECT_EQ(Value().Hash(), Value().Hash());
}

TEST(ValueTest, ToNumeric) {
  ASSERT_TRUE(Value(int64_t{7}).ToNumeric().ok());
  EXPECT_DOUBLE_EQ(*Value(int64_t{7}).ToNumeric(), 7.0);
  ASSERT_TRUE(Value(1.5).ToNumeric().ok());
  EXPECT_FALSE(Value("x").ToNumeric().ok());
  EXPECT_FALSE(Value().ToNumeric().ok());
}

TEST(ValueTest, LargeInt64ExactEquality) {
  int64_t big = int64_t{1} << 62;
  EXPECT_EQ(Value(big), Value(big));
  EXPECT_LT(Value(big - 1), Value(big));
}

}  // namespace
}  // namespace mad
