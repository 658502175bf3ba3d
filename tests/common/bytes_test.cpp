#include "common/bytes.hpp"

#include <gtest/gtest.h>

namespace bmg {
namespace {

TEST(Bytes, HexRoundTrip) {
  const Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7f};
  EXPECT_EQ(to_hex(data), "0001abff7f");
  EXPECT_EQ(from_hex("0001abff7f"), data);
  EXPECT_EQ(from_hex("0001ABFF7F"), data);
}

TEST(Bytes, HexEmpty) {
  EXPECT_EQ(to_hex({}), "");
  EXPECT_TRUE(from_hex("").empty());
}

TEST(Bytes, FromHexRejectsOddLength) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
}

TEST(Bytes, FromHexRejectsBadDigits) {
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
  EXPECT_THROW(from_hex("0g"), std::invalid_argument);
}

TEST(Bytes, BytesOf) {
  EXPECT_EQ(bytes_of("ab"), (Bytes{0x61, 0x62}));
  EXPECT_TRUE(bytes_of("").empty());
}

TEST(Bytes, Concat) {
  const Bytes a = {1, 2};
  const Bytes b = {3};
  const Bytes c = {};
  EXPECT_EQ(concat({a, b, c}), (Bytes{1, 2, 3}));
  EXPECT_TRUE(concat({}).empty());
}

TEST(Bytes, CtEqual) {
  const Bytes a = {1, 2, 3};
  const Bytes b = {1, 2, 3};
  const Bytes c = {1, 2, 4};
  const Bytes d = {1, 2};
  EXPECT_TRUE(ct_equal(a, b));
  EXPECT_FALSE(ct_equal(a, c));
  EXPECT_FALSE(ct_equal(a, d));
}

TEST(Hash32, ZeroDetection) {
  Hash32 h;
  EXPECT_TRUE(h.is_zero());
  h.bytes[31] = 1;
  EXPECT_FALSE(h.is_zero());
}

TEST(Hash32, ComparisonAndHashing) {
  Hash32 a, b;
  a.bytes[0] = 1;
  b.bytes[0] = 2;
  EXPECT_LT(a, b);
  EXPECT_NE(Hash32Hasher{}(a), Hash32Hasher{}(b));
}

TEST(Hash32, HexIs64Chars) {
  Hash32 h;
  h.bytes[0] = 0xab;
  EXPECT_EQ(h.hex().size(), 64u);
  EXPECT_EQ(h.hex().substr(0, 2), "ab");
}

}  // namespace
}  // namespace bmg
