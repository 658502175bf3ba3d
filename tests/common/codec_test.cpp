#include "common/codec.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>

namespace bmg {
namespace {

TEST(Codec, ScalarRoundTrip) {
  Encoder e;
  e.u8(0xab).u16(0x1234).u32(0xdeadbeef).u64(0x0102030405060708ULL).boolean(true);
  Decoder d(e.out());
  EXPECT_EQ(d.u8(), 0xab);
  EXPECT_EQ(d.u16(), 0x1234);
  EXPECT_EQ(d.u32(), 0xdeadbeefu);
  EXPECT_EQ(d.u64(), 0x0102030405060708ULL);
  EXPECT_TRUE(d.boolean());
  EXPECT_TRUE(d.done());
}

TEST(Codec, BigEndianLayout) {
  Encoder e;
  e.u32(0x01020304);
  const ByteView out = e.out();
  EXPECT_EQ(Bytes(out.begin(), out.end()), (Bytes{1, 2, 3, 4}));
}

TEST(Codec, BytesAndStrings) {
  Encoder e;
  e.bytes(Bytes{9, 8, 7}).str("ibc").bytes({});
  Decoder d(e.out());
  EXPECT_EQ(d.bytes(), (Bytes{9, 8, 7}));
  EXPECT_EQ(d.str(), "ibc");
  EXPECT_TRUE(d.bytes().empty());
  d.expect_done();
}

TEST(Codec, HashRoundTrip) {
  Hash32 h;
  h.bytes[5] = 0x55;
  Encoder e;
  e.hash(h);
  EXPECT_EQ(e.size(), 32u);
  Decoder d(e.out());
  EXPECT_EQ(d.hash(), h);
}

TEST(Codec, TruncatedInputThrows) {
  Encoder e;
  e.u32(7);
  Decoder d(e.out());
  (void)d.u16();
  EXPECT_THROW((void)d.u32(), CodecError);
}

TEST(Codec, TruncatedBytesThrows) {
  Encoder e;
  e.u32(100);  // claims 100 bytes follow, none do
  Decoder d(e.out());
  EXPECT_THROW((void)d.bytes(), CodecError);
}

TEST(Codec, BadBooleanThrows) {
  const Bytes raw = {2};
  Decoder d(raw);
  EXPECT_THROW((void)d.boolean(), CodecError);
}

TEST(Codec, ExpectDoneThrowsOnTrailing) {
  const Bytes raw = {1, 2};
  Decoder d(raw);
  (void)d.u8();
  EXPECT_THROW(d.expect_done(), CodecError);
}

TEST(Codec, RawPassThrough) {
  Encoder e;
  e.raw(Bytes{1, 2, 3});
  Decoder d(e.out());
  EXPECT_EQ(d.raw(3), (Bytes{1, 2, 3}));
}

TEST(ScratchEncoder, SpillsToHeapBeyondScratch) {
  std::array<std::uint8_t, 16> scratch;
  Encoder e{std::span<std::uint8_t>(scratch)};
  Bytes big(200, 0xee);
  e.bytes(big);  // exceeds the stack buffer -> transparent heap spill
  Decoder d(e.out());
  EXPECT_EQ(d.bytes(), big);
  d.expect_done();
}

}  // namespace
}  // namespace bmg
