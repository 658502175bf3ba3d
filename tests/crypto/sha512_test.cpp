#include "crypto/sha512.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "common/bytes.hpp"
#include "crypto/sha512_impl.hpp"

namespace bmg::crypto {
namespace {

std::string digest_hex(std::string_view msg) {
  const Digest512 d = Sha512::digest(bytes_of(msg));
  return to_hex(ByteView{d});
}

TEST(Sha512, EmptyString) {
  EXPECT_EQ(digest_hex(""),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512, Abc) {
  EXPECT_EQ(digest_hex("abc"),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, TwoBlockMessage) {
  EXPECT_EQ(digest_hex("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                       "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
            "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512, MillionAs) {
  Sha512 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(bytes_of(chunk));
  const Digest512 d = h.finish();
  EXPECT_EQ(to_hex(ByteView{d}),
            "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb"
            "de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b");
}

TEST(Sha512, PaddingBoundaries) {
  for (std::size_t len : {111u, 112u, 113u, 127u, 128u, 129u, 255u, 256u}) {
    const std::string msg(len, 'y');
    Sha512 whole;
    whole.update(bytes_of(msg));
    Sha512 split;
    const auto data = bytes_of(msg);
    split.update(ByteView{data.data(), len / 3});
    split.update(ByteView{data.data() + len / 3, len - len / 3});
    EXPECT_EQ(whole.finish(), split.finish()) << "len=" << len;
  }
}

// The eight-lane one-block compression against Sha512::digest: every
// lane count n in 1..8 and every length 0..111, each lane at its own
// length and content so that a lane mix-up shows, and each message cut
// into three parts at its own points.
TEST(Sha512, LanesMatchDigest) {
  if (!detail::cpu_has_avx512f()) GTEST_SKIP() << "no AVX-512F on this CPU";
  constexpr std::size_t kLengths = detail::kSha512OneBlockMax + 1;
  for (std::size_t n = 1; n <= 8; ++n) {
    for (std::size_t len = 0; len < kLengths; ++len) {
      std::array<Bytes, 8> msgs;
      std::array<detail::Sha512Parts, 8> parts;
      for (std::size_t lane = 0; lane < n; ++lane) {
        Bytes& m = msgs[lane];
        m.resize((len + 37 * lane) % kLengths);
        for (std::size_t b = 0; b < m.size(); ++b)
          m[b] = static_cast<std::uint8_t>(31 * b + 97 * lane + n);
        const std::size_t cut1 = m.size() * lane / 16, cut2 = m.size() - m.size() * n / 16;
        const ByteView all{m};
        parts[lane] = {all.subspan(0, cut1), all.subspan(cut1, cut2 - cut1), all.subspan(cut2)};
      }
      std::array<Digest512, 8> out{};
      detail::sha512_lanes(std::span{parts}.first(n), out.data());
      for (std::size_t lane = 0; lane < n; ++lane)
        EXPECT_EQ(to_hex(ByteView{out[lane]}), to_hex(ByteView{Sha512::digest(msgs[lane])}))
            << "n " << n << " lane " << lane << " length " << msgs[lane].size();
    }
  }
}

}  // namespace
}  // namespace bmg::crypto
