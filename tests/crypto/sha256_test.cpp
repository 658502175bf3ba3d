#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace bmg::crypto {
namespace {

std::string digest_hex(std::string_view msg) {
  return Sha256::digest(bytes_of(msg)).hex();
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(digest_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, LongerNistVector) {
  EXPECT_EQ(digest_hex("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                       "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(Sha256, MillionAs) {
  EXPECT_EQ(digest_hex(std::string(1'000'000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, PaddingBoundaries) {
  // 'x' repeated n times around the 55/56/64-byte padding edges, where
  // the final block layout changes shape.  Digests from Python's
  // hashlib, checked on the dispatched path and on every backend.
  const std::pair<std::size_t, const char*> known[] = {
      {54, "45f316e10b2c99abf374b22bda893cf3300d77263f1e272349ed414680522952"},
      {55, "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072"},
      {56, "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e"},
      {57, "ae14a2563ccf969d99aca69ce6bb74981f734bbf9f655f73b8f06db68cab5217"},
      {63, "75220b47218278e656f2013bb8f0c455a25eaf01e86c64924e9d48d89776d6f2"},
      {64, "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c"},
      {65, "9537c5fdf120482f7d58d25e9ed583f52c02b4e304ea814db1633ad565aed7e9"},
      {119, "000b48d4edf0fa7bee3c6236ecd2785baa5db4eeb8bb54341b029e0d9fa5fb0c"},
      {120, "13f05a0b594787f5ecd315edc96141bd3243203d1b7d4f0836f37308b276ba98"},
      {128, "24da1b81d0b16df6428eee73c69fcb2a93c76bc6df706f0c6670fe6bfe800464"},
  };
  for (const auto& [len, hex] : known) {
    const Bytes msg = bytes_of(std::string(len, 'x'));
    EXPECT_EQ(Sha256::digest(msg).hex(), hex) << "len=" << len;
    for (Sha256Impl impl : {Sha256Impl::kScalar, Sha256Impl::kShaNi}) {
      if (!sha256_impl_available(impl)) continue;
      EXPECT_EQ(sha256_digest_with(impl, msg).hex(), hex)
          << "impl=" << static_cast<int>(impl) << " len=" << len;
    }
  }
}

// --- fast-path vs scalar property tests ------------------------------------
//
// SHA-NI, where this CPU offers it, must agree byte-for-byte with the
// portable scalar implementation on random inputs of every length
// class: sub-block, padding edges, multi-block, and large.

std::vector<Sha256Impl> available_accelerated() {
  std::vector<Sha256Impl> impls;
  if (sha256_impl_available(Sha256Impl::kShaNi)) impls.push_back(Sha256Impl::kShaNi);
  return impls;
}

TEST(Sha256FastPath, AcceleratedMatchesScalarOnRandomInputs) {
  Rng rng(0xfeedface);
  const auto impls = available_accelerated();
  if (impls.empty()) GTEST_SKIP() << "no SIMD backend on this CPU";
  for (int round = 0; round < 200; ++round) {
    const std::size_t len = static_cast<std::size_t>(rng.uniform_int(700));
    Bytes msg(len);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
    const Hash32 want = sha256_digest_with(Sha256Impl::kScalar, msg);
    EXPECT_EQ(Sha256::digest(msg), want) << "len=" << len;
    for (Sha256Impl impl : impls)
      EXPECT_EQ(sha256_digest_with(impl, msg), want)
          << "impl=" << static_cast<int>(impl) << " len=" << len;
  }
}

TEST(Sha256FastPath, AcceleratedMatchesScalarAtPaddingEdges) {
  const auto impls = available_accelerated();
  if (impls.empty()) GTEST_SKIP() << "no SIMD backend on this CPU";
  for (std::size_t len : {0u,  1u,  31u, 32u,  55u,  56u,  57u,  63u, 64u,
                          65u, 96u, 119u, 120u, 127u, 128u, 129u, 515u}) {
    Bytes msg(len, 0xa5);
    const Hash32 want = sha256_digest_with(Sha256Impl::kScalar, msg);
    for (Sha256Impl impl : impls)
      EXPECT_EQ(sha256_digest_with(impl, msg), want)
          << "impl=" << static_cast<int>(impl) << " len=" << len;
  }
}

TEST(Sha256FastPath, BatchMatchesSerialDigests) {
  // The batch API (used by the trie's deferred commit) must produce
  // exactly the per-message digests, for any batch size and a mix of
  // message lengths.
  Rng rng(0xb47c4);
  for (const std::size_t n : {1u, 2u, 7u, 8u, 9u, 15u, 16u, 23u, 64u}) {
    std::vector<Bytes> msgs(n);
    std::vector<ByteView> views(n);
    for (std::size_t i = 0; i < n; ++i) {
      msgs[i].resize(static_cast<std::size_t>(rng.uniform_int(300)));
      for (auto& b : msgs[i]) b = static_cast<std::uint8_t>(rng.next());
      views[i] = msgs[i];
    }
    std::vector<Hash32> out(n);
    sha256_batch(views.data(), n, out.data());
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(out[i], Sha256::digest(msgs[i])) << "n=" << n << " i=" << i;
  }
}

TEST(Sha256FastPath, ForcedBatchBackendsMatchScalar) {
  Rng rng(0x5eed);
  const std::size_t n = 24;
  std::vector<Bytes> msgs(n);
  std::vector<ByteView> views(n);
  for (std::size_t i = 0; i < n; ++i) {
    msgs[i].resize(40 + 30 * (i % 3));
    for (auto& b : msgs[i]) b = static_cast<std::uint8_t>(rng.next());
    views[i] = msgs[i];
  }
  for (Sha256Impl impl : {Sha256Impl::kScalar, Sha256Impl::kShaNi}) {
    if (!sha256_impl_available(impl)) continue;
    std::vector<Hash32> out(n);
    sha256_batch_with(impl, views.data(), n, out.data());
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(out[i], Sha256::digest(msgs[i]))
          << "impl=" << static_cast<int>(impl) << " i=" << i;
  }
}

TEST(Sha256FastPath, UnavailableBackendThrows) {
  // The testing hooks must refuse rather than silently fall back.
  if (!sha256_impl_available(Sha256Impl::kShaNi)) {
    EXPECT_THROW((void)sha256_digest_with(Sha256Impl::kShaNi, {}), std::runtime_error);
  }
  EXPECT_TRUE(sha256_impl_available(Sha256Impl::kScalar));
}

TEST(Sha256, PairHelper) {
  const Hash32 a = Sha256::digest(bytes_of("a"));
  const Hash32 b = Sha256::digest(bytes_of("b"));
  const Bytes combined = concat({a.view(), b.view()});
  EXPECT_EQ(sha256_pair(a, b), Sha256::digest(combined));
  EXPECT_NE(sha256_pair(a, b), sha256_pair(b, a));
}

}  // namespace
}  // namespace bmg::crypto
