#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
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
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(bytes_of(chunk));
  EXPECT_EQ(h.finish().hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes msg = bytes_of("the quick brown fox jumps over the lazy dog etc etc");
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(ByteView{msg.data(), split});
    h.update(ByteView{msg.data() + split, msg.size() - split});
    EXPECT_EQ(h.finish(), Sha256::digest(msg)) << "split=" << split;
  }
}

TEST(Sha256, PaddingBoundaries) {
  // Exercise message lengths around the 55/56/64-byte padding edges.
  for (std::size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string msg(len, 'x');
    Sha256 a;
    a.update(bytes_of(msg));
    // Byte-at-a-time must agree.
    Sha256 b;
    for (char ch : msg) {
      const auto byte = static_cast<std::uint8_t>(ch);
      b.update(ByteView{&byte, 1});
    }
    EXPECT_EQ(a.finish(), b.finish()) << "len=" << len;
  }
}

TEST(Sha256, IncrementalAcrossPaddingBoundaries) {
  // Incremental update() split exactly at the 55/56/63/64-byte padding
  // edges (and one byte around them) must match the one-shot digest:
  // these are the lengths where the final block layout changes shape.
  const std::string msg(130, 'y');
  for (std::size_t first : {54u, 55u, 56u, 57u, 62u, 63u, 64u, 65u}) {
    for (std::size_t second : {0u, 1u, 55u, 56u, 63u, 64u}) {
      if (first + second > msg.size()) continue;
      const ByteView whole{reinterpret_cast<const std::uint8_t*>(msg.data()),
                           first + second};
      Sha256 h;
      h.update(whole.subspan(0, first));
      h.update(whole.subspan(first, second));
      EXPECT_EQ(h.finish(), Sha256::digest(whole))
          << "first=" << first << " second=" << second;
    }
  }
}

TEST(Sha256, MultiMegabyteMatchesOneShot) {
  // Large streaming input in awkward chunk sizes vs a single digest()
  // over the same bytes.
  Bytes msg(3 * 1024 * 1024 + 17);
  std::uint32_t x = 0x12345678;
  for (auto& b : msg) {
    x = x * 1664525 + 1013904223;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  Sha256 h;
  std::size_t off = 0, chunk = 1;
  while (off < msg.size()) {
    const std::size_t n = std::min(chunk, msg.size() - off);
    h.update(ByteView{msg.data() + off, n});
    off += n;
    chunk = chunk * 3 + 1;  // 1, 4, 13, 40, ... irregular boundaries
  }
  EXPECT_EQ(h.finish(), Sha256::digest(msg));
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

TEST(Sha256, ResetReusesObject) {
  Sha256 h;
  h.update(bytes_of("abc"));
  (void)h.finish();
  h.reset();
  h.update(bytes_of("abc"));
  EXPECT_EQ(h.finish().hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

}  // namespace
}  // namespace bmg::crypto
