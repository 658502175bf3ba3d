// RFC 8032 §7.1 test vectors plus negative tests (tampered message,
// tampered signature, non-canonical S, wrong key).
#include "crypto/ed25519.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/bytes.hpp"
#include "crypto/ed25519_impl.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"
#include "rfc8032_vectors.hpp"

namespace bmg::crypto::ed25519 {
namespace {

using rfc8032::kVectors;

Seed seed_from_hex(std::string_view hex) {
  const Bytes b = from_hex(hex);
  Seed s;
  std::copy(b.begin(), b.end(), s.begin());
  return s;
}

// Deterministic test randomness (xorshift64).
struct XorShift {
  std::uint64_t state;

  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
  void fill(std::uint8_t* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(next());
  }
};

TEST(Ed25519, Rfc8032KeyDerivation) {
  for (const auto& v : kVectors) {
    const Seed seed = seed_from_hex(v.seed_hex);
    const PublicKeyBytes pub = expand(seed).pub;
    EXPECT_EQ(to_hex(ByteView{pub}), v.pub_hex) << v.name;
  }
}

TEST(Ed25519, Rfc8032Sign) {
  for (const auto& v : kVectors) {
    const Seed seed = seed_from_hex(v.seed_hex);
    const Bytes msg = from_hex(v.msg_hex);
    const SignatureBytes sig = sign(expand(seed), msg);
    EXPECT_EQ(to_hex(ByteView{sig}), v.sig_hex) << v.name;
  }
}

TEST(Ed25519, Rfc8032Verify) {
  for (const auto& v : kVectors) {
    const Bytes pub_b = from_hex(v.pub_hex);
    PublicKeyBytes pub;
    std::copy(pub_b.begin(), pub_b.end(), pub.begin());
    const Bytes sig_b = from_hex(v.sig_hex);
    SignatureBytes sig;
    std::copy(sig_b.begin(), sig_b.end(), sig.begin());
    EXPECT_TRUE(verify(pub, from_hex(v.msg_hex), sig)) << v.name;
  }
}

TEST(Ed25519, RejectsTamperedMessage) {
  const ExpandedKey key = expand(seed_from_hex(kVectors[2].seed_hex));
  const PublicKeyBytes pub = key.pub;
  const Bytes msg = from_hex("af82");
  const SignatureBytes sig = sign(key, msg);
  Bytes bad = msg;
  bad[0] ^= 0x01;
  EXPECT_FALSE(verify(pub, bad, sig));
}

TEST(Ed25519, RejectsTamperedSignature) {
  const ExpandedKey key = expand(seed_from_hex(kVectors[2].seed_hex));
  const PublicKeyBytes pub = key.pub;
  const Bytes msg = from_hex("af82");
  SignatureBytes sig = sign(key, msg);
  for (std::size_t i : {0u, 31u, 32u, 63u}) {
    SignatureBytes bad = sig;
    bad[i] ^= 0x40;
    EXPECT_FALSE(verify(pub, msg, bad)) << "byte " << i;
  }
}

TEST(Ed25519, RejectsWrongKey) {
  const ExpandedKey k1 = expand(seed_from_hex(kVectors[0].seed_hex));
  const ExpandedKey k2 = expand(seed_from_hex(kVectors[1].seed_hex));
  const Bytes msg = bytes_of("hello");
  const SignatureBytes sig = sign(k1, msg);
  EXPECT_TRUE(verify(k1.pub, msg, sig));
  EXPECT_FALSE(verify(k2.pub, msg, sig));
}

TEST(Ed25519, RejectsNonCanonicalS) {
  // S' = S + L is a valid equation solution but must be rejected.
  const ExpandedKey key = expand(seed_from_hex(kVectors[1].seed_hex));
  const PublicKeyBytes pub = key.pub;
  const Bytes msg = from_hex("72");
  SignatureBytes sig = sign(key, msg);

  // L little-endian.
  const Bytes ell = from_hex(
      "edd3f55c1a631258d69cf7a2def9de14000000000000000000000000000000"
      "10");
  // Add L to the S half of the signature (little-endian addition).
  unsigned carry = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    const unsigned sum = sig[32 + i] + ell[i] + carry;
    sig[32 + i] = static_cast<std::uint8_t>(sum);
    carry = sum >> 8;
  }
  EXPECT_FALSE(verify(pub, msg, sig));
}

TEST(Ed25519, SignIsDeterministic) {
  const ExpandedKey key = expand(seed_from_hex(kVectors[0].seed_hex));
  const Bytes msg = bytes_of("determinism");
  EXPECT_EQ(to_hex(ByteView{sign(key, msg)}), to_hex(ByteView{sign(key, msg)}));
}

TEST(Ed25519, RejectsAllZeroSignature) {
  const ExpandedKey key = expand(seed_from_hex(kVectors[0].seed_hex));
  const PublicKeyBytes pub = key.pub;
  const SignatureBytes zero{};
  EXPECT_FALSE(verify(pub, bytes_of("any message"), zero));
  // And an all-zero public key against a real signature.
  const Bytes msg = bytes_of("any message");
  const SignatureBytes sig = sign(key, msg);
  const PublicKeyBytes zero_pub{};
  EXPECT_FALSE(verify(zero_pub, msg, sig));
}

TEST(Ed25519, BatchAcceptsAllValid) {
  std::vector<Bytes> msgs;
  std::vector<VerifyItem> items;
  msgs.reserve(16);  // ByteViews into elements must survive push_back
  for (int i = 0; i < 16; ++i) {
    Seed seed{};
    seed[0] = static_cast<std::uint8_t>(i + 1);
    const ExpandedKey key = expand(seed);
    msgs.push_back(bytes_of("batch-msg-" + std::to_string(i)));
    items.push_back({key.pub, ByteView{msgs.back()}, sign(key, msgs.back())});
  }
  const std::vector<bool> ok = verify_batch(items);
  ASSERT_EQ(ok.size(), items.size());
  for (std::size_t i = 0; i < ok.size(); ++i) EXPECT_TRUE(ok[i]) << i;
}

TEST(Ed25519, BatchEmptyAndSingle) {
  EXPECT_TRUE(verify_batch({}).empty());
  Seed seed{};
  seed[0] = 9;
  const ExpandedKey key = expand(seed);
  const Bytes msg = bytes_of("solo");
  const VerifyItem good{key.pub, ByteView{msg}, sign(key, msg)};
  EXPECT_EQ(verify_batch({&good, 1}), std::vector<bool>{true});
  VerifyItem bad = good;
  bad.sig[10] ^= 1;
  EXPECT_EQ(verify_batch({&bad, 1}), std::vector<bool>{false});
}

// The load-bearing equivalence: verify_batch must accept exactly the
// items that per-item verify accepts, on batches that mix valid
// signatures with every corruption the single-signature tests cover
// (tampered sig halves, tampered message, wrong key, non-canonical S,
// all-zero signature).
TEST(Ed25519, BatchMatchesSingleVerifyProperty) {
  XorShift rng{0x2b992ddfa23249d6ULL};
  const auto next = [&rng] { return rng.next(); };

  const Bytes ell = from_hex(
      "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");

  int cases = 0;
  for (int round = 0; cases < 1000; ++round) {
    const std::size_t n = 1 + next() % 12;
    std::vector<Bytes> msgs(n);
    std::vector<VerifyItem> items(n);
    std::vector<bool> expected(n);
    for (std::size_t i = 0; i < n; ++i) {
      Seed seed{};
      for (int b = 0; b < 4; ++b) {
        const std::uint64_t w = next();
        for (int j = 0; j < 8; ++j)
          seed[static_cast<std::size_t>(b * 8 + j)] =
              static_cast<std::uint8_t>(w >> (8 * j));
      }
      const ExpandedKey key = expand(seed);
      msgs[i] = bytes_of("prop-" + std::to_string(round) + "-" + std::to_string(i));
      items[i] = {key.pub, ByteView{msgs[i]}, sign(key, msgs[i])};

      switch (next() % 8) {
        case 0:  // tampered R half
          items[i].sig[next() % 32] ^= static_cast<std::uint8_t>(1 + next() % 255);
          break;
        case 1:  // tampered S half
          items[i].sig[32 + next() % 32] ^= static_cast<std::uint8_t>(1 + next() % 255);
          break;
        case 2:  // wrong message
          msgs[i].back() ^= 0x01;
          break;
        case 3: {  // wrong key
          Seed other{};
          other[0] = static_cast<std::uint8_t>(next());
          other[1] = 0xEE;
          items[i].pub = expand(other).pub;
          break;
        }
        case 4: {  // non-canonical S' = S + L
          unsigned carry = 0;
          for (std::size_t b = 0; b < 32; ++b) {
            const unsigned sum = items[i].sig[32 + b] + ell[b] + carry;
            items[i].sig[32 + b] = static_cast<std::uint8_t>(sum);
            carry = sum >> 8;
          }
          break;
        }
        case 5:  // all-zero signature
          items[i].sig = SignatureBytes{};
          break;
        default:  // leave valid (two of eight arms)
          break;
      }
      expected[i] = verify(items[i].pub, items[i].msg, items[i].sig);
      ++cases;
    }
    const std::vector<bool> got = verify_batch(items);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(got[i], expected[i]) << "round " << round << " item " << i;
  }
}

// 200 cold keys with every 17th signature corrupted.  No other test
// hands verify_batch more than 17 items with bad signatures: the
// combined equation fails, and the per-item fallback must flag exactly
// the corrupted items.
TEST(Ed25519, BatchFallbackFlagsScatteredCorruptions) {
  constexpr int kN = 200;
  std::vector<Hash32> digests;
  std::vector<VerifyItem> items;
  digests.reserve(kN);  // ByteViews into elements must survive push_back
  for (int i = 0; i < kN; ++i) {
    const PrivateKey key = PrivateKey::from_label("inv-" + std::to_string(i));
    digests.push_back(Sha256::digest(bytes_of("m" + std::to_string(i))));
    items.push_back({key.public_key().raw(), digests.back().view(),
                     key.sign(digests.back().view()).raw()});
  }
  for (int i = 0; i < kN; i += 17) items[static_cast<std::size_t>(i)].sig[5] ^= 0x40;
  const std::vector<bool> ok = verify_batch(items);
  ASSERT_EQ(ok.size(), items.size());
  for (int i = 0; i < kN; ++i) EXPECT_EQ(ok[static_cast<std::size_t>(i)], i % 17 != 0) << i;
}

// The group order L, little-endian.
constexpr std::array<std::uint8_t, 32> kOrderL = {
    0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7,
    0xa2, 0xde, 0xf9, 0xde, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10};

// The signed radix-256 digits the signing comb uses for a scalar below
// 2^255: e[0..30] in [-128, 127], e[31] in [0, 128].
std::array<int, 32> radix256_digits(const std::uint8_t* a) {
  std::array<int, 32> e{};
  int carry = 0;
  for (int i = 0; i < 31; ++i) {
    const int d = a[i] + carry;
    carry = d >= 128 ? 1 : 0;
    e[i] = d - 256 * carry;
  }
  e[31] = a[31] + carry;
  return e;
}

bool has_digit_minus_128(const std::array<int, 32>& e) {
  return std::find(e.begin(), e.end(), -128) != e.end();
}

// A 64-byte little-endian hash mod L by binary long division, apart
// from the library's Montgomery reduction.
std::array<std::uint8_t, 32> reduce_mod_order(const Digest512& h) {
  std::array<std::uint8_t, 32> r{};
  for (int bit = 511; bit >= 0; --bit) {
    int carry = (h[bit / 8] >> (bit % 8)) & 1;
    for (std::uint8_t& b : r) {
      const int v = (b << 1) | carry;
      b = static_cast<std::uint8_t>(v);
      carry = v >> 8;
    }
    const bool below_l =
        std::lexicographical_compare(r.rbegin(), r.rend(), kOrderL.rbegin(), kOrderL.rend());
    if (below_l) continue;
    int borrow = 0;
    for (std::size_t i = 0; i < 32; ++i) {
      const int d = r[i] - kOrderL[i] - borrow;
      r[i] = static_cast<std::uint8_t>(d);
      borrow = d < 0 ? 1 : 0;
    }
  }
  return r;
}

// The nonce r = SHA-512(prefix || msg) mod L that signing multiplies B by.
std::array<std::uint8_t, 32> nonce_of(const ExpandedKey& key, ByteView msg) {
  Sha512 h;
  h.update(ByteView{key.prefix});
  h.update(msg);
  return reduce_mod_order(h.finish());
}

// Random keys and messages of 0 to 300 bytes.  Signing and key
// expansion run the radix-256 comb; verify and verify_batch recompute
// [S]B from its halves on the w = 7 tables of B and [2^128]B in a
// 128-bit Straus chain, so a wrong comb digit, carry or table entry
// fails here, and so does a wrong split or per-key [2^128]A table.
// Deterministic inputs add the comb's digit edges, each asserted hit:
// a clamped scalar whose top byte 0x7F takes a carry into digit 128,
// and a secret scalar and a nonce each with a -128 digit.
TEST(Ed25519, ManyRandomRoundTrips) {
  constexpr std::size_t kTrips = 1000;
  constexpr std::size_t kEdges = 3;
  XorShift rng{0x243f6a8885a308d3ULL};
  std::vector<Bytes> msgs;
  std::vector<VerifyItem> items;
  msgs.reserve(kTrips + kEdges);
  items.reserve(kTrips + kEdges);
  const auto round_trip = [&](const Seed& seed, Bytes msg) {
    const ExpandedKey key = expand(seed);
    msgs.push_back(std::move(msg));
    items.push_back({key.pub, ByteView{msgs.back()}, sign(key, msgs.back())});
    const std::size_t i = items.size() - 1;
    EXPECT_TRUE(verify(key.pub, msgs[i], items[i].sig)) << i;
    Bytes longer = msgs[i];
    longer.push_back(0x00);
    EXPECT_FALSE(verify(key.pub, longer, items[i].sig)) << i;
  };
  for (std::size_t i = 0; i < kTrips; ++i) {
    Seed seed{};
    rng.fill(seed.data(), seed.size());
    Bytes msg(rng.next() % 301);
    rng.fill(msg.data(), msg.size());
    round_trip(seed, std::move(msg));
  }

  bool top_128 = false, scalar_minus_128 = false, nonce_minus_128 = false;
  for (std::uint64_t n = 0; n < 4096 && !(top_128 && scalar_minus_128 && nonce_minus_128); ++n) {
    Seed seed{};
    for (int b = 0; b < 8; ++b) seed[b] = static_cast<std::uint8_t>(n >> (8 * b));
    const ExpandedKey key = expand(seed);
    const std::array<int, 32> e = radix256_digits(key.scalar.data());
    const Bytes msg = bytes_of("comb digit edge " + std::to_string(n));
    if (!top_128 && e[31] == 128) {
      top_128 = true;
      round_trip(seed, msg);
    } else if (!scalar_minus_128 && has_digit_minus_128(e)) {
      scalar_minus_128 = true;
      round_trip(seed, msg);
    } else if (!nonce_minus_128 && has_digit_minus_128(radix256_digits(nonce_of(key, msg).data()))) {
      nonce_minus_128 = true;
      round_trip(seed, msg);
    }
  }
  ASSERT_TRUE(top_128);
  ASSERT_TRUE(scalar_minus_128);
  ASSERT_TRUE(nonce_minus_128);

  const std::vector<bool> ok = verify_batch(items);
  ASSERT_EQ(ok.size(), kTrips + kEdges);
  for (std::size_t i = 0; i < ok.size(); ++i) EXPECT_TRUE(ok[i]) << i;
}

// Byte identity of key expansion and signing: SHA-256 over pub || sig
// for 512 deterministic (seed, message) pairs.  The constant was
// computed at commit 99017aa, where signing took the seed, re-derived
// the public key on every call and ran the w = 7 wNAF base-point
// chain, before the expanded key and the radix-16 comb replaced them.
TEST(Ed25519, SignaturesMatchParentDigest) {
  XorShift rng{0x6a09e667f3bcc908ULL};
  Bytes transcript;
  for (int i = 0; i < 512; ++i) {
    Seed seed{};
    rng.fill(seed.data(), seed.size());
    Bytes msg(rng.next() % 301);
    rng.fill(msg.data(), msg.size());
    const ExpandedKey key = expand(seed);
    const SignatureBytes sig = sign(key, msg);
    transcript.insert(transcript.end(), key.pub.begin(), key.pub.end());
    transcript.insert(transcript.end(), sig.begin(), sig.end());
  }
  EXPECT_EQ(to_hex(Sha256::digest(transcript).view()),
            "03c006b4afba46f570ab01f6847ec82303312f8c4530123d2d8423b5ad73e407");
}


// p = 2^255 - 19, little-endian: the field modulus point encodings are
// reduced against.
constexpr std::array<std::uint8_t, 32> kFieldP = {
    0xed, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f};

// A + T for the order-2 point T = (0, -1): (x, y) + T = (-x, -y), so
// the encoding's y becomes p - y and its sign bit flips.
PublicKeyBytes lace_with_order2(const PublicKeyBytes& pub) {
  PublicKeyBytes out{};
  int borrow = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    const int y = i == 31 ? (pub[i] & 0x7f) : pub[i];
    const int d = kFieldP[i] - y - borrow;
    out[i] = static_cast<std::uint8_t>(d);
    borrow = d < 0 ? 1 : 0;
  }
  out[31] = static_cast<std::uint8_t>((out[31] & 0x7f) | ((pub[31] ^ 0x80) & 0x80));
  return out;
}

// A signature under a key laced with a small-order point satisfies
// the cofactored equation [8][S]B = [8]R + [8][k]A but, for about half
// of the messages, not the cofactorless one.  A random-linear-
// combination batch cancels the torsion term whenever its coefficient
// is even, so a cofactorless batch accepted signatures its own
// single-signature check rejected.  Both paths now use the cofactored
// equation and accept every one.
TEST(Ed25519, BatchAgreesWithVerifyOnTorsionLacedKeys) {
  XorShift rng{0x3c6ef372fe94f82bULL};
  Seed seed{};
  rng.fill(seed.data(), seed.size());
  ExpandedKey laced = expand(seed);
  laced.pub = lace_with_order2(laced.pub);

  std::vector<ExpandedKey> honest(3);
  for (ExpandedKey& k : honest) {
    rng.fill(seed.data(), seed.size());
    k = expand(seed);
  }

  int accepted = 0;
  for (int i = 0; i < 256; ++i) {
    const Bytes msg = bytes_of("laced-" + std::to_string(i));
    std::vector<VerifyItem> batch;
    batch.push_back({laced.pub, ByteView{msg}, sign(laced, msg)});
    for (const ExpandedKey& k : honest) batch.push_back({k.pub, ByteView{msg}, sign(k, msg)});
    const bool single = verify(batch[0].pub, batch[0].msg, batch[0].sig);
    const std::vector<bool> got = verify_batch(batch);
    EXPECT_EQ(got[0], single) << "message " << i;
    for (std::size_t j = 1; j < batch.size(); ++j) EXPECT_TRUE(got[j]) << "message " << i;
    accepted += single ? 1 : 0;
  }
  EXPECT_EQ(accepted, 256);
}

// --- both backends ---------------------------------------------------------
//
// sign_batch and verify_batch's warm path run eight comb multiplies at
// once on CPUs with AVX-512 IFMA.  Each case below runs on each backend
// through the private hook; the lane cases skip without IFMA.  They sit
// before VerdictsMatchParentDigest, which fills the comb cache, so that
// their own keys still turn warm when one process runs them all.

constexpr std::string_view kNoLanes = "no AVX-512 IFMA on this CPU";

bool lanes_available() { return detail::backend_available(detail::Backend::kIfma); }

// 136 keys, a counterparty commit, signing one digest, in batches of
// 0 to 136: on the IFMA backend 1, 2, 3, 4 and 7 spread each key over
// 8, 4, 2, 2 and 1 lanes, 8 fills them, 9 adds a lone key, and 136 is
// 17 full passes.  Every signature must equal the key's own on the
// scalar backend, and so must the public sign and sign_batch.  The
// first key's nonce for the digest has a -128 digit.  Nonces are below
// L, so the comb's top digit 128 only arises in expand, which stays
// scalar.
void expect_sign_batch_matches_sign(detail::Backend backend) {
  const Bytes msg = bytes_of("a counterparty commit digest....");
  std::vector<ExpandedKey> keys;
  for (std::uint64_t n = 0; n < 4096 && keys.empty(); ++n) {
    Seed seed{};
    for (int b = 0; b < 8; ++b) seed[b] = static_cast<std::uint8_t>(n >> (8 * b));
    seed[31] = 0x5a;
    const ExpandedKey key = expand(seed);
    if (has_digit_minus_128(radix256_digits(nonce_of(key, msg).data()))) keys.push_back(key);
  }
  ASSERT_EQ(keys.size(), 1u);
  XorShift rng{0x9b05688c2b3e6c1fULL};
  while (keys.size() < 136) {
    Seed seed{};
    rng.fill(seed.data(), seed.size());
    keys.push_back(expand(seed));
  }
  std::vector<const ExpandedKey*> ptrs;
  for (const ExpandedKey& k : keys) ptrs.push_back(&k);
  std::vector<SignatureBytes> expected(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    detail::sign_batch_with(detail::Backend::kScalar, std::span{ptrs}.subspan(i, 1), msg,
                            {&expected[i], 1});
    EXPECT_EQ(to_hex(ByteView{sign(keys[i], msg)}), to_hex(ByteView{expected[i]})) << i;
  }

  for (const std::size_t n : {0, 1, 2, 3, 4, 7, 8, 9, 136}) {
    std::vector<SignatureBytes> out(n);
    detail::sign_batch_with(backend, std::span{ptrs}.first(n), msg, out);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(to_hex(ByteView{out[i]}), to_hex(ByteView{expected[i]}))
          << "n " << n << " key " << i;
  }
  std::vector<SignatureBytes> out(ptrs.size());
  sign_batch(ptrs, msg, out);
  for (std::size_t i = 0; i < ptrs.size(); ++i)
    EXPECT_EQ(to_hex(ByteView{out[i]}), to_hex(ByteView{expected[i]})) << "key " << i;
}

TEST(Ed25519, ScalarSignBatchMatchesSign) {
  expect_sign_batch_matches_sign(detail::Backend::kScalar);
}

TEST(Ed25519, LanesSignBatchMatchesSign) {
  if (!lanes_available()) GTEST_SKIP() << kNoLanes;
  expect_sign_batch_matches_sign(detail::Backend::kIfma);
}

// Whether k's signed radix-16 digits, which the warm path reads its
// key comb by (e[0..62] in [-8, 7]), include -8.
bool has_digit_minus_8(const std::array<std::uint8_t, 32>& k) {
  int carry = 0;
  for (int i = 0; i < 63; ++i) {
    const int d = ((k[i / 2] >> (4 * (i % 2))) & 15) + carry;
    carry = d >= 8 ? 1 : 0;
    if (d == 8) return true;
  }
  return false;
}

// k = SHA512(R || A || msg) mod L.
std::array<std::uint8_t, 32> challenge_of(const VerifyItem& it) {
  Sha512 h;
  h.update(ByteView{it.sig.data(), 32});
  h.update(ByteView{it.pub});
  h.update(it.msg);
  return reduce_mod_order(h.finish());
}

// verify_batch on 20 warm keys, one of them torsion-laced, for every
// batch size 1..20 with one bad item at every position: a tampered R, a
// tampered S or a non-canonical S in turn.  On the IFMA backend every
// batch runs lane passes: full passes of eight, and remainders spread
// over one, two, four or eight lanes per item.  Item 0's S has
// a -128 digit, and some item's k a -8 digit.  Verdicts must equal
// each item's own on the scalar backend, which the public verify must
// match too, and on the lane backend also verify_batch on the scalar
// one.
void expect_warm_verdicts(detail::Backend backend) {
  constexpr std::size_t kKeys = 20;
  constexpr std::size_t kLaced = 5;
  XorShift rng{0x1f83d9ab5be0cd19ULL};
  std::vector<ExpandedKey> keys(kKeys);
  for (ExpandedKey& k : keys) {
    Seed seed{};
    rng.fill(seed.data(), seed.size());
    k = expand(seed);
  }
  keys[kLaced].pub = lace_with_order2(keys[kLaced].pub);

  std::vector<Bytes> msgs(kKeys);
  std::vector<VerifyItem> honest(kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    for (int attempt = 0;; ++attempt) {
      msgs[i] = bytes_of("warm lane " + std::to_string(i) + "/" + std::to_string(attempt));
      honest[i] = {keys[i].pub, ByteView{msgs[i]}, sign(keys[i], msgs[i])};
      std::array<std::uint8_t, 32> s{};
      std::copy(honest[i].sig.begin() + 32, honest[i].sig.end(), s.begin());
      if (i != 0 || has_digit_minus_128(radix256_digits(s.data()))) break;
      ASSERT_LT(attempt, 4096);
    }
  }
  EXPECT_TRUE(std::any_of(honest.begin(), honest.end(), [](const VerifyItem& it) {
    return has_digit_minus_8(challenge_of(it));
  }));

  for (const VerifyItem& it : honest) {
    for (std::size_t u = 0; u <= kWarmKeyUses; ++u) ASSERT_TRUE(verify(it.pub, it.msg, it.sig));
    ASSERT_TRUE(detail::has_comb(it.pub)) << "comb cache full: keys stay cold";
  }

  for (std::size_t n = 1; n <= kKeys; ++n) {
    for (std::size_t bad = 0; bad < n; ++bad) {
      std::vector<VerifyItem> items(honest.begin(),
                                    honest.begin() + static_cast<std::ptrdiff_t>(n));
      SignatureBytes& sig = items[bad].sig;
      switch ((n + bad) % 3) {
        case 0:  // tampered R
          sig[7] ^= 0x04;
          break;
        case 1:  // tampered S, still canonical
          sig[35] ^= 0x10;
          break;
        default: {  // non-canonical S' = S + L
          unsigned carry = 0;
          for (std::size_t b = 0; b < 32; ++b) {
            const unsigned sum = sig[32 + b] + kOrderL[b] + carry;
            sig[32 + b] = static_cast<std::uint8_t>(sum);
            carry = sum >> 8;
          }
        }
      }
      std::vector<bool> expected(n);
      for (std::size_t i = 0; i < n; ++i) {
        expected[i] = detail::verify_batch_with(detail::Backend::kScalar, {&items[i], 1})[0];
        EXPECT_EQ(verify(items[i].pub, items[i].msg, items[i].sig), expected[i]) << i;
      }
      ASSERT_FALSE(expected[bad]);
      ASSERT_EQ(std::count(expected.begin(), expected.end(), true),
                static_cast<std::ptrdiff_t>(n - 1));
      EXPECT_EQ(detail::verify_batch_with(backend, items), expected) << "n " << n << " bad " << bad;
      if (backend != detail::Backend::kScalar) {
        EXPECT_EQ(detail::verify_batch_with(backend, items),
                  detail::verify_batch_with(detail::Backend::kScalar, items))
            << "n " << n << " bad " << bad;
      }
    }
  }
}

TEST(Ed25519, ScalarWarmBatchesMatchVerify) {
  expect_warm_verdicts(detail::Backend::kScalar);
}

TEST(Ed25519, LanesWarmBatchesMatchScalar) {
  if (!lanes_available()) GTEST_SKIP() << kNoLanes;
  expect_warm_verdicts(detail::Backend::kIfma);
}

TEST(Ed25519, UnavailableBackendThrows) {
  EXPECT_TRUE(detail::backend_available(detail::Backend::kScalar));
  if (lanes_available()) GTEST_SKIP() << "AVX-512 IFMA is available";
  EXPECT_THROW((void)detail::verify_batch_with(detail::Backend::kIfma, {}), std::runtime_error);
  EXPECT_THROW(detail::sign_batch_with(detail::Backend::kIfma, {}, {}, {}), std::runtime_error);
}

// n fresh keys from `rng`.
std::vector<ExpandedKey> random_keys(XorShift& rng, std::size_t n) {
  std::vector<ExpandedKey> keys(n);
  for (ExpandedKey& k : keys) {
    Seed seed{};
    rng.fill(seed.data(), seed.size());
    k = expand(seed);
  }
  return keys;
}

// sign_batch writes one signature per key, so an `out` of any other
// size is refused before anything is written, on every backend.
TEST(Ed25519, SignBatchRejectsMismatchedOutput) {
  XorShift rng{0x510e527fade682d1ULL};
  const std::vector<ExpandedKey> keys = random_keys(rng, 3);
  const std::vector<const ExpandedKey*> ptrs = {&keys[0], &keys[1], &keys[2]};
  const Bytes msg = bytes_of("a counterparty commit digest....");
  for (const std::size_t size : {1, 4}) {
    std::vector<SignatureBytes> out(size);
    EXPECT_THROW(sign_batch(ptrs, msg, out), std::invalid_argument) << "size " << size;
    for (const detail::Backend backend : {detail::Backend::kScalar, detail::Backend::kIfma}) {
      if (!detail::backend_available(backend)) continue;
      EXPECT_THROW(detail::sign_batch_with(backend, ptrs, msg, out), std::invalid_argument)
          << "size " << size << " backend " << static_cast<int>(backend);
    }
    EXPECT_EQ(out, std::vector<SignatureBytes>(size)) << "size " << size;
  }
}

// The lane backend hashes a nonce, SHA512(prefix || M), on the lanes
// while |M| <= 79 and a challenge, SHA512(R || A || M), while |M| <= 47;
// longer messages take the scalar hash.  Each length below sits on
// one side of a limit, so a batch runs both hashes on the lanes (0, 32,
// 47), only the nonces (48, 79) or neither (80, 300).  Every signature
// must equal the scalar backend's.
TEST(Ed25519, LanesSignBatchMatchesScalarAcrossBlockLimits) {
  if (!lanes_available()) GTEST_SKIP() << kNoLanes;
  XorShift rng{0x1f83d9abfb41bd6bULL};
  const std::vector<ExpandedKey> keys = random_keys(rng, 9);
  std::vector<const ExpandedKey*> ptrs;
  for (const ExpandedKey& k : keys) ptrs.push_back(&k);
  for (const std::size_t len : {0, 32, 47, 48, 79, 80, 300}) {
    Bytes msg(len);
    rng.fill(msg.data(), msg.size());
    for (const std::size_t n : {1, 3, 8, 9}) {
      std::vector<SignatureBytes> lanes(n), scalar(n);
      detail::sign_batch_with(detail::Backend::kIfma, std::span{ptrs}.first(n), msg, lanes);
      detail::sign_batch_with(detail::Backend::kScalar, std::span{ptrs}.first(n), msg, scalar);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(to_hex(ByteView{lanes[i]}), to_hex(ByteView{scalar[i]}))
            << "length " << len << " n " << n << " key " << i;
    }
  }
}

// One batch whose messages cycle through 32, 47, 48 and 200 bytes, so
// its challenges mix lane passes and scalar hashes, with one tampered
// signature: run with every key cold (the combined equation), then
// with every key warm (the combs).  Verdicts must equal verify's and
// the scalar backend's.
TEST(Ed25519, LanesVerifyBatchMixesBlockLimits) {
  if (!lanes_available()) GTEST_SKIP() << kNoLanes;
  constexpr std::size_t kItems = 17;
  constexpr std::size_t kTampered = 6;
  constexpr std::size_t kLengths[] = {32, 47, 48, 200};
  XorShift rng{0x5be0cd19137e2179ULL};
  const std::vector<ExpandedKey> keys = random_keys(rng, kItems);
  std::vector<Bytes> msgs(kItems);
  std::vector<VerifyItem> items(kItems);
  for (std::size_t i = 0; i < kItems; ++i) {
    msgs[i].resize(kLengths[i % 4]);
    rng.fill(msgs[i].data(), msgs[i].size());
    items[i] = {keys[i].pub, ByteView{msgs[i]}, sign(keys[i], msgs[i])};
  }
  items[kTampered].sig[40] ^= 0x20;
  std::vector<bool> expected(kItems, true);
  expected[kTampered] = false;

  for (const bool warm : {false, true}) {
    for (std::size_t i = 0; i < kItems; ++i) {
      EXPECT_EQ(detail::has_comb(items[i].pub), warm) << "item " << i;
      EXPECT_EQ(verify(items[i].pub, items[i].msg, items[i].sig), expected[i]) << "item " << i;
    }
    EXPECT_EQ(detail::verify_batch_with(detail::Backend::kScalar, items), expected) << warm;
    EXPECT_EQ(detail::verify_batch_with(detail::Backend::kIfma, items), expected) << warm;
    for (const VerifyItem& it : items)
      for (std::size_t u = 0; u < kWarmKeyUses; ++u) (void)verify(it.pub, it.msg, it.sig);
  }
}

// A field element as four little-endian 64-bit words.
using Words = std::array<std::uint64_t, 4>;

Words words_of(const std::uint8_t b[32]) {
  Words w{};
  for (int i = 31; i >= 0; --i) w[i / 8] = (w[i / 8] << 8) | b[i];
  return w;
}

bool below_p(const Words& x) {
  const Words p = words_of(kFieldP.data());
  return std::lexicographical_compare(x.rbegin(), x.rend(), p.rbegin(), p.rend());
}

// x y mod p for x, y below 2^256, apart from the library's field code:
// a schoolbook 512-bit product, its high half folded onto the low one
// with 2^256 = 38 (mod p) until nothing carries out, then p subtracted
// until the result is below it.
Words mul_mod_p(const Words& x, const Words& y) {
  using u128 = unsigned __int128;
  std::uint64_t t[8] = {};
  for (int i = 0; i < 4; ++i) {
    u128 c = 0;
    for (int j = 0; j < 4; ++j) {
      c += static_cast<u128>(x[i]) * y[j] + t[i + j];
      t[i + j] = static_cast<std::uint64_t>(c);
      c >>= 64;
    }
    t[i + 4] = static_cast<std::uint64_t>(c);
  }
  Words r{};
  u128 c = 0;
  for (int i = 0; i < 4; ++i) {
    c += static_cast<u128>(t[i + 4]) * 38 + t[i];
    r[i] = static_cast<std::uint64_t>(c);
    c >>= 64;
  }
  while (c != 0) {
    c *= 38;
    for (int i = 0; i < 4; ++i) {
      c += r[i];
      r[i] = static_cast<std::uint64_t>(c);
      c >>= 64;
    }
  }
  const Words p = words_of(kFieldP.data());
  while (!below_p(r)) {
    std::uint64_t borrow = 0;
    for (int i = 0; i < 4; ++i) {
      const u128 d = static_cast<u128>(r[i]) - p[i] - borrow;
      r[i] = static_cast<std::uint64_t>(d);
      borrow = static_cast<std::uint64_t>(d >> 64) & 1;
    }
  }
  return r;
}

// The field inversion behind every signature, verify run and table
// build, against the product above: each output is canonical, x times
// it is 1 mod p, and x = 0 mod p gives 0.  Inputs are the small and
// near-p edges, every non-canonical encoding p..2^255 - 1, every power
// of two below 2^255, and random values below 2^255.
TEST(Ed25519, FieldInverseMatchesReference) {
  constexpr Words kZero{0, 0, 0, 0};
  constexpr Words kOne{1, 0, 0, 0};
  const Words p = words_of(kFieldP.data());
  std::vector<Words> inputs = {kZero, kOne, {2, 0, 0, 0}};
  Words pm1 = p;
  pm1[0] -= 1;
  inputs.push_back(pm1);
  Words half = pm1;  // (p - 1) / 2
  for (int i = 0; i < 4; ++i) half[i] = (half[i] >> 1) | (i < 3 ? half[i + 1] << 63 : 0);
  inputs.push_back(half);
  for (std::uint64_t k = 0; k < 19; ++k) inputs.push_back({p[0] + k, p[1], p[2], p[3]});
  for (int b = 0; b < 255; ++b) {
    Words x = kZero;
    x[b / 64] = std::uint64_t{1} << (b % 64);
    inputs.push_back(x);
  }
  XorShift rng{0x510e527fade682d1ULL};
  for (int i = 0; i < 100000; ++i) {
    Words x{rng.next(), rng.next(), rng.next(), rng.next()};
    x[3] >>= 1;
    inputs.push_back(x);
  }

  for (const Words& x : inputs) {
    std::uint8_t in[32], out[32];
    for (int i = 0; i < 32; ++i) in[i] = static_cast<std::uint8_t>(x[i / 8] >> (8 * (i % 8)));
    detail::fe_invert_bytes(out, in);
    const Words inv = words_of(out);
    ASSERT_TRUE(below_p(inv)) << to_hex(ByteView{in, 32});
    const Words expected = mul_mod_p(x, kOne) == kZero ? kZero : kOne;
    const Words got = expected == kZero ? inv : mul_mod_p(x, inv);
    ASSERT_EQ(got, expected) << to_hex(ByteView{in, 32});
  }
}

// A deterministic corpus of honest and mutated triples for the
// verdict digest below: 2,040 triples (30 blocks of 68, a multiple of
// both batch shapes 4 and 17) over 1,100 keys.  Even blocks are all
// honest, so the combined batch equation also passes; odd blocks draw
// from the six mutation arms of BatchMatchesSingleVerifyProperty plus
// hand-made encodings: R and A with y >= p, R and A encoding x = 0
// with the sign bit set, S = L, and the identity as R.  Torsion-laced
// keys are left out: the cofactored equation accepts them on purpose.
struct VerdictCorpus {
  static constexpr std::size_t kKeys = 1100;
  static constexpr std::size_t kBlock = 68;
  static constexpr std::size_t kTriples = 30 * kBlock;

  std::vector<ExpandedKey> keys;
  std::vector<Bytes> msgs;
  std::vector<VerifyItem> items;
};

VerdictCorpus make_verdict_corpus() {
  XorShift rng{0xbb67ae8584caa73bULL};
  std::vector<ExpandedKey> keys(VerdictCorpus::kKeys);
  for (ExpandedKey& k : keys) {
    Seed seed{};
    rng.fill(seed.data(), seed.size());
    k = expand(seed);
  }
  // p + t for t <= 18 (non-canonical y), with a random sign bit.
  const auto y_at_least_p = [&rng](std::uint8_t out[32]) {
    std::copy(kFieldP.begin(), kFieldP.end(), out);
    out[0] = static_cast<std::uint8_t>(out[0] + rng.next() % 19);
    if (rng.next() & 1) out[31] |= 0x80;
  };
  // y = 1 or y = p - 1, the two points with x = 0, with the sign bit set.
  const auto negative_zero_x = [&rng](std::uint8_t out[32]) {
    std::fill(out, out + 32, 0);
    if (rng.next() & 1) {
      out[0] = 1;
    } else {
      std::copy(kFieldP.begin(), kFieldP.end(), out);
      out[0] -= 1;
    }
    out[31] |= 0x80;
  };

  VerdictCorpus c;
  c.msgs.resize(VerdictCorpus::kTriples);
  c.items.resize(VerdictCorpus::kTriples);
  for (std::size_t i = 0; i < VerdictCorpus::kTriples; ++i) {
    const ExpandedKey& key = keys[i % VerdictCorpus::kKeys];
    Bytes& msg = c.msgs[i];
    msg.resize(rng.next() % 65);
    rng.fill(msg.data(), msg.size());
    VerifyItem& it = c.items[i];
    it.pub = key.pub;
    it.sig = sign(key, msg);
    if ((i / VerdictCorpus::kBlock) % 2 == 0) continue;

    switch (rng.next() % 16) {
      case 0:  // tampered R half
        it.sig[rng.next() % 32] ^= static_cast<std::uint8_t>(1 + rng.next() % 255);
        break;
      case 1:  // tampered S half
        it.sig[32 + rng.next() % 32] ^= static_cast<std::uint8_t>(1 + rng.next() % 255);
        break;
      case 2:  // wrong message
        msg.push_back(static_cast<std::uint8_t>(rng.next()));
        break;
      case 3:  // wrong key
        it.pub = keys[(i + 1 + rng.next() % (VerdictCorpus::kKeys - 1)) % VerdictCorpus::kKeys].pub;
        break;
      case 4: {  // non-canonical S' = S + L
        unsigned carry = 0;
        for (std::size_t b = 0; b < 32; ++b) {
          const unsigned sum = it.sig[32 + b] + kOrderL[b] + carry;
          it.sig[32 + b] = static_cast<std::uint8_t>(sum);
          carry = sum >> 8;
        }
        break;
      }
      case 5:  // all-zero signature
        it.sig = SignatureBytes{};
        break;
      case 6:
        y_at_least_p(it.sig.data());
        break;
      case 7:
        y_at_least_p(it.pub.data());
        break;
      case 8:
        negative_zero_x(it.sig.data());
        break;
      case 9:
        negative_zero_x(it.pub.data());
        break;
      case 10:  // S = L
        std::copy(kOrderL.begin(), kOrderL.end(), it.sig.begin() + 32);
        break;
      case 11:  // the identity (0, 1) as R
        std::fill(it.sig.begin(), it.sig.begin() + 32, 0);
        it.sig[0] = 1;
        break;
      default:  // leave valid (four of sixteen arms)
        break;
    }
  }
  for (std::size_t i = 0; i < VerdictCorpus::kTriples; ++i) c.items[i].msg = ByteView{c.msgs[i]};
  c.keys = std::move(keys);
  return c;
}

// SHA-256 over the corpus verdicts of verify, then of verify_batch on
// the corpus cut into batches of 1, 4 and 17.
std::string verdict_digest(const std::vector<VerifyItem>& items) {
  Bytes verdicts(items.size());
  for (std::size_t i = 0; i < items.size(); ++i)
    verdicts[i] = verify(items[i].pub, items[i].msg, items[i].sig) ? 1 : 0;
  Bytes transcript = verdicts;
  const std::span<const VerifyItem> all{items};
  for (const std::size_t size : {1, 4, 17}) {
    for (std::size_t begin = 0; begin < items.size(); begin += size) {
      const std::size_t n = std::min(size, items.size() - begin);
      const std::vector<bool> got = verify_batch(all.subspan(begin, n));
      for (std::size_t j = 0; j < n; ++j) verdicts[begin + j] = got[j] ? 1 : 0;
    }
    transcript.insert(transcript.end(), verdicts.begin(), verdicts.end());
  }
  return to_hex(Sha256::digest(transcript).view());
}

// Verdict identity of verify and verify_batch.  The constant was
// computed at commit 44ac822, before the verify path was rebuilt
// around per-key [2^128]A tables and split 128-bit chains, where both
// ran the cofactorless equation over full-length w = 7 / w = 5 wNAF
// Straus chains.  The corpus runs cold, again with the key memo warm
// (it holds fewer keys than the corpus, so it is cleared on the way),
// and then with the keys warm: each key's honest signature is verified
// past kWarmKeyUses first.  The comb cache holds fewer keys than the
// corpus, so that digest checks some keys on combs and the rest on the
// memo's tables.  Last, the corpus runs on four threads at once, each
// with its own memo and all sharing the combs.
TEST(Ed25519, VerdictsMatchParentDigest) {
  static_assert(VerdictCorpus::kKeys > kKeyMemoCapacity);
  constexpr std::string_view kParent =
      "b63321e82887d0b811420b580f282eae8101ea968f70f502f8a3f436bc9ba14f";
  const VerdictCorpus c = make_verdict_corpus();
  EXPECT_EQ(verdict_digest(c.items), kParent) << "cold";
  EXPECT_EQ(verdict_digest(c.items), kParent) << "memoized";

  // One use more than kWarmKeyUses: a key whose first use fills the
  // memo loses that count when the next call clears it.
  const Bytes warm_msg = bytes_of("warm");
  std::size_t warm_accepted = 0;
  for (const ExpandedKey& key : c.keys) {
    const SignatureBytes sig = sign(key, warm_msg);
    for (std::size_t u = 0; u <= kWarmKeyUses; ++u)
      warm_accepted += verify(key.pub, warm_msg, sig) ? 1 : 0;
  }
  EXPECT_EQ(verdict_digest(c.items), kParent) << "warm";
  EXPECT_EQ(warm_accepted, c.keys.size() * (kWarmKeyUses + 1));

  std::array<std::string, 4> got;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t)
    threads.emplace_back([&c, &got, t] { got[t] = verdict_digest(c.items); });
  for (std::thread& t : threads) t.join();
  for (std::size_t t = 0; t < got.size(); ++t) EXPECT_EQ(got[t], kParent) << "thread " << t;
}

// Four threads verify batches over the same fresh keys at once, past
// kWarmKeyUses, so all of them reach the keys' build threshold together
// and race to publish each comb while the others read the cache.  One
// signature is tampered; every call on every thread must return the
// expected verdicts.  Run under TSan in CI.
TEST(Ed25519, CombCacheRace) {
  constexpr std::size_t kItems = 8;
  constexpr std::size_t kTampered = 3;
  XorShift rng{0xa54ff53a5f1d36f1ULL};
  std::vector<Bytes> msgs(kItems);
  std::vector<VerifyItem> items(kItems);
  for (std::size_t i = 0; i < kItems; ++i) {
    Seed seed{};
    rng.fill(seed.data(), seed.size());
    const ExpandedKey key = expand(seed);
    msgs[i] = bytes_of("comb-race-" + std::to_string(i));
    items[i] = {key.pub, ByteView{msgs[i]}, sign(key, msgs[i])};
  }
  items[kTampered].sig[40] ^= 0x20;
  std::vector<bool> expected(kItems, true);
  expected[kTampered] = false;

  std::array<std::size_t, 4> wrong{};
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < wrong.size(); ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < wrong.size()) std::this_thread::yield();
      for (std::size_t round = 0; round < 2 * kWarmKeyUses; ++round) {
        if (verify_batch(items) != expected) ++wrong[t];
        const VerifyItem& it = items[round % kItems];
        if (verify(it.pub, it.msg, it.sig) != expected[round % kItems]) ++wrong[t];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t t = 0; t < wrong.size(); ++t) EXPECT_EQ(wrong[t], 0u) << "thread " << t;
}

}  // namespace
}  // namespace bmg::crypto::ed25519
