#include "crypto/ed25519.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "crypto/ed25519_impl.hpp"
#include "crypto/sha512.hpp"
#include "crypto/sha512_impl.hpp"

// The eight-lane backend compiles its functions for AVX-512 IFMA one by
// one (BMG_LANE_FN), so the rest of the build needs no -m flags; see
// "The AVX-512 IFMA backend" below.  Other targets get the scalar code
// only.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define BMG_ED25519_LANES 1
#include <immintrin.h>
#define BMG_LANE_FN __attribute__((target("avx512f,avx512ifma")))
#define BMG_LANE_INLINE __attribute__((target("avx512f,avx512ifma"), always_inline)) inline
#else
#define BMG_ED25519_LANES 0
#define BMG_LANE_FN
#endif

namespace bmg::crypto::ed25519 {

using crypto::detail::Sha512Parts;
using detail::Backend;

namespace {

// ---------------------------------------------------------------------------
// Field arithmetic mod p = 2^255 - 19, radix-2^51 representation.
//
// Reduction is lazy.  fe_mul and fe_sq accept limbs up to kMulInMax
// (2^54 - 1) and return limbs up to kMulOutMax (2^51 + 2^13 - 1).
// fe_add and fe_sub do not carry; fe_sub adds 4p limb-wise, so its
// result stays non-negative while the subtrahend's limbs are at most
// the bias's.  A sum or difference of two products can therefore go
// straight into the next product, and only an operand that would break
// one of these bounds is carried.  The static_asserts below check each
// bound on its worst case in 128-bit arithmetic: a wrapped limb is
// unsigned overflow, which no sanitizer reports.
// ---------------------------------------------------------------------------

struct Fe {
  std::uint64_t v[5];
};

using u128 = unsigned __int128;

constexpr std::uint64_t kMask51 = (1ULL << 51) - 1;
// fe_sub's bias 4p: 4(2^51 - 19) on limb 0, 4(2^51 - 1) on the others.
constexpr std::uint64_t kBias0 = 4 * ((1ULL << 51) - 19);
constexpr std::uint64_t kBias = 4 * ((1ULL << 51) - 1);

// The limb bounds of the contract, as inclusive maxima.
constexpr u128 kMulInMax = (u128{1} << 54) - 1;
constexpr u128 kMulOutMax = (u128{1} << 51) + (u128{1} << 13) - 1;
constexpr u128 kCarryOutMax = u128{1} << 51;  // fe_carry of limbs below 2^63
constexpr u128 kSumMax = 2 * kMulOutMax;       // a + b of two products
constexpr u128 kDiffMax = kMulOutMax + kBias;  // a - b of two products

// fe_mul and fe_sq at input limbs kMulInMax.  Column i sums i + 1
// products and 4 - i products scaled by 19 (fe_sq's columns equal
// fe_mul's), plus the carry out of column i - 1.
constexpr u128 mul_column_max(int i) {
  const u128 carry_in = i == 0 ? 0 : mul_column_max(i - 1) >> 51;
  return static_cast<u128>(i + 1 + 19 * (4 - i)) * kMulInMax * kMulInMax + carry_in;
}
// Limb 0 once column 4's carry folds back times 19; limb 0's own carry
// then lands on limb 1, the largest limb returned.
constexpr u128 kMulFoldMax = kMask51 + 19 * (mul_column_max(4) >> 51);
constexpr u128 kU64Max = ~std::uint64_t{0};
static_assert(19 * kMulInMax <= kU64Max && 2 * kMulInMax <= kU64Max,
              "the 19 b_j and 2 a_j factors fit 64 bits");
static_assert(mul_column_max(0) < (u128{1} << 115) && mul_column_max(1) < (u128{1} << 115) &&
                  mul_column_max(2) < (u128{1} << 115) && mul_column_max(3) < (u128{1} << 115) &&
                  mul_column_max(4) < (u128{1} << 115),
              "column sums fit 128 bits and their carries 64");
static_assert(kMulFoldMax <= kU64Max && kMask51 + (kMulFoldMax >> 51) <= kMulOutMax,
              "fe_mul and fe_sq return limbs up to kMulOutMax");
// What the group formulas rely on: a product, a carried value or a
// point coordinate may be subtracted, and a sum or difference of two
// products may be multiplied.
static_assert(kMulOutMax <= kBias0 && kCarryOutMax <= kMulOutMax);
static_assert(kSumMax <= kMulInMax && kDiffMax <= kMulInMax);

Fe fe_zero() { return Fe{{0, 0, 0, 0, 0}}; }
Fe fe_one() { return Fe{{1, 0, 0, 0, 0}}; }

Fe fe_from_u64(std::uint64_t x) { return Fe{{x & kMask51, x >> 51, 0, 0, 0}}; }

[[gnu::always_inline]] inline Fe fe_add(const Fe& a, const Fe& b) {
  Fe r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}

// a - b + 4p; b's limbs must be at most kBias0.
[[gnu::always_inline]] inline Fe fe_sub(const Fe& a, const Fe& b) {
  Fe r;
  r.v[0] = a.v[0] + kBias0 - b.v[0];
  for (int i = 1; i < 5; ++i) r.v[i] = a.v[i] + kBias - b.v[i];
  return r;
}

// Weak reduction: limbs below 2^63 come out at most 2^51.
[[gnu::always_inline]] inline Fe fe_carry(const Fe& a) {
  Fe r = a;
  std::uint64_t c;
  c = r.v[0] >> 51; r.v[0] &= kMask51; r.v[1] += c;
  c = r.v[1] >> 51; r.v[1] &= kMask51; r.v[2] += c;
  c = r.v[2] >> 51; r.v[2] &= kMask51; r.v[3] += c;
  c = r.v[3] >> 51; r.v[3] &= kMask51; r.v[4] += c;
  c = r.v[4] >> 51; r.v[4] &= kMask51; r.v[0] += c * 19;
  c = r.v[0] >> 51; r.v[0] &= kMask51; r.v[1] += c;
  return r;
}

// The carry chain shared by fe_mul and fe_sq.
[[gnu::always_inline]] inline Fe fe_reduce_columns(u128 t0, u128 t1, u128 t2, u128 t3, u128 t4) {
  Fe r;
  std::uint64_t c;
  r.v[0] = (std::uint64_t)t0 & kMask51; c = (std::uint64_t)(t0 >> 51);
  t1 += c;
  r.v[1] = (std::uint64_t)t1 & kMask51; c = (std::uint64_t)(t1 >> 51);
  t2 += c;
  r.v[2] = (std::uint64_t)t2 & kMask51; c = (std::uint64_t)(t2 >> 51);
  t3 += c;
  r.v[3] = (std::uint64_t)t3 & kMask51; c = (std::uint64_t)(t3 >> 51);
  t4 += c;
  r.v[4] = (std::uint64_t)t4 & kMask51; c = (std::uint64_t)(t4 >> 51);
  r.v[0] += c * 19;
  c = r.v[0] >> 51; r.v[0] &= kMask51; r.v[1] += c;
  return r;
}

[[gnu::always_inline]] inline Fe fe_mul(const Fe& a, const Fe& b) {
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const std::uint64_t b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3], b4 = b.v[4];
  const std::uint64_t b1_19 = b1 * 19, b2_19 = b2 * 19, b3_19 = b3 * 19, b4_19 = b4 * 19;

  return fe_reduce_columns(
      (u128)a0 * b0 + (u128)a1 * b4_19 + (u128)a2 * b3_19 + (u128)a3 * b2_19 + (u128)a4 * b1_19,
      (u128)a0 * b1 + (u128)a1 * b0 + (u128)a2 * b4_19 + (u128)a3 * b3_19 + (u128)a4 * b2_19,
      (u128)a0 * b2 + (u128)a1 * b1 + (u128)a2 * b0 + (u128)a3 * b4_19 + (u128)a4 * b3_19,
      (u128)a0 * b3 + (u128)a1 * b2 + (u128)a2 * b1 + (u128)a3 * b0 + (u128)a4 * b4_19,
      (u128)a0 * b4 + (u128)a1 * b3 + (u128)a2 * b2 + (u128)a3 * b1 + (u128)a4 * b0);
}

// a^2 with 15 products instead of fe_mul's 25: each cross term a_i a_j
// is taken once and doubled.  The column sums equal fe_mul(a, a)'s
// exactly, so the result is bit-identical.
[[gnu::always_inline]] inline Fe fe_sq(const Fe& a) {
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const std::uint64_t a0_2 = 2 * a0, a1_2 = 2 * a1, a2_2 = 2 * a2, a3_2 = 2 * a3;
  const std::uint64_t a3_19 = 19 * a3, a4_19 = 19 * a4;

  return fe_reduce_columns((u128)a0 * a0 + (u128)a1_2 * a4_19 + (u128)a2_2 * a3_19,
                           (u128)a0_2 * a1 + (u128)a2_2 * a4_19 + (u128)a3 * a3_19,
                           (u128)a0_2 * a2 + (u128)a1 * a1 + (u128)a3_2 * a4_19,
                           (u128)a0_2 * a3 + (u128)a1_2 * a2 + (u128)a4 * a4_19,
                           (u128)a0_2 * a4 + (u128)a1_2 * a3 + (u128)a2 * a2);
}

Fe fe_neg(const Fe& a) { return fe_carry(fe_sub(fe_zero(), a)); }

// Full (canonical) reduction to [0, p), as four little-endian 64-bit words.
void fe_to_words(std::uint64_t w[4], const Fe& a) {
  // Repeated carries fully radix-normalize the limbs (each pass moves a
  // possible +1 excess one limb further; six passes guarantee all limbs
  // are <= 2^51 - 1, i.e. the value is in [0, 2^255)).
  Fe t = a;
  for (int i = 0; i < 6; ++i) t = fe_carry(t);
  // Canonicalize: value is in [0, 2^255) < 2p, so subtract p at most once.
  std::uint64_t l0 = t.v[0], l1 = t.v[1], l2 = t.v[2], l3 = t.v[3], l4 = t.v[4];
  // Canonicalize: add 19, see if >= 2^255, then subtract p accordingly.
  std::uint64_t q = (l0 + 19) >> 51;
  q = (l1 + q) >> 51;
  q = (l2 + q) >> 51;
  q = (l3 + q) >> 51;
  q = (l4 + q) >> 51;
  l0 += 19 * q;
  std::uint64_t c;
  c = l0 >> 51; l0 &= kMask51; l1 += c;
  c = l1 >> 51; l1 &= kMask51; l2 += c;
  c = l2 >> 51; l2 &= kMask51; l3 += c;
  c = l3 >> 51; l3 &= kMask51; l4 += c;
  l4 &= kMask51;

  w[0] = l0 | (l1 << 51);
  w[1] = (l1 >> 13) | (l2 << 38);
  w[2] = (l2 >> 26) | (l3 << 25);
  w[3] = (l3 >> 39) | (l4 << 12);
}

void fe_to_bytes(std::uint8_t out[32], const Fe& a) {
  std::uint64_t w[4];
  fe_to_words(w, a);
  for (int i = 0; i < 8; ++i) {
    out[i] = (std::uint8_t)(w[0] >> (8 * i));
    out[8 + i] = (std::uint8_t)(w[1] >> (8 * i));
    out[16 + i] = (std::uint8_t)(w[2] >> (8 * i));
    out[24 + i] = (std::uint8_t)(w[3] >> (8 * i));
  }
}

Fe fe_from_bytes(const std::uint8_t in[32]) {
  auto load64 = [&](int off) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | in[off + i];
    return v;
  };
  const std::uint64_t w0 = load64(0), w1 = load64(8), w2 = load64(16), w3 = load64(24);
  Fe r;
  r.v[0] = w0 & kMask51;
  r.v[1] = ((w0 >> 51) | (w1 << 13)) & kMask51;
  r.v[2] = ((w1 >> 38) | (w2 << 26)) & kMask51;
  r.v[3] = ((w2 >> 25) | (w3 << 39)) & kMask51;
  r.v[4] = (w3 >> 12) & kMask51;  // top bit dropped (sign bit handled by caller)
  return r;
}

bool fe_is_zero(const Fe& a) {
  std::uint8_t b[32];
  fe_to_bytes(b, a);
  std::uint8_t acc = 0;
  for (int i = 0; i < 32; ++i) acc |= b[i];
  return acc == 0;
}

bool fe_eq(const Fe& a, const Fe& b) {
  std::uint8_t ba[32], bb[32];
  fe_to_bytes(ba, a);
  fe_to_bytes(bb, b);
  return std::memcmp(ba, bb, 32) == 0;
}

bool fe_is_negative(const Fe& a) {
  std::uint8_t b[32];
  fe_to_bytes(b, a);
  return (b[0] & 1) != 0;
}

// Generic exponentiation with a little-endian 255-bit exponent.
Fe fe_pow(const Fe& base, const std::uint8_t exp_le[32]) {
  Fe result = fe_one();
  Fe acc = base;
  for (int bit = 0; bit < 255; ++bit) {
    if ((exp_le[bit / 8] >> (bit % 8)) & 1) result = fe_mul(result, acc);
    acc = fe_sq(acc);
  }
  return result;
}

Fe fe_sqn(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = fe_sq(a);
  return a;
}

// a^((p - 5) / 8) = a^(2^252 - 3), used for the decompression sqrt
// (the classic curve25519 addition chain).
Fe fe_pow_p58(const Fe& a) {
  const Fe a2 = fe_sq(a);                                // a^2
  const Fe a9 = fe_mul(a, fe_sqn(a2, 2));                // a^9
  const Fe a11 = fe_mul(a9, a2);                         // a^11
  const Fe p5 = fe_mul(fe_sq(a11), a9);                  // a^(2^5 - 1)
  const Fe p10 = fe_mul(fe_sqn(p5, 5), p5);              // a^(2^10 - 1)
  const Fe p20 = fe_mul(fe_sqn(p10, 10), p10);           // a^(2^20 - 1)
  const Fe p40 = fe_mul(fe_sqn(p20, 20), p20);           // a^(2^40 - 1)
  const Fe p50 = fe_mul(fe_sqn(p40, 10), p10);           // a^(2^50 - 1)
  const Fe p100 = fe_mul(fe_sqn(p50, 50), p50);          // a^(2^100 - 1)
  const Fe p200 = fe_mul(fe_sqn(p100, 100), p100);       // a^(2^200 - 1)
  const Fe p250 = fe_mul(fe_sqn(p200, 50), p50);         // a^(2^250 - 1)
  return fe_mul(fe_sqn(p250, 2), a);  // (2^250-1)*2^2 + 1 = 2^252 - 3
}

// ---------------------------------------------------------------------------
// Inversion mod p: Bernstein and Yang's safegcd ("Fast constant-time gcd
// computation and modular inversion", CHES 2019) in the variable-time
// form of libsecp256k1's modinv64_var.
//
// Divsteps take (f, g) = (p, x) to g = 0 and f = ±1.  The same steps
// applied mod p to (d, e) = (0, 1) keep d x = f and e x = g, so they
// end with d = ±1/x.  The steps run in batches of 62 on the low words
// of f and g alone; each batch yields a 2x2 matrix, which is then
// applied to the full values.  Bernstein and Yang bound the steps for
// 255-bit inputs by 738, so there are at most 12 batches.  Like the
// combs and Straus chains below, which branch on secret digits, this
// runs in variable time: the simulation's threat model has no timing
// side channel.
// ---------------------------------------------------------------------------

// sum v[i] 2^(62 i).  Between batches, every limb of d and e but the
// top one is in [0, 2^62); the top one carries the sign.
struct Signed62 {
  std::int64_t v[5];
};

using i128 = __int128;

constexpr std::uint64_t kMask62 = ~std::uint64_t{0} >> 2;
// p = 2^255 - 19 = -19 + 128 * 2^248.
constexpr Signed62 kP62 = {{-19, 0, 0, 0, 128}};

// 1/a mod 2^64 for odd a: a is its own inverse mod 8, and each Newton
// step x (2 - a x) doubles the number of correct low bits.
constexpr std::uint64_t inverse_mod_2_64(std::uint64_t a) {
  std::uint64_t x = a;
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}
// 1/p mod 2^62; p = -19 mod 2^62.
constexpr std::uint64_t kPInv62 = inverse_mod_2_64(std::uint64_t{0} - 19) & kMask62;
static_assert(((std::uint64_t{0} - 19) * kPInv62 & kMask62) == 1);

// 62 divsteps: (f, g) becomes (u f + v g, q f + r g) / 2^62.
struct Transition {
  std::int64_t u, v, q, r;
};

// Runs 62 divsteps on the low words of f (odd) and g, with eta = -delta,
// and returns the new eta.  A run of zero bits in g is shifted out in
// one go, and an odd g has up to 6 low bits (right after a swap) or 4
// cancelled at once by adding w f.  The matrix is computed mod 2^64;
// its entries stay within 2^62 in magnitude.
std::int64_t divsteps_62(std::int64_t eta, std::uint64_t f, std::uint64_t g, Transition& t) {
  std::uint64_t u = 1, v = 0, q = 0, r = 1;
  int left = 62;
  for (;;) {
    // A sentinel bit at position `left` stops the count there.
    const int zeros = std::countr_zero(g | (~std::uint64_t{0} << left));
    g >>= zeros;
    u <<= zeros;
    v <<= zeros;
    eta -= zeros;
    left -= zeros;
    if (left == 0) break;
    std::uint64_t w, m;
    if (eta < 0) {
      // (f, g) becomes (g, -f), and eta its negation.
      eta = -eta;
      std::uint64_t tmp = f;
      f = g;
      g = 0 - tmp;
      tmp = u;
      u = q;
      q = 0 - tmp;
      tmp = v;
      v = r;
      r = 0 - tmp;
      w = f * g * (f * f - 2);  // -g/f mod 64
      m = 63;
    } else {
      w = 0 - (f + (((f + 1) & 4) << 1)) * g;  // -g/f mod 16
      m = 15;
    }
    // Cancel no more bits than steps are left, nor than eta + 1: after
    // that many the swap branch would be taken again.
    const int limit = static_cast<int>(std::min<std::int64_t>(eta + 1, left));
    w &= m & (~std::uint64_t{0} >> (64 - limit));
    g += f * w;
    q += u * w;
    r += v * w;
  }
  t = Transition{static_cast<std::int64_t>(u), static_cast<std::int64_t>(v),
                 static_cast<std::int64_t>(q), static_cast<std::int64_t>(r)};
  return eta;
}

// (d, e) <- t (d, e) / 2^62 mod p, each kept in (-2p, p).  Adding md p
// and me p, where md and me come from 1/p mod 2^62, clears the low 62
// bits so the division is a shift; their u p, v p, q p, r p terms for a
// negative d or e keep the results in range.
void update_de(Signed62& d, Signed62& e, const Transition& t) {
  const std::int64_t sd = d.v[4] >> 63, se = e.v[4] >> 63;  // -1 if negative
  std::int64_t md = (t.u & sd) + (t.v & se);
  std::int64_t me = (t.q & sd) + (t.r & se);
  i128 cd = (i128)t.u * d.v[0] + (i128)t.v * e.v[0];
  i128 ce = (i128)t.q * d.v[0] + (i128)t.r * e.v[0];
  md -= static_cast<std::int64_t>(
      (kPInv62 * static_cast<std::uint64_t>(cd) + static_cast<std::uint64_t>(md)) & kMask62);
  me -= static_cast<std::int64_t>(
      (kPInv62 * static_cast<std::uint64_t>(ce) + static_cast<std::uint64_t>(me)) & kMask62);
  cd = (cd + (i128)kP62.v[0] * md) >> 62;
  ce = (ce + (i128)kP62.v[0] * me) >> 62;
  for (int i = 1; i < 5; ++i) {
    cd += (i128)t.u * d.v[i] + (i128)t.v * e.v[i] + (i128)kP62.v[i] * md;
    ce += (i128)t.q * d.v[i] + (i128)t.r * e.v[i] + (i128)kP62.v[i] * me;
    d.v[i - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(cd) & kMask62);
    e.v[i - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(ce) & kMask62);
    cd >>= 62;
    ce >>= 62;
  }
  d.v[4] = static_cast<std::int64_t>(cd);
  e.v[4] = static_cast<std::int64_t>(ce);
}

// (f, g) <- t (f, g) / 2^62 on their low `len` limbs; the division is
// exact.
void update_fg(int len, Signed62& f, Signed62& g, const Transition& t) {
  i128 cf = ((i128)t.u * f.v[0] + (i128)t.v * g.v[0]) >> 62;
  i128 cg = ((i128)t.q * f.v[0] + (i128)t.r * g.v[0]) >> 62;
  for (int i = 1; i < len; ++i) {
    cf += (i128)t.u * f.v[i] + (i128)t.v * g.v[i];
    cg += (i128)t.q * f.v[i] + (i128)t.r * g.v[i];
    f.v[i - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(cf) & kMask62);
    g.v[i - 1] = static_cast<std::int64_t>(static_cast<std::uint64_t>(cg) & kMask62);
    cf >>= 62;
    cg >>= 62;
  }
  f.v[len - 1] = static_cast<std::int64_t>(cf);
  g.v[len - 1] = static_cast<std::int64_t>(cg);
}

// 1/a mod p, canonical; 0 maps to 0.
Fe fe_invert(const Fe& a) {
  std::uint64_t w[4];
  fe_to_words(w, a);
  Signed62 d{{0, 0, 0, 0, 0}}, e{{1, 0, 0, 0, 0}}, f = kP62;
  Signed62 g{{static_cast<std::int64_t>(w[0] & kMask62),
              static_cast<std::int64_t>((w[0] >> 62 | w[1] << 2) & kMask62),
              static_cast<std::int64_t>((w[1] >> 60 | w[2] << 4) & kMask62),
              static_cast<std::int64_t>((w[2] >> 58 | w[3] << 6) & kMask62),
              static_cast<std::int64_t>(w[3] >> 56)}};
  std::int64_t eta = -1;  // delta = 1
  int len = 5;            // limbs of f and g still in use
  for (;;) {
    Transition t;
    eta = divsteps_62(eta, static_cast<std::uint64_t>(f.v[0]), static_cast<std::uint64_t>(g.v[0]), t);
    update_de(d, e, t);
    update_fg(len, f, g, t);
    if (std::all_of(g.v, g.v + len, [](std::int64_t x) { return x == 0; })) break;
    // Once the top limbs of f and g hold only their signs, fold them
    // into the limbs below.
    const std::int64_t fn = f.v[len - 1], gn = g.v[len - 1];
    if (len > 1 && (fn == 0 || fn == -1) && (gn == 0 || gn == -1)) {
      f.v[len - 2] |= static_cast<std::int64_t>(static_cast<std::uint64_t>(fn) << 62);
      g.v[len - 2] |= static_cast<std::int64_t>(static_cast<std::uint64_t>(gn) << 62);
      --len;
    }
  }

  // f = ±1 now (or ±p for a = 0, where d stayed 0), so 1/a = d f.
  // Bring d from (-2p, p) to [0, p), negating it on the way if f < 0.
  const auto add_p_if_negative = [&d] {
    if (d.v[4] >= 0) return;
    for (int i = 0; i < 5; ++i) d.v[i] += kP62.v[i];
  };
  const auto carry = [&d] {
    for (int i = 0; i < 4; ++i) {
      d.v[i + 1] += d.v[i] >> 62;
      d.v[i] &= static_cast<std::int64_t>(kMask62);
    }
  };
  add_p_if_negative();
  if (f.v[len - 1] < 0) {
    for (std::int64_t& x : d.v) x = -x;
  }
  carry();
  add_p_if_negative();
  carry();

  const auto d0 = static_cast<std::uint64_t>(d.v[0]), d1 = static_cast<std::uint64_t>(d.v[1]),
             d2 = static_cast<std::uint64_t>(d.v[2]), d3 = static_cast<std::uint64_t>(d.v[3]),
             d4 = static_cast<std::uint64_t>(d.v[4]);
  return Fe{{d0 & kMask51, (d0 >> 51 | d1 << 11) & kMask51, (d1 >> 40 | d2 << 22) & kMask51,
             (d2 >> 29 | d3 << 33) & kMask51, (d3 >> 18 | d4 << 44) & kMask51}};
}

const Fe& fe_d() {
  // d = -121665/121666 mod p, computed once.
  static const Fe d = [] {
    const Fe num = fe_from_u64(121665);
    const Fe den = fe_from_u64(121666);
    return fe_neg(fe_mul(num, fe_invert(den)));
  }();
  return d;
}

const Fe& fe_2d() {
  static const Fe d2 = fe_add(fe_d(), fe_d());
  return d2;
}

const Fe& fe_sqrtm1() {
  // sqrt(-1) = 2^((p-1)/4); (p-1)/4 = 2^253 - 5.
  static const Fe s = [] {
    static const std::uint8_t kExp[32] = {
        0xfb, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
        0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
        0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x1f};
    return fe_pow(fe_from_u64(2), kExp);
  }();
  return s;
}

// ---------------------------------------------------------------------------
// Group arithmetic: extended twisted-Edwards coordinates (X:Y:Z:T).
// ---------------------------------------------------------------------------

struct Ge {
  Fe x, y, z, t;
};

Ge ge_identity() { return Ge{fe_zero(), fe_one(), fe_one(), fe_zero()}; }

// dbl-2008-hwcd for a = -1, arranged as in ref10 (every coordinate
// comes out negated, which is the same projective point).  Doubling
// reads only X, Y and Z, so a doubling whose result is only doubled
// again, compressed or identity-tested can pass need_t = false and
// skip the multiplication for T, which is then left zero.
//
// Y^2 - X^2 is the one operand carried: it is subtracted from 2Z^2, and
// uncarried its limbs (up to kDiffMax) could exceed fe_sub's bias.
Ge ge_double(const Ge& p, bool need_t = true) {
  static_assert(kDiffMax > kBias0, "uncarried, Y^2 - X^2 could not be subtracted");
  static_assert(kSumMax <= kBias0 && kSumMax + kBias <= kMulInMax,
                "Y^2 + X^2 can be subtracted, and 2Z^2 minus a carried value multiplied");
  const Fe xx = fe_sq(p.x);
  const Fe yy = fe_sq(p.y);
  const Fe zz = fe_sq(p.z);
  const Fe zz2 = fe_add(zz, zz);                           // 2Z^2
  const Fe sum = fe_add(yy, xx);                           // Y^2 + X^2
  const Fe diff = fe_carry(fe_sub(yy, xx));                // Y^2 - X^2
  const Fe xy2 = fe_sub(fe_sq(fe_add(p.x, p.y)), sum);     // 2XY
  const Fe f = fe_sub(zz2, diff);
  return Ge{fe_mul(xy2, f), fe_mul(sum, diff), fe_mul(diff, f),
            need_t ? fe_mul(xy2, sum) : fe_zero()};
}

Ge ge_neg(const Ge& p) { return Ge{fe_neg(p.x), p.y, p.z, fe_neg(p.t)}; }

bool ge_is_identity(const Ge& p) { return fe_is_zero(p.x) && fe_eq(p.y, p.z); }

// A point prepared for repeated addition: (Y+X, Y-X, Z, 2dT).  Saves
// two field additions and the 2d multiplication on every ge_add.
struct GeCached {
  Fe y_plus_x, y_minus_x, z, t2d;
};

GeCached ge_cache(const Ge& p) {
  return GeCached{fe_add(p.y, p.x), fe_sub(p.y, p.x), p.z, fe_mul(p.t, fe_2d())};
}

// The four addition formulas below carry nothing.  Their operands are
// point coordinates and products (at most kMulOutMax), table entries
// (cached ones: a product, or Y+X and Y-X of a point, at most kSumMax
// and kDiffMax; affine ones are carried, at most kCarryOutMax), and
// sums and differences of two products; every difference subtracts a
// coordinate or a product.  The contract's static_asserts show that
// each operand fits fe_mul and each subtrahend fe_sub's bias.

Ge ge_add_cached(const Ge& p, const GeCached& q) {
  const Fe a = fe_mul(fe_sub(p.y, p.x), q.y_minus_x);
  const Fe b = fe_mul(fe_add(p.y, p.x), q.y_plus_x);
  const Fe c = fe_mul(p.t, q.t2d);
  const Fe d = fe_mul(fe_add(p.z, p.z), q.z);
  const Fe e = fe_sub(b, a);
  const Fe f = fe_sub(d, c);
  const Fe g = fe_add(d, c);
  const Fe h = fe_add(b, a);
  return Ge{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

// p - q: addition with q negated, i.e. (Y+X, Y-X) swapped and 2dT sign
// flipped (which turns F = D - C, G = D + C into F = D + C, G = D - C).
Ge ge_sub_cached(const Ge& p, const GeCached& q) {
  const Fe a = fe_mul(fe_sub(p.y, p.x), q.y_plus_x);
  const Fe b = fe_mul(fe_add(p.y, p.x), q.y_minus_x);
  const Fe c = fe_mul(p.t, q.t2d);
  const Fe d = fe_mul(fe_add(p.z, p.z), q.z);
  const Fe e = fe_sub(b, a);
  const Fe f = fe_add(d, c);
  const Fe g = fe_sub(d, c);
  const Fe h = fe_add(b, a);
  return Ge{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

// An affine precomputed point (Z = 1 implicit): (y+x, y-x, 2dxy).
// Mixed addition against these drops one field multiplication (no Z2).
// Entries are stored carried (batch_to_precomp), so the lane backend
// can gather them straight into its products.
struct GePrecomp {
  Fe y_plus_x, y_minus_x, xy2d;
};

Ge ge_add_precomp(const Ge& p, const GePrecomp& q) {
  const Fe a = fe_mul(fe_sub(p.y, p.x), q.y_minus_x);
  const Fe b = fe_mul(fe_add(p.y, p.x), q.y_plus_x);
  const Fe c = fe_mul(p.t, q.xy2d);
  const Fe d = fe_add(p.z, p.z);
  const Fe e = fe_sub(b, a);
  const Fe f = fe_sub(d, c);
  const Fe g = fe_add(d, c);
  const Fe h = fe_add(b, a);
  return Ge{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

Ge ge_sub_precomp(const Ge& p, const GePrecomp& q) {
  const Fe a = fe_mul(fe_sub(p.y, p.x), q.y_plus_x);
  const Fe b = fe_mul(fe_add(p.y, p.x), q.y_minus_x);
  const Fe c = fe_mul(p.t, q.xy2d);
  const Fe d = fe_add(p.z, p.z);
  const Fe e = fe_sub(b, a);
  const Fe f = fe_add(d, c);
  const Fe g = fe_sub(d, c);
  const Fe h = fe_add(b, a);
  return Ge{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

// The encoding of p, given zi = 1/Z.
void ge_compress(std::uint8_t out[32], const Ge& p, const Fe& zi) {
  const Fe x = fe_mul(p.x, zi);
  const Fe y = fe_mul(p.y, zi);
  fe_to_bytes(out, y);
  if (fe_is_negative(x)) out[31] |= 0x80;
}

void ge_compress(std::uint8_t out[32], const Ge& p) { ge_compress(out, p, fe_invert(p.z)); }

bool ge_decompress(Ge& out, const std::uint8_t in[32]) {
  const bool x_sign = (in[31] & 0x80) != 0;
  const Fe y = fe_from_bytes(in);
  // Reject non-canonical y (>= p).  fe_from_bytes masks the sign bit, so
  // compare the canonical re-encoding with the masked input.
  std::uint8_t canon[32];
  fe_to_bytes(canon, y);
  std::uint8_t masked[32];
  std::memcpy(masked, in, 32);
  masked[31] &= 0x7f;
  if (std::memcmp(canon, masked, 32) != 0) return false;

  // x^2 = (y^2 - 1) / (d y^2 + 1)
  const Fe y2 = fe_sq(y);
  const Fe u = fe_carry(fe_sub(y2, fe_one()));  // carried: fe_neg subtracts it
  const Fe v = fe_add(fe_mul(fe_d(), y2), fe_one());
  // candidate x = u v^3 (u v^7)^((p-5)/8)
  const Fe v3 = fe_mul(fe_sq(v), v);
  const Fe v7 = fe_mul(fe_sq(v3), v);
  Fe x = fe_mul(fe_mul(u, v3), fe_pow_p58(fe_mul(u, v7)));

  const Fe vx2 = fe_mul(v, fe_sq(x));
  if (!fe_eq(vx2, u)) {
    if (fe_eq(vx2, fe_neg(u))) {
      x = fe_mul(x, fe_sqrtm1());
    } else {
      return false;
    }
  }
  if (fe_is_zero(x) && x_sign) return false;  // -0 is invalid
  if (fe_is_negative(x) != x_sign) x = fe_neg(x);

  out.x = x;
  out.y = y;
  out.z = fe_one();
  out.t = fe_mul(x, y);
  return true;
}

const Ge& ge_base() {
  static const Ge b = [] {
    // Compressed base point: y = 4/5, sign(x) = 0.
    static const std::uint8_t kB[32] = {
        0x58, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
        0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
        0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66};
    Ge g;
    const bool ok = ge_decompress(g, kB);
    if (!ok) __builtin_trap();
    return g;
  }();
  return b;
}

// ---------------------------------------------------------------------------
// Windowed-NAF scalar recoding and precomputed tables.
//
// All scalar multiplications here are variable-time, as the seed's
// double-and-add ladder already was; the simulation's threat model has
// no timing side channel.
// ---------------------------------------------------------------------------

// Digits of the per-point windows: odd, |digit| <= 15 (w = 5).
constexpr int kWindowDyn = 5;
constexpr int kDynTableSize = 1 << (kWindowDyn - 2);  // odd multiples 1P..15P
// Digits of the static base-point windows: odd, |digit| <= 63 (w = 7).
constexpr int kWindowBase = 7;
constexpr int kBaseTableSize = 1 << (kWindowBase - 2);  // odd multiples 1P..63P

// Verification splits every scalar at 2^128 and moves the high half
// onto a table of [2^128]P, so its chains are ~129 doublings long
// instead of ~253.
constexpr int kHalfBits = 128;
// wNAF digits of a scalar below 2^128 sit at positions 0..128.
constexpr int kNafLen = kHalfBits + 1;

// Width-w NAF of a scalar below 2^128: each naf[i] is zero or odd with
// |naf[i]| < 2^(w-1), nonzero digits are at least w positions apart,
// and sum naf[i] 2^i == scalar.  Scans only up to the scalar's top bit
// and returns one past its highest nonzero digit (0 for zero).
int wnaf(signed char naf[kNafLen], u128 scalar, int w) {
  std::memset(naf, 0, kNafLen);
  const int width = 1 << w;
  int pos = 0, carry = 0, top = 0;
  while (carry != 0 || (pos < kHalfBits && (scalar >> pos) != 0)) {
    const int bits =
        pos < kHalfBits ? static_cast<int>(static_cast<std::uint64_t>(scalar >> pos) & (width - 1))
                        : 0;
    const int window = carry + bits;
    if ((window & 1) == 0) {
      ++pos;
      continue;
    }
    carry = window >= width / 2 ? 1 : 0;
    naf[pos] = static_cast<signed char>(window - carry * width);
    top = pos + 1;
    pos += w;
  }
  return top;
}

// P, 3P, 5P, ..., (2n - 1)P.
void ge_odd_multiples(const Ge& p, Ge* out, int n) {
  const GeCached p2 = ge_cache(ge_double(p));
  out[0] = p;
  for (int i = 1; i < n; ++i) out[i] = ge_add_cached(out[i - 1], p2);
}

Ge ge_double_n(Ge p, int n) {
  for (int i = 0; i < n; ++i) p = ge_double(p, i == n - 1);
  return p;
}

// [8]P == O: P lies in the small-order (torsion) subgroup.
bool ge_is_small_order(const Ge& p) { return ge_is_identity(ge_double_n(p, 3)); }

// Odd multiples {P, 3P, ..., 15P} in cached form: the table of a point
// used in one chain only, where converting to affine would cost an
// inversion.
struct DynTable {
  GeCached mult[kDynTableSize];
};

DynTable ge_dyn_table(const Ge& p) {
  Ge pts[kDynTableSize];
  ge_odd_multiples(p, pts, kDynTableSize);
  DynTable t;
  for (int i = 0; i < kDynTableSize; ++i) t.mult[i] = ge_cache(pts[i]);
  return t;
}

// 1/Z of every point in zi[0..pts.size()) with one field inversion
// (Montgomery's trick: invert the product of every Z, then peel each
// factor off it).  The running products z_0 * ... * z_i wait in zi[i]
// until it is overwritten, so no other scratch space is needed.
void batch_invert_z(std::span<const Ge> pts, Fe* zi) {
  zi[0] = pts[0].z;
  for (std::size_t i = 1; i < pts.size(); ++i) zi[i] = fe_mul(zi[i - 1], pts[i].z);
  Fe inv = fe_invert(zi[pts.size() - 1]);
  for (std::size_t i = pts.size(); i-- > 1;) {
    zi[i] = fe_mul(inv, zi[i - 1]);
    inv = fe_mul(inv, pts[i].z);
  }
  zi[0] = inv;
}

// The affine forms of `pts`, with one field inversion.  Every limb is
// carried to at most kCarryOutMax: tighter than the scalar formulas
// need, and within what an IFMA multiplier reads.
void batch_to_precomp(std::span<const Ge> pts, GePrecomp* out) {
  std::vector<Fe> zi(pts.size());
  batch_invert_z(pts, zi.data());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const Fe x = fe_mul(pts[i].x, zi[i]);
    const Fe y = fe_mul(pts[i].y, zi[i]);
    out[i] = GePrecomp{fe_carry(fe_add(y, x)), fe_carry(fe_sub(y, x)),
                       fe_carry(fe_mul(fe_mul(x, y), fe_2d()))};
  }
}

// Odd multiples {P, 3P, ..., 63P} of a fixed point in affine form.
struct BaseTable {
  GePrecomp mult[kBaseTableSize];
};

BaseTable make_base_table(const Ge& p) {
  Ge pts[kBaseTableSize];
  ge_odd_multiples(p, pts, kBaseTableSize);
  BaseTable t;
  batch_to_precomp(pts, t.mult);
  return t;
}

// The tables of B and of [2^128]B, built once: verification reads them
// for the low and the high half of its base-point scalar.
const BaseTable& base_table() {
  static const BaseTable table = make_base_table(ge_base());
  return table;
}

const BaseTable& base128_table() {
  static const BaseTable table = make_base_table(ge_double_n(ge_base(), kHalfBits));
  return table;
}

// Fixed-base comb for [a]B, the multiply of signing and key expansion.
// Written in signed radix 256, a = sum e[i] 256^i with |e[i]| <= 128, so
//   [a]B = 256 * sum_{i odd} [e[i]] 65536^(i/2) B + sum_{i even} [e[i]] 65536^(i/2) B.
// One table row per power 65536^k holds its multiples 1..128, and a
// multiply is at most 32 mixed additions and 8 doublings, against the
// ~253 doublings of a base-point wNAF chain.
constexpr int kCombRows = 16;   // 65536^k B for k = 0..15
constexpr int kCombCols = 128;  // multiples 1..128 of each

// A comb table of P with `rows` rows of `cols` multiples: entry
// k * cols + j is (j + 1) 65536^k P in affine form, built with one
// batched inversion.  The projective points it is made from live on
// the heap, not on the caller's stack.
void build_comb(const Ge& p, int rows, int cols, GePrecomp* out) {
  std::vector<Ge> pts(static_cast<std::size_t>(rows * cols));
  Ge q = p;
  for (int k = 0; k < rows; ++k) {
    Ge* row = &pts[static_cast<std::size_t>(k * cols)];
    const GeCached qc = ge_cache(q);
    row[0] = q;
    for (int j = 1; j < cols; ++j) row[j] = ge_add_cached(row[j - 1], qc);
    if (k + 1 < rows) q = ge_double_n(q, 16);
  }
  batch_to_precomp(pts, out);
}

// B's 240 KiB table, built once.
const GePrecomp* comb_table() {
  static const std::vector<GePrecomp> table = [] {
    std::vector<GePrecomp> t(kCombRows * kCombCols);
    build_comb(ge_base(), kCombRows, kCombCols, t.data());
    return t;
  }();
  return table.data();
}

// A comb multiply on one accumulator.  A multiply is a list of terms
// [d]P, in digit groups each followed by its doublings; base_terms and
// warm_terms list them once for this and for the lanes' LaneDealer.
struct ScalarComb {
  Ge r = ge_identity();

  // r + [d]P or r - [-d]P, with row[j] = (j + 1)P; a zero digit adds
  // nothing.
  [[gnu::always_inline]] void add(const GePrecomp* row, int d) {
    if (d > 0) r = ge_add_precomp(r, row[d - 1]);
    else if (d < 0) r = ge_sub_precomp(r, row[-d - 1]);
  }

  void end_group(int doublings) { r = ge_double_n(r, doublings); }
};

// Signed radix-256 digits of a little-endian scalar below 2^255:
// e[0..30] in [-128, 127], e[31] in [0, 128], and sum e[i] 256^i ==
// scalar.  A byte plus the carry into it becomes d - 256 with a carry
// out when d >= 128; the top byte is below 128 and keeps its carry.
void radix256(int e[32], const std::uint8_t a[32]) {
  int carry = 0;
  for (int i = 0; i < 31; ++i) {
    const int d = a[i] + carry;
    carry = d >= 128 ? 1 : 0;
    e[i] = d - (carry << 8);
  }
  e[31] = a[31] + carry;
}

// [scalar]B for a scalar below 2^255, which clamped secret scalars
// and reduced nonces both are: the odd digits, eight doublings, then
// the even digits.
constexpr int kBaseTerms = 32;

template <class Comb>
void base_terms(Comb& comb, const std::uint8_t scalar[32]) {
  int e[32];
  radix256(e, scalar);
  const GePrecomp* ct = comb_table();
  for (int i = 1; i < 32; i += 2) comb.add(ct + (i / 2) * kCombCols, e[i]);
  comb.end_group(8);
  for (int i = 0; i < 32; i += 2) comb.add(ct + (i / 2) * kCombCols, e[i]);
  comb.end_group(0);
}

Ge ge_scalarmult_base(const std::uint8_t scalar[32]) {
  ScalarComb comb;
  base_terms(comb, scalar);
  return comb.r;
}

// ---------------------------------------------------------------------------
// Eight comb multiplies at once.  A lane pass runs up to eight
// independent multiplies in lockstep, one per 64-bit lane of the
// AVX-512 IFMA backend below: at each step every lane adds one table
// entry of its own, and the lanes double together between digit
// groups.  Full passes carry eight multiplies.  A remainder of r < 8
// spreads each multiply over 8 / r lanes (8 for one, 4 for two, 2 for
// three or four, 1 for five to seven): the lanes share out its terms,
// run the same doublings, and their partial points are summed
// afterwards.  Even a lone multiply on eight lanes beats the scalar
// comb (EXPERIMENTS.md, "Ed25519 on eight IFMA lanes").
// ---------------------------------------------------------------------------

constexpr int kLanes = 8;

// The entry a lane adds for a zero digit: the identity (1, 1, 0).  Lane
// steps address entries by byte offset from it, so a zeroed step adds
// the identity in every lane.
constexpr GePrecomp kIdentityPrecomp{Fe{{1, 0, 0, 0, 0}}, Fe{{1, 0, 0, 0, 0}},
                                     Fe{{0, 0, 0, 0, 0}}};
static_assert(sizeof(GePrecomp) == 15 * sizeof(std::uint64_t), "an entry is 15 gatherable limbs");

// One step of a pass: each lane's entry, whether the lane subtracts it,
// and how many doublings follow the addition.
struct LaneStep {
  std::uint64_t off[kLanes];  // byte offsets from kIdentityPrecomp
  std::uint8_t neg;           // bit i: lane i subtracts
  std::uint8_t doublings;
};

// A warm verify item is 96 terms (warm_terms), all on one lane when
// eight items share the pass.
constexpr int kMaxLaneSteps = 96;

// Runs `steps` from the identity in every lane and stores the eight
// lane points in out[0..8).
BMG_LANE_FN void lane_comb(const LaneStep* steps, int count, Ge out[kLanes]);

// Deals one multiply's terms to lanes [first, first + per) of a pass's
// steps: term t of a group goes to lane first + t % per at the group's
// step t / per.  Every group's size is a multiple of per.
class LaneDealer {
 public:
  LaneDealer(LaneStep* steps, int first, int per) : steps_(steps), first_(first), per_(per) {}

  // Adds [digit]P, with row[j] = (j + 1)P; a zero digit leaves the
  // identity entry in place.
  void add(const GePrecomp* row, int digit) {
    LaneStep& s = steps_[group_ + t_ / per_];
    const int lane = first_ + t_ % per_;
    ++t_;
    if (digit == 0) return;
    const GePrecomp* e = row + (digit > 0 ? digit : -digit) - 1;
    s.off[lane] = reinterpret_cast<std::uintptr_t>(e) -
                  reinterpret_cast<std::uintptr_t>(&kIdentityPrecomp);
    if (digit < 0) s.neg = static_cast<std::uint8_t>(s.neg | 1u << lane);
  }

  // Ends a digit group; `doublings` follow its last step.
  void end_group(int doublings) {
    group_ += t_ / per_;
    t_ = 0;
    steps_[group_ - 1].doublings = static_cast<std::uint8_t>(doublings);
  }

 private:
  LaneStep* steps_;
  int first_, per_;
  int group_ = 0;  // first step of the open group
  int t_ = 0;      // terms dealt into it
};

// out[i] for i < n: n comb multiplies of `terms` terms each.
// `deal(i, comb)` lists multiply i's terms in digit groups.
template <class Deal>
void run_lanes(std::size_t n, int terms, const Deal& deal, Ge* out) {
  LaneStep steps[kMaxLaneSteps];
  for (std::size_t i = 0; i < n; i += kLanes) {
    const std::size_t items = std::min<std::size_t>(n - i, kLanes);
    const int per = kLanes / static_cast<int>(items);
    const int count = terms / per;
    std::memset(steps, 0, sizeof(LaneStep) * static_cast<std::size_t>(count));
    for (std::size_t j = 0; j < items; ++j) {
      LaneDealer dealer(steps, static_cast<int>(j) * per, per);
      deal(i + j, dealer);
    }
    Ge lanes[kLanes];
    lane_comb(steps, count, lanes);
    for (std::size_t j = 0; j < items; ++j) {
      const Ge* part = lanes + j * static_cast<std::size_t>(per);
      Ge p = part[0];
      for (int q = 1; q < per; ++q) p = ge_add_cached(p, ge_cache(part[q]));
      out[i + j] = p;
    }
  }
}

// out[i] for i < n on `backend`, as run_lanes.
template <class Deal>
void run_combs(Backend backend, std::size_t n, int terms, const Deal& deal, Ge* out) {
  if (backend == Backend::kIfma) {
    run_lanes(n, terms, deal, out);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    ScalarComb comb;
    deal(i, comb);
    out[i] = comb.r;
  }
}

#if BMG_ED25519_LANES

// ---------------------------------------------------------------------------
// The AVX-512 IFMA backend.  A lane element is eight field elements in
// the radix 2^51 of Fe, limb i of each in one __m512i.  vpmadd52luq and
// vpmadd52huq add the low and the high 52 bits of the 104-bit product
// of two 52-bit limbs; in radix 2^51 the high half of column c belongs
// to column c + 1, doubled.  Columns 5..9 then fold onto 0..4 times 19,
// and one carry chain, as in fe_reduce_columns, leaves every limb at
// most kLaneMulOutMax.
//
// IFMA reads bits 0..51 of each multiplicand and ignores the rest, so
// a limb past 2^52 - 1 is truncated without a trace.  Unlike the scalar
// formulas, every sum and difference is therefore carried (fe8_carry)
// before it reaches a product; coordinates, products and the carried
// table entries go in as they are.  The static_asserts check each bound
// on its worst case in 128-bit arithmetic.
//
// Every function here carries the target attribute, and callers
// consult cpu_has_ifma() first.  They hold no lambdas: a lambda does not
// inherit its function's target.
// ---------------------------------------------------------------------------

constexpr u128 kLaneMulInMax = (u128{1} << 52) - 1;  // what a multiplier reads
constexpr u128 kLaneHiMax = kLaneMulInMax * kLaneMulInMax >> 52;

// Products per column c of a 5 x 5 limb product, c = 0..8.
constexpr u128 lane_products(int c) { return c < 0 || c > 8 ? 0 : c <= 4 ? c + 1 : 9 - c; }
// Column c: its low halves plus twice column c - 1's high halves.
constexpr u128 lane_column_max(int c) {
  return lane_products(c) * kLaneMulInMax + 2 * lane_products(c - 1) * kLaneHiMax;
}
// Column c of 0..4 once column c + 5 folds onto it.
constexpr u128 lane_fold_max(int c) { return lane_column_max(c) + 19 * lane_column_max(c + 5); }
// The carry into column c of the chain.
constexpr u128 lane_carry_in(int c) {
  return c == 0 ? 0 : (lane_fold_max(c - 1) + lane_carry_in(c - 1)) >> 51;
}
// Limb 0 once the carry out of column 4 folds back times 19; its own
// carry then lands on limb 1, the largest limb returned.
constexpr u128 kLaneFoldMax = kMask51 + 19 * ((lane_fold_max(4) + lane_carry_in(4)) >> 51);
constexpr u128 kLaneMulOutMax = kMask51 + (kLaneFoldMax >> 51);
static_assert(lane_fold_max(0) + lane_carry_in(0) <= kU64Max &&
                  lane_fold_max(1) + lane_carry_in(1) <= kU64Max &&
                  lane_fold_max(2) + lane_carry_in(2) <= kU64Max &&
                  lane_fold_max(3) + lane_carry_in(3) <= kU64Max &&
                  lane_fold_max(4) + lane_carry_in(4) <= kU64Max,
              "folded columns and their carries fit 64 bits");
static_assert(kLaneFoldMax < (u128{1} << 52) && kLaneMulOutMax == (u128{1} << 51),
              "fe8_mul and fe8_sq return limbs up to 2^51");

// fe8_carry's input: a sum of a product and 2Z (at most three
// products' worth), or a difference whose minuend is at most
// kLaneSumMax and whose subtrahend fits the 4p bias.
constexpr u128 kLaneSumMax = 2 * kLaneMulOutMax;
constexpr u128 kLaneCarryInMax = kLaneSumMax + kBias;
// Each limb keeps its low 51 bits and gains the carry out of the limb
// below; limb 0 gains 19 times limb 4's.
constexpr u128 kLaneCarryOutMax = kMask51 + 19 * (kLaneCarryInMax >> 51);
static_assert(kLaneSumMax + kLaneMulOutMax <= kLaneCarryInMax);
static_assert(kLaneMulOutMax <= kLaneMulInMax && kLaneCarryOutMax <= kLaneMulInMax &&
                  kCarryOutMax <= kLaneMulInMax,
              "coordinates, products, carried values and table entries fit a multiplier");
static_assert(kLaneMulOutMax <= kBias0 && kLaneCarryOutMax <= kBias0,
              "products and carried values can be subtracted");
static_assert(kLaneMulOutMax <= kMulOutMax, "lane points satisfy the scalar contract");

struct Fe8 {
  __m512i v[5];
};

struct Ge8 {
  Fe8 x, y, z, t;
};

BMG_LANE_INLINE __m512i lane_splat(std::uint64_t x) {
  return _mm512_set1_epi64(static_cast<long long>(x));
}

// Shifts by a constant, written with vector operators: GCC 12's
// _mm512_srli_epi64 and _mm512_slli_epi64 start from an undefined
// vector and draw a false -Wmaybe-uninitialized.
using U64x8 = std::uint64_t __attribute__((vector_size(64)));

BMG_LANE_INLINE __m512i shr(__m512i x, int n) { return (__m512i)((U64x8)x >> n); }
BMG_LANE_INLINE __m512i shl(__m512i x, int n) { return (__m512i)((U64x8)x << n); }

BMG_LANE_INLINE Fe8 fe8_small(std::uint64_t x) {
  const __m512i z = _mm512_setzero_si512();
  return Fe8{{lane_splat(x), z, z, z, z}};
}

BMG_LANE_INLINE __m512i times19(__m512i x) {
  return _mm512_add_epi64(_mm512_add_epi64(x, shl(x, 1)), shl(x, 4));
}

BMG_LANE_INLINE Fe8 fe8_add(const Fe8& a, const Fe8& b) {
  return Fe8{{_mm512_add_epi64(a.v[0], b.v[0]), _mm512_add_epi64(a.v[1], b.v[1]),
              _mm512_add_epi64(a.v[2], b.v[2]), _mm512_add_epi64(a.v[3], b.v[3]),
              _mm512_add_epi64(a.v[4], b.v[4])}};
}

// a - b + 4p, as fe_sub.
BMG_LANE_INLINE Fe8 fe8_sub(const Fe8& a, const Fe8& b) {
  const __m512i bias0 = lane_splat(kBias0), bias = lane_splat(kBias);
  return Fe8{{_mm512_sub_epi64(_mm512_add_epi64(a.v[0], bias0), b.v[0]),
              _mm512_sub_epi64(_mm512_add_epi64(a.v[1], bias), b.v[1]),
              _mm512_sub_epi64(_mm512_add_epi64(a.v[2], bias), b.v[2]),
              _mm512_sub_epi64(_mm512_add_epi64(a.v[3], bias), b.v[3]),
              _mm512_sub_epi64(_mm512_add_epi64(a.v[4], bias), b.v[4])}};
}

// One carry step on every limb at once: limbs up to kLaneCarryInMax
// come out at most kLaneCarryOutMax.
BMG_LANE_INLINE Fe8 fe8_carry(const Fe8& a) {
  const __m512i mask = lane_splat(kMask51);
  const __m512i c0 = shr(a.v[0], 51), c1 = shr(a.v[1], 51),
                c2 = shr(a.v[2], 51), c3 = shr(a.v[3], 51),
                c4 = shr(a.v[4], 51);
  return Fe8{{_mm512_add_epi64(_mm512_and_si512(a.v[0], mask), times19(c4)),
              _mm512_add_epi64(_mm512_and_si512(a.v[1], mask), c0),
              _mm512_add_epi64(_mm512_and_si512(a.v[2], mask), c1),
              _mm512_add_epi64(_mm512_and_si512(a.v[3], mask), c2),
              _mm512_add_epi64(_mm512_and_si512(a.v[4], mask), c3)}};
}

// b in the lanes of `mask`, a in the others.
BMG_LANE_INLINE Fe8 fe8_blend(__mmask8 mask, const Fe8& a, const Fe8& b) {
  return Fe8{{_mm512_mask_blend_epi64(mask, a.v[0], b.v[0]),
              _mm512_mask_blend_epi64(mask, a.v[1], b.v[1]),
              _mm512_mask_blend_epi64(mask, a.v[2], b.v[2]),
              _mm512_mask_blend_epi64(mask, a.v[3], b.v[3]),
              _mm512_mask_blend_epi64(mask, a.v[4], b.v[4])}};
}

// Low and high halves of the products in each of the nine columns.
struct Columns {
  __m512i lo[9], hi[9];
};

BMG_LANE_INLINE void mac(Columns& c, int col, __m512i a, __m512i b) {
  c.lo[col] = _mm512_madd52lo_epu64(c.lo[col], a, b);
  c.hi[col] = _mm512_madd52hi_epu64(c.hi[col], a, b);
}

BMG_LANE_INLINE Columns columns_zero() {
  const __m512i z = _mm512_setzero_si512();
  return Columns{{z, z, z, z, z, z, z, z, z}, {z, z, z, z, z, z, z, z, z}};
}

// Column k: its low halves plus twice the high halves of column k - 1.
BMG_LANE_INLINE __m512i column(const Columns& c, int k) {
  const __m512i hi = k == 0 ? _mm512_setzero_si512() : c.hi[k - 1];
  const __m512i lo = k == 9 ? _mm512_setzero_si512() : c.lo[k];
  return _mm512_add_epi64(lo, _mm512_add_epi64(hi, hi));
}

// The fold and carry chain shared by fe8_mul and fe8_sq.
BMG_LANE_INLINE Fe8 fe8_reduce(const Columns& c) {
  const __m512i mask = lane_splat(kMask51);
  __m512i t0 = _mm512_add_epi64(column(c, 0), times19(column(c, 5)));
  __m512i t1 = _mm512_add_epi64(column(c, 1), times19(column(c, 6)));
  __m512i t2 = _mm512_add_epi64(column(c, 2), times19(column(c, 7)));
  __m512i t3 = _mm512_add_epi64(column(c, 3), times19(column(c, 8)));
  __m512i t4 = _mm512_add_epi64(column(c, 4), times19(column(c, 9)));
  Fe8 r;
  __m512i k;
  r.v[0] = _mm512_and_si512(t0, mask); k = shr(t0, 51);
  t1 = _mm512_add_epi64(t1, k);
  r.v[1] = _mm512_and_si512(t1, mask); k = shr(t1, 51);
  t2 = _mm512_add_epi64(t2, k);
  r.v[2] = _mm512_and_si512(t2, mask); k = shr(t2, 51);
  t3 = _mm512_add_epi64(t3, k);
  r.v[3] = _mm512_and_si512(t3, mask); k = shr(t3, 51);
  t4 = _mm512_add_epi64(t4, k);
  r.v[4] = _mm512_and_si512(t4, mask); k = shr(t4, 51);
  r.v[0] = _mm512_add_epi64(r.v[0], times19(k));
  k = shr(r.v[0], 51);
  r.v[0] = _mm512_and_si512(r.v[0], mask);
  r.v[1] = _mm512_add_epi64(r.v[1], k);
  return r;
}

BMG_LANE_INLINE Fe8 fe8_mul(const Fe8& a, const Fe8& b) {
  Columns c = columns_zero();
  mac(c, 0, a.v[0], b.v[0]);
  mac(c, 1, a.v[0], b.v[1]); mac(c, 1, a.v[1], b.v[0]);
  mac(c, 2, a.v[0], b.v[2]); mac(c, 2, a.v[1], b.v[1]); mac(c, 2, a.v[2], b.v[0]);
  mac(c, 3, a.v[0], b.v[3]); mac(c, 3, a.v[1], b.v[2]); mac(c, 3, a.v[2], b.v[1]);
  mac(c, 3, a.v[3], b.v[0]);
  mac(c, 4, a.v[0], b.v[4]); mac(c, 4, a.v[1], b.v[3]); mac(c, 4, a.v[2], b.v[2]);
  mac(c, 4, a.v[3], b.v[1]); mac(c, 4, a.v[4], b.v[0]);
  mac(c, 5, a.v[1], b.v[4]); mac(c, 5, a.v[2], b.v[3]); mac(c, 5, a.v[3], b.v[2]);
  mac(c, 5, a.v[4], b.v[1]);
  mac(c, 6, a.v[2], b.v[4]); mac(c, 6, a.v[3], b.v[3]); mac(c, 6, a.v[4], b.v[2]);
  mac(c, 7, a.v[3], b.v[4]); mac(c, 7, a.v[4], b.v[3]);
  mac(c, 8, a.v[4], b.v[4]);
  return fe8_reduce(c);
}

BMG_LANE_INLINE void twice(Columns& c, int col) {
  c.lo[col] = _mm512_add_epi64(c.lo[col], c.lo[col]);
  c.hi[col] = _mm512_add_epi64(c.hi[col], c.hi[col]);
}

// a^2 with 15 products: the cross terms a_i a_j are summed once and
// doubled, which gives fe8_mul(a, a)'s columns exactly.
BMG_LANE_INLINE Fe8 fe8_sq(const Fe8& a) {
  Columns c = columns_zero();
  mac(c, 1, a.v[0], a.v[1]);
  mac(c, 2, a.v[0], a.v[2]);
  mac(c, 3, a.v[0], a.v[3]); mac(c, 3, a.v[1], a.v[2]);
  mac(c, 4, a.v[0], a.v[4]); mac(c, 4, a.v[1], a.v[3]);
  mac(c, 5, a.v[1], a.v[4]); mac(c, 5, a.v[2], a.v[3]);
  mac(c, 6, a.v[2], a.v[4]);
  mac(c, 7, a.v[3], a.v[4]);
  twice(c, 1); twice(c, 2); twice(c, 3); twice(c, 4); twice(c, 5); twice(c, 6); twice(c, 7);
  mac(c, 0, a.v[0], a.v[0]);
  mac(c, 2, a.v[1], a.v[1]);
  mac(c, 4, a.v[2], a.v[2]);
  mac(c, 6, a.v[3], a.v[3]);
  mac(c, 8, a.v[4], a.v[4]);
  return fe8_reduce(c);
}

// ge_double lane-wise, with every sum and difference carried.
BMG_LANE_INLINE Ge8 ge8_double(const Ge8& p, bool need_t) {
  const Fe8 xx = fe8_sq(p.x);
  const Fe8 yy = fe8_sq(p.y);
  const Fe8 zz = fe8_sq(p.z);
  const Fe8 zz2 = fe8_add(zz, zz);                                          // 2Z^2
  const Fe8 sum = fe8_carry(fe8_add(yy, xx));                               // Y^2 + X^2
  const Fe8 diff = fe8_carry(fe8_sub(yy, xx));                              // Y^2 - X^2
  const Fe8 xy2 = fe8_carry(fe8_sub(fe8_sq(fe8_carry(fe8_add(p.x, p.y))), sum));  // 2XY
  const Fe8 f = fe8_carry(fe8_sub(zz2, diff));
  return Ge8{fe8_mul(xy2, f), fe8_mul(sum, diff), fe8_mul(diff, f),
             need_t ? fe8_mul(xy2, sum) : fe8_small(0)};
}

// Limb q of the 15 of every lane's entry, gathered at byte offset
// `off` from kIdentityPrecomp.
BMG_LANE_INLINE __m512i gather_limb(__m512i off, int q) {
  const auto* base = reinterpret_cast<const unsigned char*>(&kIdentityPrecomp) + 8 * q;
  return _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), 0xFF, off, base, 1);
}

// ge_add_precomp lane-wise, and ge_sub_precomp in the lanes of `neg`:
// there y+x and y-x trade places, and so do D + C and D - C.
BMG_LANE_INLINE Ge8 ge8_add_entries(const Ge8& p, __m512i off, __mmask8 neg) {
  Fe8 ypx, ymx, xy2d;
  ypx.v[0] = gather_limb(off, 0);
  ypx.v[1] = gather_limb(off, 1);
  ypx.v[2] = gather_limb(off, 2);
  ypx.v[3] = gather_limb(off, 3);
  ypx.v[4] = gather_limb(off, 4);
  ymx.v[0] = gather_limb(off, 5);
  ymx.v[1] = gather_limb(off, 6);
  ymx.v[2] = gather_limb(off, 7);
  ymx.v[3] = gather_limb(off, 8);
  ymx.v[4] = gather_limb(off, 9);
  xy2d.v[0] = gather_limb(off, 10);
  xy2d.v[1] = gather_limb(off, 11);
  xy2d.v[2] = gather_limb(off, 12);
  xy2d.v[3] = gather_limb(off, 13);
  xy2d.v[4] = gather_limb(off, 14);
  const Fe8 a = fe8_mul(fe8_carry(fe8_sub(p.y, p.x)), fe8_blend(neg, ymx, ypx));
  const Fe8 b = fe8_mul(fe8_carry(fe8_add(p.y, p.x)), fe8_blend(neg, ypx, ymx));
  const Fe8 c = fe8_mul(p.t, xy2d);
  const Fe8 d = fe8_add(p.z, p.z);
  const Fe8 e = fe8_carry(fe8_sub(b, a));
  const Fe8 d_minus_c = fe8_carry(fe8_sub(d, c));
  const Fe8 d_plus_c = fe8_carry(fe8_add(d, c));
  const Fe8 f = fe8_blend(neg, d_minus_c, d_plus_c);
  const Fe8 g = fe8_blend(neg, d_plus_c, d_minus_c);
  const Fe8 h = fe8_carry(fe8_add(b, a));
  return Ge8{fe8_mul(e, f), fe8_mul(g, h), fe8_mul(f, g), fe8_mul(e, h)};
}

// Coordinate `coord` of out[0..8) from the lanes of `a`.
BMG_LANE_INLINE void fe8_store(const Fe8& a, Ge out[kLanes], Fe Ge::*coord) {
  alignas(64) std::uint64_t w[5][kLanes];
  for (int i = 0; i < 5; ++i) _mm512_store_si512(w[i], a.v[i]);
  for (int lane = 0; lane < kLanes; ++lane)
    for (int i = 0; i < 5; ++i) (out[lane].*coord).v[i] = w[i][lane];
}

BMG_LANE_FN void lane_comb(const LaneStep* steps, int count, Ge out[kLanes]) {
  Ge8 r{fe8_small(0), fe8_small(1), fe8_small(1), fe8_small(0)};
  for (int s = 0; s < count; ++s) {
    r = ge8_add_entries(r, _mm512_loadu_si512(steps[s].off), steps[s].neg);
    for (int d = 0; d < steps[s].doublings; ++d) r = ge8_double(r, d + 1 == steps[s].doublings);
  }
  fe8_store(r.x, out, &Ge::x);
  fe8_store(r.y, out, &Ge::y);
  fe8_store(r.z, out, &Ge::z);
  fe8_store(r.t, out, &Ge::t);
}

bool cpu_has_ifma() {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512ifma");
  }();
  return ok;
}

#else  // !BMG_ED25519_LANES

void lane_comb(const LaneStep*, int, Ge*) { __builtin_trap(); }

bool cpu_has_ifma() { return false; }

#endif  // BMG_ED25519_LANES

// ---------------------------------------------------------------------------
// Scalar arithmetic mod L = 2^252 + 27742317777372353535851937790883648493.
// ---------------------------------------------------------------------------

struct U256 {
  std::uint64_t w[4];  // little-endian words
};

const U256 kL = {{0x5812631A5CF5D3EDULL, 0x14DEF9DEA2F79CD6ULL, 0x0000000000000000ULL,
                  0x1000000000000000ULL}};

int u256_cmp(const U256& a, const U256& b) {
  for (int i = 3; i >= 0; --i) {
    if (a.w[i] < b.w[i]) return -1;
    if (a.w[i] > b.w[i]) return 1;
  }
  return 0;
}

void u256_sub_inplace(U256& a, const U256& b) {
  unsigned __int128 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const unsigned __int128 d =
        (unsigned __int128)a.w[i] - b.w[i] - (std::uint64_t)borrow;
    a.w[i] = (std::uint64_t)d;
    borrow = (d >> 64) & 1;
  }
}

// r = (r << 1) | bit, assuming r < L (so no overflow past 2^253).
void u256_shl1_or(U256& r, int bit) {
  std::uint64_t carry = (std::uint64_t)bit;
  for (int i = 0; i < 4; ++i) {
    const std::uint64_t next = r.w[i] >> 63;
    r.w[i] = (r.w[i] << 1) | carry;
    carry = next;
  }
}

// Reduce an arbitrary-size little-endian byte string mod L via binary
// long division.  Slow (one shift/compare/subtract per bit) — kept as
// the fallback for odd lengths and to bootstrap the Montgomery
// constants below.
U256 sc_reduce_bytes_slow(const std::uint8_t* data, std::size_t len) {
  U256 r = {{0, 0, 0, 0}};
  for (std::size_t byte = len; byte-- > 0;) {
    for (int bit = 7; bit >= 0; --bit) {
      u256_shl1_or(r, (data[byte] >> bit) & 1);
      if (u256_cmp(r, kL) >= 0) u256_sub_inplace(r, kL);
    }
  }
  return r;
}

U256 u256_load(const std::uint8_t* p) {
  U256 r;
  for (int i = 0; i < 4; ++i) {
    std::uint64_t w = 0;
    for (int j = 7; j >= 0; --j)
      w = (w << 8) | p[static_cast<std::size_t>(i * 8 + j)];
    r.w[i] = w;
  }
  return r;
}

U256 sc_add(const U256& a, const U256& b);

// ---------------------------------------------------------------------------
// Montgomery arithmetic mod L with R = 2^256.  The hot scalar ops —
// the k = SHA512(...) reduction in every verify and the z_i products
// of batch verification — each needed a 512-iteration binary division
// before; one CIOS pass is ~32 word multiplies instead.
// ---------------------------------------------------------------------------

// -L^{-1} mod 2^64, by Newton iteration (doubles correct bits, and any
// odd x is its own inverse mod 8, so five rounds reach 64 bits).
std::uint64_t mont_n0() {
  static const std::uint64_t n0 = [] {
    std::uint64_t x = kL.w[0];
    for (int i = 0; i < 5; ++i) x *= 2 - kL.w[0] * x;
    return ~x + 1;
  }();
  return n0;
}

// R^2 mod L = 2^512 mod L, bootstrapped once through the slow reducer.
const U256& mont_r2() {
  static const U256 r2 = [] {
    std::uint8_t n[65] = {};
    n[64] = 1;
    return sc_reduce_bytes_slow(n, 65);
  }();
  return r2;
}

// CIOS Montgomery product: a * b * R^{-1} mod L.  Requires b < L and
// a < 2^256 (the intermediate then stays below 2L, so one conditional
// subtraction canonicalises).
U256 mont_mul(const U256& a, const U256& b) {
  std::uint64_t t[6] = {};
  for (int i = 0; i < 4; ++i) {
    unsigned __int128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const unsigned __int128 cur =
          (unsigned __int128)a.w[i] * b.w[j] + t[j] + (std::uint64_t)carry;
      t[j] = (std::uint64_t)cur;
      carry = cur >> 64;
    }
    unsigned __int128 top = (unsigned __int128)t[4] + (std::uint64_t)carry;
    t[4] = (std::uint64_t)top;
    t[5] = (std::uint64_t)(top >> 64);

    const std::uint64_t m = t[0] * mont_n0();
    carry = ((unsigned __int128)m * kL.w[0] + t[0]) >> 64;
    for (int j = 1; j < 4; ++j) {
      const unsigned __int128 cur =
          (unsigned __int128)m * kL.w[j] + t[j] + (std::uint64_t)carry;
      t[j - 1] = (std::uint64_t)cur;
      carry = cur >> 64;
    }
    top = (unsigned __int128)t[4] + (std::uint64_t)carry;
    t[3] = (std::uint64_t)top;
    t[4] = t[5] + (std::uint64_t)(top >> 64);
  }
  U256 r = {{t[0], t[1], t[2], t[3]}};
  if (t[4] != 0 || u256_cmp(r, kL) >= 0) u256_sub_inplace(r, kL);
  return r;
}

const U256 kOne = {{1, 0, 0, 0}};

U256 sc_reduce_bytes(const std::uint8_t* data, std::size_t len) {
  if (len == 32) {
    // Value < 2^256 < 16L: a handful of conditional subtractions.
    U256 r = u256_load(data);
    while (u256_cmp(r, kL) >= 0) u256_sub_inplace(r, kL);
    return r;
  }
  if (len == 64) {
    // N = hi*R + lo, so N*R^{-1} = hi + lo*R^{-1}; one more Montgomery
    // product by R^2 multiplies the R back in.
    const U256 lo = u256_load(data);
    U256 hi = u256_load(data + 32);
    while (u256_cmp(hi, kL) >= 0) u256_sub_inplace(hi, kL);
    const U256 u = sc_add(hi, mont_mul(lo, kOne));
    return mont_mul(u, mont_r2());
  }
  return sc_reduce_bytes_slow(data, len);
}

U256 sc_add(const U256& a, const U256& b) {
  U256 r;
  unsigned __int128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    const unsigned __int128 s = (unsigned __int128)a.w[i] + b.w[i] + (std::uint64_t)carry;
    r.w[i] = (std::uint64_t)s;
    carry = s >> 64;
  }
  if (u256_cmp(r, kL) >= 0) u256_sub_inplace(r, kL);
  return r;
}

U256 sc_mul(const U256& a, const U256& b) {
  // Two CIOS passes: abR^{-1}, then multiply the R back in via R^2.
  return mont_mul(mont_mul(a, b), mont_r2());
}

void sc_to_bytes(std::uint8_t out[32], const U256& a) {
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 8; ++j)
      out[i * 8 + j] = (std::uint8_t)(a.w[i] >> (8 * j));
}

U256 sc_from_bytes(const std::uint8_t in[32]) {
  U256 r;
  for (int i = 0; i < 4; ++i) {
    std::uint64_t v = 0;
    for (int j = 7; j >= 0; --j) v = (v << 8) | in[i * 8 + j];
    r.w[i] = v;
  }
  return r;
}

bool sc_is_canonical(const std::uint8_t in[32]) {
  const U256 s = sc_from_bytes(in);
  return u256_cmp(s, kL) < 0;
}

// ---------------------------------------------------------------------------

void clamp(std::uint8_t a[32]) {
  a[0] &= 248;
  a[31] &= 127;
  a[31] |= 64;
}

Digest512 hash3(const Sha512Parts& parts) {
  Sha512 h;
  for (const ByteView part : parts) h.update(part);
  return h.finish();
}

// out(i, SHA-512 of parts(i)) for every i < n.  On the lane backend
// the messages that fit one block hash eight at a time, and a short
// pass still runs on the eight lanes; longer messages, and every
// message on the scalar backend, go through hash3.
template <class Parts, class Out>
void hash_each(Backend backend, std::size_t n, const Parts& parts, const Out& out) {
  Sha512Parts pass[kLanes];
  std::size_t index[kLanes];
  std::size_t m = 0;
  const auto run_pass = [&] {
    Digest512 digests[kLanes];
    crypto::detail::sha512_lanes({pass, m}, digests);
    for (std::size_t j = 0; j < m; ++j) out(index[j], digests[j]);
    m = 0;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const Sha512Parts p = parts(i);
    if (backend == Backend::kIfma &&
        p[0].size() + p[1].size() + p[2].size() <= crypto::detail::kSha512OneBlockMax) {
      pass[m] = p;
      index[m++] = i;
      if (m == kLanes) run_pass();
    } else {
      out(i, hash3(p));
    }
  }
  if (m > 0) run_pass();
}

}  // namespace

void detail::fe_invert_bytes(std::uint8_t out[32], const std::uint8_t in[32]) {
  fe_to_bytes(out, fe_invert(fe_from_bytes(in)));
}

ExpandedKey expand(const Seed& seed) {
  const Digest512 h = Sha512::digest(ByteView{seed});
  ExpandedKey key{};
  std::memcpy(key.scalar.data(), h.data(), 32);
  clamp(key.scalar.data());
  const U256 a = sc_reduce_bytes(key.scalar.data(), 32);
  std::copy(a.w, a.w + 4, key.scalar_mod_l.begin());
  std::memcpy(key.prefix.data(), h.data() + 32, 32);
  ge_compress(key.pub.data(), ge_scalarmult_base(key.scalar.data()));
  return key;
}

namespace {

// ---------------------------------------------------------------------------
// Verification: one Straus loop over table terms with 128-bit scalars.
// ---------------------------------------------------------------------------

u128 sc_lo(const U256& a) { return (u128)a.w[1] << 64 | a.w[0]; }
u128 sc_hi(const U256& a) { return (u128)a.w[3] << 64 | a.w[2]; }

// One term [scalar]P of a multi-scalar product, scalar below 2^128:
// the scalar's wNAF digits and P's odd multiples, affine or cached.
struct StrausTerm {
  signed char naf[kNafLen];
  const GePrecomp* affine;
  const GeCached* cached;
};

// Points `t` at `table`; returns one past the top digit.
int set_term(StrausTerm& t, u128 scalar, const GePrecomp* table, int w) {
  t.affine = table;
  t.cached = nullptr;
  return wnaf(t.naf, scalar, w);
}

int set_term(StrausTerm& t, u128 scalar, const GeCached* table, int w) {
  t.affine = nullptr;
  t.cached = table;
  return wnaf(t.naf, scalar, w);
}

// The sum of every term, whose digits all sit below position `top`:
// one doubling chain shared by all of them.
Ge ge_straus(std::span<const StrausTerm> terms, int top) {
  Ge r = ge_identity();
  for (int i = top - 1; i >= 0; --i) {
    const bool adds = std::any_of(terms.begin(), terms.end(),
                                  [i](const StrausTerm& t) { return t.naf[i] != 0; });
    r = ge_double(r, adds || i == 0);
    for (const StrausTerm& t : terms) {
      const int d = t.naf[i];
      if (d > 0) {
        r = t.affine ? ge_add_precomp(r, t.affine[d >> 1]) : ge_add_cached(r, t.cached[d >> 1]);
      } else if (d < 0) {
        r = t.affine ? ge_sub_precomp(r, t.affine[-d >> 1]) : ge_sub_cached(r, t.cached[-d >> 1]);
      }
    }
  }
  return r;
}

// Odd multiples of -A and of -[2^128]A in affine form (1,920 bytes),
// which the low and high halves of [k]A read.
struct KeyTables {
  GePrecomp mult[2 * kDynTableSize];

  const GePrecomp* neg_a() const { return mult; }
  const GePrecomp* neg_a128() const { return mult + kDynTableSize; }
};

void build_key_tables(const Ge& a, KeyTables& out) {
  Ge pts[2 * kDynTableSize];
  const Ge neg_a = ge_neg(a);
  ge_odd_multiples(neg_a, pts, kDynTableSize);
  ge_odd_multiples(ge_double_n(neg_a, kHalfBits), pts + kDynTableSize, kDynTableSize);
  batch_to_precomp(pts, out.mult);
}

// A warm key's signed radix-16 comb of -A: entry m * kKeyCombCols + j
// is (j + 1) 65536^m (-A) in affine form (15 KiB).
constexpr int kKeyCombRows = 16;  // 65536^m (-A) for m = 0..15
constexpr int kKeyCombCols = 8;   // multiples 1..8 of each

struct KeyComb {
  GePrecomp mult[kKeyCombRows * kKeyCombCols];
};

// `pub` is a valid key encoding: its thread's memo decoded it.
void build_key_comb(const PublicKeyBytes& pub, KeyComb& out) {
  Ge a{};
  ge_decompress(a, pub.data());
  build_comb(ge_neg(a), kKeyCombRows, kKeyCombCols, out.mult);
}

// Signed radix-16 digits of a scalar below 2^253: e[0..62] in [-8, 7],
// e[63] in [0, 2], and sum e[i] 16^i == k.
void radix16(int e[64], const U256& k) {
  int carry = 0;
  for (int i = 0; i < 63; ++i) {
    const int d = static_cast<int>((k.w[i / 16] >> (4 * (i % 16))) & 15) + carry;
    carry = d >= 8 ? 1 : 0;
    e[i] = d - (carry << 4);
  }
  e[63] = static_cast<int>(k.w[3] >> 60) + carry;
}

// [S]B - [k]A for a warm key, S and k below L.  k's digit i = 4m + c
// is row m of the comb of -A, so
//   [k](-A) = sum_c 16^c sum_m [e[4m + c]] 65536^m (-A),
// added by c from 3 down to 0 with four doublings between groups.
// S's odd radix-256 digits join group 2, eight doublings before the
// end, and its even digits group 0, as in base_terms.  At most 96
// mixed additions and 12 doublings.
constexpr int kWarmTerms = 4 * kKeyCombRows + 32;
static_assert(kWarmTerms == kMaxLaneSteps);

template <class Comb>
void warm_terms(Comb& comb, const KeyComb& key, const std::uint8_t s[32], const U256& k) {
  int ek[64];
  int es[32];
  radix16(ek, k);
  radix256(es, s);
  const GePrecomp* ct = comb_table();
  for (int c = 3; c >= 0; --c) {
    for (int m = 0; m < kKeyCombRows; ++m) comb.add(key.mult + m * kKeyCombCols, ek[4 * m + c]);
    if (c == 2 || c == 0)
      for (int i = c / 2; i < 32; i += 2) comb.add(ct + (i / 2) * kCombCols, es[i]);
    comb.end_group(c > 0 ? 4 : 0);
  }
}

// The slot a key hashes to in the memo and the comb cache, each a
// linear-probing table at most half full.
constexpr std::size_t kKeySlots = 2 * kKeyMemoCapacity;

std::size_t key_slot(const PublicKeyBytes& pub) {
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < 32; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, pub.data() + i, 8);
    h = (h ^ w) * 0x9E3779B97F4A7C15ULL;
  }
  return static_cast<std::size_t>(h >> 32) % kKeySlots;
}

// The combs of warm keys, one copy for every thread: an insert-only
// table of at most kKeyMemoCapacity entries.  An entry is complete
// before a release compare-exchange publishes its pointer, and it never
// changes or moves after, so a reader's acquire load sees it whole and
// takes no lock.  Entries live until the process exits, since any
// thread's memo may point into one.
class CombCache {
 public:
  // The comb of `pub`, if a thread has published it.
  const KeyComb* find(const PublicKeyBytes& pub) const {
    for (std::size_t s = key_slot(pub);; s = (s + 1) % kKeySlots) {
      const Entry* e = slots_[s].load(std::memory_order_acquire);
      if (e == nullptr) return nullptr;
      if (e->pub == pub) return &e->comb;
    }
  }

  // Builds and publishes the comb of `pub`, a valid key encoding, and
  // returns it or the copy another thread published first; null once
  // the cache is full.
  const KeyComb* insert(const PublicKeyBytes& pub) {
    if (size_.fetch_add(1, std::memory_order_relaxed) >= kKeyMemoCapacity) {
      size_.fetch_sub(1, std::memory_order_relaxed);
      return nullptr;
    }
    auto fresh = std::make_unique<Entry>();
    fresh->pub = pub;
    build_key_comb(pub, fresh->comb);
    // Slots only ever go from null to published, so a key is never
    // published twice: a second builder meets the first copy on its
    // probe path.
    for (std::size_t s = key_slot(pub);; s = (s + 1) % kKeySlots) {
      const Entry* e = nullptr;
      if (slots_[s].compare_exchange_strong(e, fresh.get(), std::memory_order_release,
                                            std::memory_order_acquire))
        return &fresh.release()->comb;
      if (e->pub == pub) {
        size_.fetch_sub(1, std::memory_order_relaxed);
        return &e->comb;
      }
    }
  }

 private:
  struct Entry {
    PublicKeyBytes pub;
    KeyComb comb;
  };

  std::array<std::atomic<const Entry*>, kKeySlots> slots_{};
  std::atomic<std::size_t> size_{0};  // entries published or being built
};

CombCache& comb_cache() {
  static CombCache cache;
  return cache;
}

// A decoded key: its w = 5 tables, and its comb once it is warm.
struct VerifyKey {
  KeyTables tables;
  const KeyComb* comb = nullptr;
};

// One thread's decoded public keys: whether the 32 bytes decompress
// canonically and, if so, their KeyTables.  Light clients check the
// same validator keys on every header, so a key is decoded and its
// 128 doublings are paid once per thread.  Entries are stored in one
// block of kKeyMemoCapacity allocated on first use; make_room clears
// the memo wholesale, and only at the top of a call, so no table a
// call holds is freed under it.  Each thread owns its memo: no locks.
// An entry also counts its key's uses until it finds the key's comb.
class KeyMemo {
 public:
  // Clears the memo unless `n` more keys fit.
  void make_room(std::size_t n) {
    if (entries_.size() + n <= kKeyMemoCapacity) return;
    entries_.clear();
    slots_.fill(0);
  }

  // The tables of `pub`, or null if it is not a valid point encoding.
  // A new key needs room, which the caller made with make_room.
  const VerifyKey* find(const PublicKeyBytes& pub) {
    std::size_t s = key_slot(pub);
    for (; slots_[s] != 0; s = (s + 1) % kKeySlots) {
      Entry& e = entries_[slots_[s] - 1];
      if (e.pub == pub) return use(e);
    }
    if (entries_.capacity() == 0) entries_.reserve(kKeyMemoCapacity);
    Entry& e = entries_.emplace_back();
    e.pub = pub;
    Ge a{};
    e.valid = ge_decompress(a, pub.data());
    if (e.valid) build_key_tables(a, e.key.tables);
    slots_[s] = static_cast<std::uint16_t>(entries_.size());
    return use(e);
  }

 private:
  struct Entry {
    PublicKeyBytes pub;
    bool valid;
    std::size_t uses = 0;
    VerifyKey key;
  };

  // Counts a use of a key without a comb and takes the comb once a
  // thread has published it, building it on the kWarmKeyUses-th use.
  // On a 4-vCPU Xeon VM a build costs about 53 µs and each use on the
  // comb saves 5.4-8.7 µs.
  static const VerifyKey* use(Entry& e) {
    if (!e.valid) return nullptr;
    if (e.key.comb == nullptr) {
      e.key.comb = comb_cache().find(e.pub);
      if (e.key.comb == nullptr && e.uses < kWarmKeyUses && ++e.uses == kWarmKeyUses)
        e.key.comb = comb_cache().insert(e.pub);
    }
    return &e.key;
  }

  std::vector<Entry> entries_;
  std::array<std::uint16_t, kKeySlots> slots_{};  // 1 + index into entries_; 0 is empty
};

KeyMemo& key_memo() {
  thread_local KeyMemo memo;
  return memo;
}

// The message of k = SHA512(R || A || msg) mod L: one block on the
// lanes while msg is at most 47 bytes.
Sha512Parts challenge_parts(const PublicKeyBytes& pub, ByteView msg, const SignatureBytes& sig) {
  return {ByteView{sig.data(), 32}, ByteView{pub}, msg};
}

U256 reduce_hash(const Digest512& h) { return sc_reduce_bytes(h.data(), h.size()); }

// The cofactored check [8][S]B == [8]R + [8][k]A (RFC 8032 §5.1.7),
// given p = [S]B - [k]A and its encoding.  If p compresses to R's
// bytes the equation holds, and no invalid or non-canonical encoding
// equals a compression, so only a mismatch decodes R and tests whether
// the difference is small-order.
bool matches_r(const Ge& p, const std::uint8_t p_bytes[32], const std::uint8_t r_bytes[32]) {
  if (std::memcmp(p_bytes, r_bytes, 32) == 0) return true;
  Ge r{};
  if (!ge_decompress(r, r_bytes)) return false;
  return ge_is_small_order(ge_sub_cached(p, ge_cache(r)));
}

// The cofactored check for a canonical S and a decoded key without a
// comb.  [S]B - [k]A comes from one chain over four terms: S and k
// split at 2^128 onto B, [2^128]B, -A and -[2^128]A.
bool check_single(const KeyTables& key, const U256& s, const U256& k,
                  const std::uint8_t r_bytes[32]) {
  StrausTerm terms[4];
  const int top = std::max({set_term(terms[0], sc_lo(s), base_table().mult, kWindowBase),
                            set_term(terms[1], sc_hi(s), base128_table().mult, kWindowBase),
                            set_term(terms[2], sc_lo(k), key.neg_a(), kWindowDyn),
                            set_term(terms[3], sc_hi(k), key.neg_a128(), kWindowDyn)});
  const Ge p = ge_straus(terms, top);
  std::uint8_t p_bytes[32];
  ge_compress(p_bytes, p);
  return matches_r(p, p_bytes, r_bytes);
}

/// The checks of one run of at most kKeyMemoCapacity items, writing
/// 0/1 verdicts into `ok[0..items.size())`.  Items whose key has a
/// comb are checked one by one against R's bytes, with one inversion
/// for all of them.  The others share a random-linear-combination
/// batch check.  A run's verdicts equal per-item `verify` results
/// whether the combined equation passes (all candidates valid) or
/// fails (per-item fallback), so the bitmap does not depend on where
/// run boundaries fall or on which keys are warm.
void verify_batch_run(std::span<const VerifyItem> items, std::uint8_t* ok, Backend backend) {
  for (std::size_t i = 0; i < items.size(); ++i) ok[i] = 0;
  if (items.empty()) return;
  KeyMemo& memo = key_memo();
  memo.make_room(items.size());

  // Pre-checks: canonical S and a decodable key.  Items failing here
  // are definitively invalid.  A warm item's P = [S]B - [k]A comes
  // from the combs; the rest are candidates for the combined equation.
  struct Candidate {
    std::size_t idx;
    const KeyTables* key;
    U256 s;
    U256 k;
    Ge r;
  };
  struct Warm {
    std::size_t idx;
    const KeyComb* comb;
    U256 k;
  };
  thread_local std::vector<Candidate> cand;
  thread_local std::vector<Warm> warm;
  thread_local std::vector<Ge> warm_p;
  cand.clear();
  warm.clear();
  cand.reserve(items.size());
  warm.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const VerifyItem& it = items[i];
    if (!sc_is_canonical(it.sig.data() + 32)) continue;
    const VerifyKey* key = memo.find(it.pub);
    if (key == nullptr) continue;
    if (key->comb != nullptr) {
      warm.push_back({i, key->comb, {}});
    } else {
      cand.push_back({i, &key->tables, sc_from_bytes(it.sig.data() + 32), {}, {}});
    }
  }

  // The challenges k of the items that passed, warm and candidate alike,
  // eight lanes at a time on the lane backend.
  const std::size_t n_warm = warm.size();
  hash_each(
      backend, n_warm + cand.size(),
      [&](std::size_t j) {
        const VerifyItem& it = items[j < n_warm ? warm[j].idx : cand[j - n_warm].idx];
        return challenge_parts(it.pub, it.msg, it.sig);
      },
      [&](std::size_t j, const Digest512& kh) {
        (j < n_warm ? warm[j].k : cand[j - n_warm].k) = reduce_hash(kh);
      });

  // The warm Ps, eight lanes at a time where the CPU has them, are
  // compressed with one shared inversion.
  if (!warm.empty()) {
    warm_p.resize(warm.size());
    const auto deal = [&](std::size_t j, auto& comb) {
      warm_terms(comb, *warm[j].comb, items[warm[j].idx].sig.data() + 32, warm[j].k);
    };
    run_combs(backend, warm.size(), kWarmTerms, deal, warm_p.data());
    thread_local std::vector<Fe> zi;
    zi.resize(warm_p.size());
    batch_invert_z(warm_p, zi.data());
    for (std::size_t j = 0; j < warm_p.size(); ++j) {
      std::uint8_t p_bytes[32];
      ge_compress(p_bytes, warm_p[j], zi[j]);
      ok[warm[j].idx] = matches_r(warm_p[j], p_bytes, items[warm[j].idx].sig.data()) ? 1 : 0;
    }
  }

  // Combining equations needs every R decoded; an R that does not
  // decode is invalid.
  if (cand.size() > 1) {
    std::size_t kept = 0;
    for (Candidate& c : cand)
      if (ge_decompress(c.r, items[c.idx].sig.data())) cand[kept++] = c;
    cand.resize(kept);
  }
  if (cand.empty()) return;
  if (cand.size() == 1) {
    const Candidate& c = cand[0];
    ok[c.idx] = check_single(*c.key, c.s, c.k, items[c.idx].sig.data()) ? 1 : 0;
    return;
  }

  // Fiat–Shamir coefficients: z_i = 128 bits of SHA512(transcript, i).
  // The transcript binds every key, signature and message (k already
  // hashes the message), so an adversary cannot pick signatures as a
  // function of the z they will be combined with.
  Sha512 transcript;
  static constexpr const char kDomain[] = "bmg/ed25519/batch/v1";
  transcript.update(
      ByteView{reinterpret_cast<const std::uint8_t*>(kDomain), sizeof(kDomain) - 1});
  for (const Candidate& c : cand) {
    transcript.update(ByteView{items[c.idx].pub.data(), 32});
    transcript.update(ByteView{items[c.idx].sig.data(), 64});
    std::uint8_t k_bytes[32];
    sc_to_bytes(k_bytes, c.k);
    transcript.update(ByteView{k_bytes, 32});
  }
  const Digest512 root = transcript.finish();

  // Combined equation: [8]([sum z_i S_i]B + sum [z_i](-R_i) +
  // sum [z_i k_i](-A_i)) must be the identity.  Every scalar is at most
  // 128 bits: z_i as is, the others split at 2^128.
  thread_local std::vector<DynTable> r_tables;
  thread_local std::vector<StrausTerm> terms;
  r_tables.resize(cand.size());
  terms.resize(2 + 3 * cand.size());
  U256 b_comb = {{0, 0, 0, 0}};
  int top = 0;
  for (std::size_t j = 0; j < cand.size(); ++j) {
    Sha512 zh;
    zh.update(ByteView{root.data(), root.size()});
    std::uint8_t j_le[8];
    for (int b = 0; b < 8; ++b) j_le[b] = static_cast<std::uint8_t>(j >> (8 * b));
    zh.update(ByteView{j_le, 8});
    const Digest512 zd = zh.finish();
    std::uint8_t z_bytes[32] = {};
    std::memcpy(z_bytes, zd.data(), 16);  // 128-bit coefficients suffice
    bool all_zero = true;
    for (int b = 0; b < 16; ++b) all_zero = all_zero && z_bytes[b] == 0;
    if (all_zero) z_bytes[0] = 1;
    const U256 z = sc_from_bytes(z_bytes);

    const Candidate& c = cand[j];
    b_comb = sc_add(b_comb, sc_mul(z, c.s));
    const U256 zk = sc_mul(z, c.k);
    r_tables[j] = ge_dyn_table(ge_neg(c.r));
    StrausTerm* t = &terms[2 + 3 * j];
    top = std::max({top, set_term(t[0], sc_lo(z), r_tables[j].mult, kWindowDyn),
                    set_term(t[1], sc_lo(zk), c.key->neg_a(), kWindowDyn),
                    set_term(t[2], sc_hi(zk), c.key->neg_a128(), kWindowDyn)});
  }
  top = std::max({top, set_term(terms[0], sc_lo(b_comb), base_table().mult, kWindowBase),
                  set_term(terms[1], sc_hi(b_comb), base128_table().mult, kWindowBase)});
  if (ge_is_small_order(ge_straus(terms, top))) {
    for (const Candidate& c : cand) ok[c.idx] = 1;
    return;
  }

  // At least one signature is bad: fall back to per-item verification
  // so the caller learns which.
  for (const Candidate& c : cand)
    ok[c.idx] = check_single(*c.key, c.s, c.k, items[c.idx].sig.data()) ? 1 : 0;
}

// Signs `msg` with every key: the nonces' [r]B and their hashes and
// the challenges eight lanes at a time where the CPU has them, and
// every R compressed with one inversion.
void sign_batch_on(Backend backend, std::span<const ExpandedKey* const> keys, ByteView msg,
                   std::span<SignatureBytes> out) {
  if (out.size() != keys.size())
    throw std::invalid_argument("ed25519::sign_batch: out must hold one signature per key");
  const std::size_t n = keys.size();
  if (n == 0) return;
  struct Nonce {
    U256 r;
    std::uint8_t bytes[32];
  };
  thread_local std::vector<Nonce> nonce;
  thread_local std::vector<Ge> big_r;
  thread_local std::vector<Fe> zi;
  nonce.resize(n);
  big_r.resize(n);
  zi.resize(n);
  // r = SHA512(prefix || msg) mod L: one block on the lanes while msg
  // is at most 79 bytes.
  hash_each(
      backend, n, [&](std::size_t i) { return Sha512Parts{ByteView{keys[i]->prefix}, msg, {}}; },
      [&](std::size_t i, const Digest512& rh) {
        nonce[i].r = reduce_hash(rh);
        sc_to_bytes(nonce[i].bytes, nonce[i].r);
      });
  const auto deal = [&](std::size_t i, auto& comb) { base_terms(comb, nonce[i].bytes); };
  run_combs(backend, n, kBaseTerms, deal, big_r.data());
  batch_invert_z(big_r, zi.data());
  for (std::size_t i = 0; i < n; ++i) ge_compress(out[i].data(), big_r[i], zi[i]);
  // S = (r + k * a) mod L, k = SHA512(R || A || msg) mod L
  hash_each(
      backend, n, [&](std::size_t i) { return challenge_parts(keys[i]->pub, msg, out[i]); },
      [&](std::size_t i, const Digest512& kh) {
        const auto& w = keys[i]->scalar_mod_l;
        const U256 a = {{w[0], w[1], w[2], w[3]}};
        sc_to_bytes(out[i].data() + 32, sc_add(nonce[i].r, sc_mul(reduce_hash(kh), a)));
      });
}

std::vector<bool> verify_batch_on(Backend backend, std::span<const VerifyItem> items) {
  const std::size_t n = items.size();
  // Runs of at most kKeyMemoCapacity items, so every key of a run fits
  // in the memo at once.
  std::vector<std::uint8_t> flags(n, 0);
  for (std::size_t begin = 0; begin < n; begin += kKeyMemoCapacity) {
    const std::size_t len = std::min(kKeyMemoCapacity, n - begin);
    verify_batch_run(items.subspan(begin, len), flags.data() + begin, backend);
  }
  std::vector<bool> ok(n);
  for (std::size_t i = 0; i < n; ++i) ok[i] = flags[i] != 0;
  return ok;
}

// The lane backend where the CPU has IFMA, else the scalar code.
Backend default_backend() { return cpu_has_ifma() ? Backend::kIfma : Backend::kScalar; }

Backend checked(Backend backend) {
  if (!detail::backend_available(backend))
    throw std::runtime_error("ed25519: backend not available on this CPU");
  return backend;
}

}  // namespace

SignatureBytes sign(const ExpandedKey& key, ByteView msg) {
  const ExpandedKey* keys[1] = {&key};
  SignatureBytes sig{};
  sign_batch_on(default_backend(), keys, msg, {&sig, 1});
  return sig;
}

void sign_batch(std::span<const ExpandedKey* const> keys, ByteView msg,
                std::span<SignatureBytes> out) {
  sign_batch_on(default_backend(), keys, msg, out);
}

bool verify(const PublicKeyBytes& pub, ByteView msg, const SignatureBytes& sig) {
  const VerifyItem item{pub, msg, sig};
  std::uint8_t ok = 0;
  verify_batch_run({&item, 1}, &ok, default_backend());
  return ok != 0;
}

std::vector<bool> verify_batch(std::span<const VerifyItem> items) {
  return verify_batch_on(default_backend(), items);
}

bool detail::backend_available(Backend backend) noexcept {
  return backend == Backend::kScalar || cpu_has_ifma();
}

void detail::sign_batch_with(Backend backend, std::span<const ExpandedKey* const> keys,
                             ByteView msg, std::span<SignatureBytes> out) {
  sign_batch_on(checked(backend), keys, msg, out);
}

std::vector<bool> detail::verify_batch_with(Backend backend, std::span<const VerifyItem> items) {
  return verify_batch_on(checked(backend), items);
}

bool detail::has_comb(const PublicKeyBytes& pub) { return comb_cache().find(pub) != nullptr; }

}  // namespace bmg::crypto::ed25519
