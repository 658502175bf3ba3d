#include "crypto/ed25519.hpp"

#include <cstring>

#include "common/parallel.hpp"
#include "crypto/sha512.hpp"

namespace bmg::crypto::ed25519 {

namespace {

// ---------------------------------------------------------------------------
// Field arithmetic mod p = 2^255 - 19, radix-2^51 representation.
// ---------------------------------------------------------------------------

struct Fe {
  std::uint64_t v[5];
};

constexpr std::uint64_t kMask51 = (1ULL << 51) - 1;

Fe fe_zero() { return Fe{{0, 0, 0, 0, 0}}; }
Fe fe_one() { return Fe{{1, 0, 0, 0, 0}}; }

Fe fe_from_u64(std::uint64_t x) { return Fe{{x & kMask51, x >> 51, 0, 0, 0}}; }

Fe fe_add(const Fe& a, const Fe& b) {
  Fe r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}

// a - b with a 4p bias added limb-wise so limbs stay non-negative.
Fe fe_sub(const Fe& a, const Fe& b) {
  Fe r;
  r.v[0] = a.v[0] + 0xFFFFFFFFFFFDAULL * 2 - b.v[0];
  r.v[1] = a.v[1] + 0xFFFFFFFFFFFFEULL * 2 - b.v[1];
  r.v[2] = a.v[2] + 0xFFFFFFFFFFFFEULL * 2 - b.v[2];
  r.v[3] = a.v[3] + 0xFFFFFFFFFFFFEULL * 2 - b.v[3];
  r.v[4] = a.v[4] + 0xFFFFFFFFFFFFEULL * 2 - b.v[4];
  return r;
}

// Weak reduction: bring limbs below ~2^52.
Fe fe_carry(const Fe& a) {
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

Fe fe_mul(const Fe& a, const Fe& b) {
  using u128 = unsigned __int128;
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const std::uint64_t b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3], b4 = b.v[4];
  const std::uint64_t b1_19 = b1 * 19, b2_19 = b2 * 19, b3_19 = b3 * 19, b4_19 = b4 * 19;

  u128 t0 = (u128)a0 * b0 + (u128)a1 * b4_19 + (u128)a2 * b3_19 + (u128)a3 * b2_19 + (u128)a4 * b1_19;
  u128 t1 = (u128)a0 * b1 + (u128)a1 * b0 + (u128)a2 * b4_19 + (u128)a3 * b3_19 + (u128)a4 * b2_19;
  u128 t2 = (u128)a0 * b2 + (u128)a1 * b1 + (u128)a2 * b0 + (u128)a3 * b4_19 + (u128)a4 * b3_19;
  u128 t3 = (u128)a0 * b3 + (u128)a1 * b2 + (u128)a2 * b1 + (u128)a3 * b0 + (u128)a4 * b4_19;
  u128 t4 = (u128)a0 * b4 + (u128)a1 * b3 + (u128)a2 * b2 + (u128)a3 * b1 + (u128)a4 * b0;

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

Fe fe_sq(const Fe& a) { return fe_mul(a, a); }

Fe fe_neg(const Fe& a) { return fe_carry(fe_sub(fe_zero(), a)); }

// Full (canonical) reduction to [0, p).
void fe_to_bytes(std::uint8_t out[32], const Fe& a) {
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

  const std::uint64_t w0 = l0 | (l1 << 51);
  const std::uint64_t w1 = (l1 >> 13) | (l2 << 38);
  const std::uint64_t w2 = (l2 >> 26) | (l3 << 25);
  const std::uint64_t w3 = (l3 >> 39) | (l4 << 12);
  for (int i = 0; i < 8; ++i) {
    out[i] = (std::uint8_t)(w0 >> (8 * i));
    out[8 + i] = (std::uint8_t)(w1 >> (8 * i));
    out[16 + i] = (std::uint8_t)(w2 >> (8 * i));
    out[24 + i] = (std::uint8_t)(w3 >> (8 * i));
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

// Shared prefix of the two exponentiation chains below (the classic
// curve25519 addition chain): computes a^(2^250 - 1) and a^11.
void fe_pow_ladder(const Fe& a, Fe& pow250m1, Fe& a11) {
  const Fe a2 = fe_sq(a);                                // a^2
  const Fe a9 = fe_mul(a, fe_sqn(a2, 2));                // a^9
  a11 = fe_mul(a9, a2);                                  // a^11
  const Fe p5 = fe_mul(fe_sq(a11), a9);                  // a^(2^5 - 1)
  const Fe p10 = fe_mul(fe_sqn(p5, 5), p5);              // a^(2^10 - 1)
  const Fe p20 = fe_mul(fe_sqn(p10, 10), p10);           // a^(2^20 - 1)
  const Fe p40 = fe_mul(fe_sqn(p20, 20), p20);           // a^(2^40 - 1)
  const Fe p50 = fe_mul(fe_sqn(p40, 10), p10);           // a^(2^50 - 1)
  const Fe p100 = fe_mul(fe_sqn(p50, 50), p50);          // a^(2^100 - 1)
  const Fe p200 = fe_mul(fe_sqn(p100, 100), p100);       // a^(2^200 - 1)
  pow250m1 = fe_mul(fe_sqn(p200, 50), p50);              // a^(2^250 - 1)
}

// a^(p - 2) = a^(2^255 - 21) — ~254 squarings + 12 multiplications,
// roughly half the cost of the generic square-and-multiply ladder.
Fe fe_invert(const Fe& a) {
  Fe p250, a11;
  fe_pow_ladder(a, p250, a11);
  return fe_mul(fe_sqn(p250, 5), a11);  // (2^250-1)*2^5 + 11 = 2^255 - 21
}

// a^((p - 5) / 8) = a^(2^252 - 3), used for the decompression sqrt.
Fe fe_pow_p58(const Fe& a) {
  Fe p250, a11;
  fe_pow_ladder(a, p250, a11);
  return fe_mul(fe_sqn(p250, 2), a);  // (2^250-1)*2^2 + 1 = 2^252 - 3
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
  static const Fe d2 = fe_carry(fe_add(fe_d(), fe_d()));
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

// dbl-2008-hwcd for a = -1.
Ge ge_double(const Ge& p) {
  const Fe a = fe_sq(p.x);
  const Fe b = fe_sq(p.y);
  const Fe c = fe_carry(fe_add(fe_sq(p.z), fe_sq(p.z)));
  const Fe d = fe_neg(a);
  const Fe xy = fe_carry(fe_add(p.x, p.y));
  const Fe e = fe_carry(fe_sub(fe_carry(fe_sub(fe_sq(xy), a)), b));
  const Fe g = fe_carry(fe_add(d, b));
  const Fe f = fe_carry(fe_sub(g, c));
  const Fe h = fe_carry(fe_sub(d, b));
  return Ge{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

Ge ge_neg(const Ge& p) { return Ge{fe_neg(p.x), p.y, p.z, fe_neg(p.t)}; }

bool ge_is_identity(const Ge& p) { return fe_is_zero(p.x) && fe_eq(p.y, p.z); }

// A point prepared for repeated addition: (Y+X, Y-X, Z, 2dT).  Saves
// two field additions and the 2d multiplication on every ge_add.
struct GeCached {
  Fe y_plus_x, y_minus_x, z, t2d;
};

GeCached ge_cache(const Ge& p) {
  return GeCached{fe_carry(fe_add(p.y, p.x)), fe_carry(fe_sub(p.y, p.x)), p.z,
                  fe_mul(p.t, fe_2d())};
}

Ge ge_add_cached(const Ge& p, const GeCached& q) {
  const Fe a = fe_mul(fe_carry(fe_sub(p.y, p.x)), q.y_minus_x);
  const Fe b = fe_mul(fe_carry(fe_add(p.y, p.x)), q.y_plus_x);
  const Fe c = fe_mul(p.t, q.t2d);
  const Fe d = fe_mul(fe_carry(fe_add(p.z, p.z)), q.z);
  const Fe e = fe_carry(fe_sub(b, a));
  const Fe f = fe_carry(fe_sub(d, c));
  const Fe g = fe_carry(fe_add(d, c));
  const Fe h = fe_carry(fe_add(b, a));
  return Ge{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

// p - q: addition with q negated, i.e. (Y+X, Y-X) swapped and 2dT sign
// flipped (which turns F = D - C, G = D + C into F = D + C, G = D - C).
Ge ge_sub_cached(const Ge& p, const GeCached& q) {
  const Fe a = fe_mul(fe_carry(fe_sub(p.y, p.x)), q.y_plus_x);
  const Fe b = fe_mul(fe_carry(fe_add(p.y, p.x)), q.y_minus_x);
  const Fe c = fe_mul(p.t, q.t2d);
  const Fe d = fe_mul(fe_carry(fe_add(p.z, p.z)), q.z);
  const Fe e = fe_carry(fe_sub(b, a));
  const Fe f = fe_carry(fe_add(d, c));
  const Fe g = fe_carry(fe_sub(d, c));
  const Fe h = fe_carry(fe_add(b, a));
  return Ge{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

// An affine precomputed point (Z = 1 implicit): (y+x, y-x, 2dxy).
// Mixed addition against these drops one field multiplication (no Z2).
struct GePrecomp {
  Fe y_plus_x, y_minus_x, xy2d;
};

Ge ge_add_precomp(const Ge& p, const GePrecomp& q) {
  const Fe a = fe_mul(fe_carry(fe_sub(p.y, p.x)), q.y_minus_x);
  const Fe b = fe_mul(fe_carry(fe_add(p.y, p.x)), q.y_plus_x);
  const Fe c = fe_mul(p.t, q.xy2d);
  const Fe d = fe_carry(fe_add(p.z, p.z));
  const Fe e = fe_carry(fe_sub(b, a));
  const Fe f = fe_carry(fe_sub(d, c));
  const Fe g = fe_carry(fe_add(d, c));
  const Fe h = fe_carry(fe_add(b, a));
  return Ge{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

Ge ge_sub_precomp(const Ge& p, const GePrecomp& q) {
  const Fe a = fe_mul(fe_carry(fe_sub(p.y, p.x)), q.y_plus_x);
  const Fe b = fe_mul(fe_carry(fe_add(p.y, p.x)), q.y_minus_x);
  const Fe c = fe_mul(p.t, q.xy2d);
  const Fe d = fe_carry(fe_add(p.z, p.z));
  const Fe e = fe_carry(fe_sub(b, a));
  const Fe f = fe_carry(fe_add(d, c));
  const Fe g = fe_carry(fe_sub(d, c));
  const Fe h = fe_carry(fe_add(b, a));
  return Ge{fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

void ge_compress(std::uint8_t out[32], const Ge& p) {
  const Fe zi = fe_invert(p.z);
  const Fe x = fe_mul(p.x, zi);
  const Fe y = fe_mul(p.y, zi);
  fe_to_bytes(out, y);
  if (fe_is_negative(x)) out[31] |= 0x80;
}

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
  const Fe u = fe_carry(fe_sub(y2, fe_one()));
  const Fe v = fe_carry(fe_add(fe_mul(fe_d(), y2), fe_one()));
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

// Digits of the dynamic (per-point) window: odd, |digit| <= 15 (w = 5).
constexpr int kWindowDyn = 5;
// Digits of the static base-point window: odd, |digit| <= 63 (w = 7).
constexpr int kWindowBase = 7;
constexpr int kBaseTableSize = 1 << (kWindowBase - 2);  // odd multiples 1B..63B

// Signed sliding-window recoding of a little-endian scalar (< 2^253):
// r[0..256] with r[i] zero or odd, |r[i]| < 2^(w-1), and
// sum r[i] 2^i == scalar.
void slide(signed char* r, const std::uint8_t a[32], int w) {
  for (int i = 0; i < 256; ++i) r[i] = 1 & (a[i >> 3] >> (i & 7));
  r[256] = 0;
  const int bound = 1 << (w - 1);
  for (int i = 0; i < 256; ++i) {
    if (!r[i]) continue;
    for (int b = 1; b < w && i + b <= 256; ++b) {
      if (!r[i + b]) continue;
      if (r[i] + (r[i + b] << b) <= bound - 1) {
        r[i] += static_cast<signed char>(r[i + b] << b);
        r[i + b] = 0;
      } else if (r[i] - (r[i + b] << b) >= -(bound - 1)) {
        r[i] -= static_cast<signed char>(r[i + b] << b);
        // Borrowed a subtraction: carry +1 upward.
        for (int k = i + b; k <= 256; ++k) {
          if (!r[k]) {
            r[k] = 1;
            break;
          }
          r[k] = 0;
        }
      } else {
        break;
      }
    }
  }
}

// Odd multiples {P, 3P, 5P, ..., 15P} in cached form, for w = 5 wNAF.
struct DynTable {
  GeCached mult[8];
};

DynTable ge_dyn_table(const Ge& p) {
  DynTable t;
  t.mult[0] = ge_cache(p);
  const Ge p2 = ge_double(p);
  for (int i = 1; i < 8; ++i) t.mult[i] = ge_cache(ge_add_cached(p2, t.mult[i - 1]));
  return t;
}

// The affine forms of pts[0..N) with one field inversion (Montgomery's
// trick: invert the product of every Z, then peel each factor off it).
template <int N>
void batch_to_precomp(const Ge* pts, GePrecomp* out) {
  Fe prefix[N];  // prefix[i] = z_0 * ... * z_i
  prefix[0] = pts[0].z;
  for (int i = 1; i < N; ++i) prefix[i] = fe_mul(prefix[i - 1], pts[i].z);
  Fe inv = fe_invert(prefix[N - 1]);

  for (int i = N - 1; i >= 0; --i) {
    const Fe zi = i == 0 ? inv : fe_mul(inv, prefix[i - 1]);
    inv = fe_mul(inv, pts[i].z);
    const Fe x = fe_mul(pts[i].x, zi);
    const Fe y = fe_mul(pts[i].y, zi);
    out[i] = GePrecomp{fe_carry(fe_add(y, x)), fe_carry(fe_sub(y, x)),
                       fe_mul(fe_mul(x, y), fe_2d())};
  }
}

// Odd multiples {B, 3B, ..., 63B} of the base point in affine form,
// built once; the verification chains below read it.
struct BaseTable {
  GePrecomp mult[kBaseTableSize];
};

const BaseTable& base_table() {
  static const BaseTable table = [] {
    Ge pts[kBaseTableSize];
    pts[0] = ge_base();
    const Ge b2 = ge_double(ge_base());
    const GeCached b2c = ge_cache(b2);
    for (int i = 1; i < kBaseTableSize; ++i) pts[i] = ge_add_cached(pts[i - 1], b2c);
    BaseTable t;
    batch_to_precomp<kBaseTableSize>(pts, t.mult);
    return t;
  }();
  return table;
}

// Fixed-base comb for [a]B, the multiply of signing and key expansion.
// Written in signed radix 16, a = sum e[i] 16^i with |e[i]| <= 8, so
//   [a]B = 16 * sum_{i odd} [e[i]] 256^(i/2) B + sum_{i even} [e[i]] 256^(i/2) B.
// One table row per power 256^k holds its multiples 1..8, and a multiply
// is at most 64 mixed additions and 4 doublings, against the ~253
// doublings of a base-point wNAF chain.
constexpr int kCombRows = 32;  // 256^k B for k = 0..31
constexpr int kCombCols = 8;   // multiples 1..8 of each

// mult[k * kCombCols + j] = (j + 1) 256^k B in affine form (30 KiB),
// built once with one batched inversion.
struct CombTable {
  GePrecomp mult[kCombRows * kCombCols];
};

const CombTable& comb_table() {
  static const CombTable table = [] {
    Ge pts[kCombRows * kCombCols];
    Ge p = ge_base();
    for (int k = 0; k < kCombRows; ++k) {
      Ge* row = &pts[k * kCombCols];
      const GeCached pc = ge_cache(p);
      row[0] = p;
      for (int j = 1; j < kCombCols; ++j) row[j] = ge_add_cached(row[j - 1], pc);
      for (int d = 0; d < 8; ++d) p = ge_double(p);
    }
    CombTable t;
    batch_to_precomp<kCombRows * kCombCols>(pts, t.mult);
    return t;
  }();
  return table;
}

// Signed radix-16 digits of a little-endian scalar below 2^255:
// e[0..62] in [-8, 7], e[63] in [0, 8], and sum e[i] 16^i == scalar.
void radix16(signed char e[64], const std::uint8_t a[32]) {
  for (int i = 0; i < 32; ++i) {
    e[2 * i] = static_cast<signed char>(a[i] & 15);
    e[2 * i + 1] = static_cast<signed char>(a[i] >> 4);
  }
  int carry = 0;
  for (int i = 0; i < 63; ++i) {
    const int d = e[i] + carry;
    carry = (d + 8) >> 4;
    e[i] = static_cast<signed char>(d - (carry << 4));
  }
  e[63] = static_cast<signed char>(e[63] + carry);
}

// r = [scalar]B for a scalar below 2^255, which clamped secret scalars
// and reduced nonces both are.
Ge ge_scalarmult_base(const std::uint8_t scalar[32]) {
  signed char e[64];
  radix16(e, scalar);
  const CombTable& ct = comb_table();
  Ge r = ge_identity();
  const auto add_digit = [&](int i) {
    const GePrecomp* row = &ct.mult[(i / 2) * kCombCols];
    if (e[i] > 0) r = ge_add_precomp(r, row[e[i] - 1]);
    else if (e[i] < 0) r = ge_sub_precomp(r, row[-e[i] - 1]);
  };
  for (int i = 1; i < 64; i += 2) add_digit(i);
  for (int i = 0; i < 4; ++i) r = ge_double(r);
  for (int i = 0; i < 64; i += 2) add_digit(i);
  return r;
}

// r = [a]A + [b]B (Straus/Shamir: one shared doubling chain).
Ge ge_double_scalarmult(const std::uint8_t a[32], const Ge& A, const std::uint8_t b[32]) {
  signed char anaf[257], bnaf[257];
  slide(anaf, a, kWindowDyn);
  slide(bnaf, b, kWindowBase);
  const DynTable at = ge_dyn_table(A);
  const BaseTable& bt = base_table();
  int i = 256;
  while (i >= 0 && !anaf[i] && !bnaf[i]) --i;
  Ge r = ge_identity();
  for (; i >= 0; --i) {
    r = ge_double(r);
    if (anaf[i] > 0) r = ge_add_cached(r, at.mult[anaf[i] >> 1]);
    else if (anaf[i] < 0) r = ge_sub_cached(r, at.mult[(-anaf[i]) >> 1]);
    if (bnaf[i] > 0) r = ge_add_precomp(r, bt.mult[bnaf[i] >> 1]);
    else if (bnaf[i] < 0) r = ge_sub_precomp(r, bt.mult[(-bnaf[i]) >> 1]);
  }
  return r;
}

// r = [base_scalar]B + sum [scalars[j]]points[j] — generalized Straus
// for batch verification.  One doubling chain regardless of how many
// points are combined.
struct MsmEntry {
  Ge point;
  std::uint8_t scalar[32];
};

Ge ge_multi_scalarmult(const std::uint8_t base_scalar[32],
                       const std::vector<MsmEntry>& entries) {
  const std::size_t n = entries.size();
  // Reused per thread: one MSM runs per batch-verify shard, and the
  // working set (NAF digits + per-point tables) would otherwise be two
  // fresh heap blocks per call.
  thread_local std::vector<std::array<signed char, 257>> nafs;
  thread_local std::vector<DynTable> tables;
  nafs.assign(n, {});
  tables.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    slide(nafs[j].data(), entries[j].scalar, kWindowDyn);
    tables[j] = ge_dyn_table(entries[j].point);
  }
  signed char bnaf[257];
  slide(bnaf, base_scalar, kWindowBase);
  const BaseTable& bt = base_table();

  int i = 256;
  for (; i >= 0; --i) {
    if (bnaf[i]) break;
    bool any = false;
    for (std::size_t j = 0; j < n && !any; ++j) any = nafs[j][static_cast<std::size_t>(i)] != 0;
    if (any) break;
  }
  Ge r = ge_identity();
  for (; i >= 0; --i) {
    r = ge_double(r);
    for (std::size_t j = 0; j < n; ++j) {
      const signed char d = nafs[j][static_cast<std::size_t>(i)];
      if (d > 0) r = ge_add_cached(r, tables[j].mult[d >> 1]);
      else if (d < 0) r = ge_sub_cached(r, tables[j].mult[(-d) >> 1]);
    }
    if (bnaf[i] > 0) r = ge_add_precomp(r, bt.mult[bnaf[i] >> 1]);
    else if (bnaf[i] < 0) r = ge_sub_precomp(r, bt.mult[(-bnaf[i]) >> 1]);
  }
  return r;
}

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

Digest512 hash3(ByteView a, ByteView b, ByteView c) {
  Sha512 h;
  h.update(a);
  h.update(b);
  h.update(c);
  return h.finish();
}

}  // namespace

ExpandedKey expand(const Seed& seed) {
  const Digest512 h = Sha512::digest(ByteView{seed});
  ExpandedKey key{};
  std::memcpy(key.scalar.data(), h.data(), 32);
  clamp(key.scalar.data());
  std::memcpy(key.prefix.data(), h.data() + 32, 32);
  ge_compress(key.pub.data(), ge_scalarmult_base(key.scalar.data()));
  return key;
}

SignatureBytes sign(const ExpandedKey& key, ByteView msg) {
  // r = SHA512(prefix || msg) mod L
  const Digest512 rh = hash3(ByteView{key.prefix}, msg, {});
  const U256 r = sc_reduce_bytes(rh.data(), rh.size());
  std::uint8_t r_bytes[32];
  sc_to_bytes(r_bytes, r);

  const Ge R = ge_scalarmult_base(r_bytes);
  SignatureBytes sig{};
  ge_compress(sig.data(), R);

  // k = SHA512(R || A || msg) mod L
  const Digest512 kh = hash3(ByteView{sig.data(), 32}, ByteView{key.pub}, msg);
  const U256 k = sc_reduce_bytes(kh.data(), kh.size());

  // S = (r + k * a) mod L
  const U256 a = sc_reduce_bytes(key.scalar.data(), 32);
  const U256 s = sc_add(r, sc_mul(k, a));
  sc_to_bytes(sig.data() + 32, s);
  return sig;
}

namespace {

// Everything `verify` rejects before touching the curve equation, plus
// the decoded values the equation needs.  Shared by the single and
// batched paths so both enforce identical rules.
struct DecodedSig {
  Ge A;       // the public key
  Ge R;       // the signature's commitment point
  U256 k;     // SHA512(R || A || msg) mod L
  U256 s;     // the signature scalar
};

bool decode_for_verify(const PublicKeyBytes& pub, ByteView msg, const SignatureBytes& sig,
                       DecodedSig& out) {
  if (!sc_is_canonical(sig.data() + 32)) return false;
  if (!ge_decompress(out.A, pub.data())) return false;
  if (!ge_decompress(out.R, sig.data())) return false;
  const Digest512 kh =
      hash3(ByteView{sig.data(), 32}, ByteView{pub.data(), pub.size()}, msg);
  out.k = sc_reduce_bytes(kh.data(), kh.size());
  out.s = sc_from_bytes(sig.data() + 32);
  return true;
}

// The cofactorless check [S]B == R + [k]A, given decoded inputs.
bool check_equation(const DecodedSig& d, const std::uint8_t* r_bytes) {
  std::uint8_t k_bytes[32], s_bytes[32];
  sc_to_bytes(k_bytes, d.k);
  sc_to_bytes(s_bytes, d.s);
  // [S]B + [k](-A) must compress back to the signature's R bytes.  R
  // decompressed canonically, so byte equality == point equality.
  const Ge lhs = ge_double_scalarmult(k_bytes, ge_neg(d.A), s_bytes);
  std::uint8_t lhs_bytes[32];
  ge_compress(lhs_bytes, lhs);
  return std::memcmp(lhs_bytes, r_bytes, 32) == 0;
}

}  // namespace

bool verify(const PublicKeyBytes& pub, ByteView msg, const SignatureBytes& sig) {
  DecodedSig d;
  if (!decode_for_verify(pub, msg, sig, d)) return false;
  return check_equation(d, sig.data());
}

namespace {

/// The random-linear-combination batch check over one contiguous run
/// of items, writing 0/1 verdicts into `ok[0..items.size())`.  This is
/// the whole pre-executor verify_batch body; the public entry point
/// shards large batches into independent runs of this.  A run's
/// verdicts equal per-item `verify` results whether the combined
/// equation passes (all candidates valid) or fails (per-item
/// fallback), so the bitmap does not depend on where run boundaries
/// fall.
void verify_batch_range(std::span<const VerifyItem> items, std::uint8_t* ok) {
  for (std::size_t i = 0; i < items.size(); ++i) ok[i] = 0;
  if (items.empty()) return;

  // Pre-checks: canonical S, canonical point encodings, k derivation.
  // Items failing here are definitively invalid and excluded from the
  // combined equation.
  struct Candidate {
    std::size_t idx;
    DecodedSig d;
  };
  thread_local std::vector<Candidate> cand;
  cand.clear();
  cand.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    DecodedSig d;
    if (decode_for_verify(items[i].pub, items[i].msg, items[i].sig, d))
      cand.push_back({i, d});
  }
  if (cand.empty()) return;
  if (cand.size() == 1) {
    ok[cand[0].idx] = check_equation(cand[0].d, items[cand[0].idx].sig.data()) ? 1 : 0;
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
    sc_to_bytes(k_bytes, c.d.k);
    transcript.update(ByteView{k_bytes, 32});
  }
  const Digest512 root = transcript.finish();

  // Combined equation: [sum z_i S_i]B + sum [z_i](-R_i) + sum [z_i k_i](-A_i)
  // must be the identity.
  U256 b_comb = {{0, 0, 0, 0}};
  thread_local std::vector<MsmEntry> entries;
  entries.clear();
  entries.reserve(cand.size() * 2);
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

    const DecodedSig& d = cand[j].d;
    b_comb = sc_add(b_comb, sc_mul(z, d.s));
    MsmEntry er;
    er.point = ge_neg(d.R);
    sc_to_bytes(er.scalar, z);
    entries.push_back(er);
    MsmEntry ea;
    ea.point = ge_neg(d.A);
    sc_to_bytes(ea.scalar, sc_mul(z, d.k));
    entries.push_back(ea);
  }
  std::uint8_t b_bytes[32];
  sc_to_bytes(b_bytes, b_comb);
  if (ge_is_identity(ge_multi_scalarmult(b_bytes, entries))) {
    for (const Candidate& c : cand) ok[c.idx] = 1;
    return;
  }

  // At least one signature is bad: fall back to per-item verification
  // so the caller learns which.
  for (const Candidate& c : cand)
    ok[c.idx] = check_equation(c.d, items[c.idx].sig.data()) ? 1 : 0;
}

/// Below this, one combined equation on one core beats the fork-join
/// dispatch plus the per-shard doubling chains.
constexpr std::size_t kParallelVerifyMin = 16;

}  // namespace

std::vector<bool> verify_batch(std::span<const VerifyItem> items) {
  const std::size_t n = items.size();
  // Shards write disjoint byte ranges of `flags` (vector<bool> is
  // bit-packed and would race); the final conversion is index-ordered.
  std::vector<std::uint8_t> flags(n, 0);
  if (n < kParallelVerifyMin) {
    verify_batch_range(items, flags.data());
  } else {
    // Static contiguous shards, each running the full RLC batch check
    // with its per-shard fallback preserved.  With one thread the
    // executor runs a single shard inline — the exact serial path.
    parallel::parallel_for(n, kParallelVerifyMin,
                           [&](std::size_t begin, std::size_t end, std::size_t) {
                             verify_batch_range(items.subspan(begin, end - begin),
                                                flags.data() + begin);
                           });
  }
  std::vector<bool> ok(n);
  for (std::size_t i = 0; i < n; ++i) ok[i] = flags[i] != 0;
  return ok;
}

}  // namespace bmg::crypto::ed25519
