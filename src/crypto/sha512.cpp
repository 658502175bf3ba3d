#include "crypto/sha512.hpp"

#include <cstring>

#include "crypto/sha512_impl.hpp"

// The eight-lane compression is compiled for AVX-512F function by
// function (BMG_SHA512_LANE_FN), so the rest of the build needs no -m
// flags.  Other targets get a stub that is never reached.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define BMG_SHA512_LANES 1
#include <immintrin.h>
#define BMG_SHA512_LANE_FN __attribute__((target("avx512f")))
#define BMG_SHA512_LANE_INLINE __attribute__((target("avx512f"), always_inline)) inline
#else
#define BMG_SHA512_LANES 0
#endif

namespace bmg::crypto {

namespace {
constexpr std::uint64_t kInit[8] = {0x6a09e667f3bcc908ULL, 0xbb67ae8584caa73bULL,
                                    0x3c6ef372fe94f82bULL, 0xa54ff53a5f1d36f1ULL,
                                    0x510e527fade682d1ULL, 0x9b05688c2b3e6c1fULL,
                                    0x1f83d9abfb41bd6bULL, 0x5be0cd19137e2179ULL};

constexpr std::uint64_t kRound[80] = {
    0x428a2f98d728ae22ULL, 0x7137449123ef65cdULL, 0xb5c0fbcfec4d3b2fULL, 0xe9b5dba58189dbbcULL,
    0x3956c25bf348b538ULL, 0x59f111f1b605d019ULL, 0x923f82a4af194f9bULL, 0xab1c5ed5da6d8118ULL,
    0xd807aa98a3030242ULL, 0x12835b0145706fbeULL, 0x243185be4ee4b28cULL, 0x550c7dc3d5ffb4e2ULL,
    0x72be5d74f27b896fULL, 0x80deb1fe3b1696b1ULL, 0x9bdc06a725c71235ULL, 0xc19bf174cf692694ULL,
    0xe49b69c19ef14ad2ULL, 0xefbe4786384f25e3ULL, 0x0fc19dc68b8cd5b5ULL, 0x240ca1cc77ac9c65ULL,
    0x2de92c6f592b0275ULL, 0x4a7484aa6ea6e483ULL, 0x5cb0a9dcbd41fbd4ULL, 0x76f988da831153b5ULL,
    0x983e5152ee66dfabULL, 0xa831c66d2db43210ULL, 0xb00327c898fb213fULL, 0xbf597fc7beef0ee4ULL,
    0xc6e00bf33da88fc2ULL, 0xd5a79147930aa725ULL, 0x06ca6351e003826fULL, 0x142929670a0e6e70ULL,
    0x27b70a8546d22ffcULL, 0x2e1b21385c26c926ULL, 0x4d2c6dfc5ac42aedULL, 0x53380d139d95b3dfULL,
    0x650a73548baf63deULL, 0x766a0abb3c77b2a8ULL, 0x81c2c92e47edaee6ULL, 0x92722c851482353bULL,
    0xa2bfe8a14cf10364ULL, 0xa81a664bbc423001ULL, 0xc24b8b70d0f89791ULL, 0xc76c51a30654be30ULL,
    0xd192e819d6ef5218ULL, 0xd69906245565a910ULL, 0xf40e35855771202aULL, 0x106aa07032bbd1b8ULL,
    0x19a4c116b8d2d0c8ULL, 0x1e376c085141ab53ULL, 0x2748774cdf8eeb99ULL, 0x34b0bcb5e19b48a8ULL,
    0x391c0cb3c5c95a63ULL, 0x4ed8aa4ae3418acbULL, 0x5b9cca4f7763e373ULL, 0x682e6ff3d6b2b8a3ULL,
    0x748f82ee5defb2fcULL, 0x78a5636f43172f60ULL, 0x84c87814a1f0ab72ULL, 0x8cc702081a6439ecULL,
    0x90befffa23631e28ULL, 0xa4506cebde82bde9ULL, 0xbef9a3f7b2c67915ULL, 0xc67178f2e372532bULL,
    0xca273eceea26619cULL, 0xd186b8c721c0c207ULL, 0xeada7dd6cde0eb1eULL, 0xf57d4f7fee6ed178ULL,
    0x06f067aa72176fbaULL, 0x0a637dc5a2c898a6ULL, 0x113f9804bef90daeULL, 0x1b710b35131c471bULL,
    0x28db77f523047d84ULL, 0x32caab7b40c72493ULL, 0x3c9ebe0a15c9bebcULL, 0x431d67c49c100d4cULL,
    0x4cc5d4becb3e42b6ULL, 0x597f299cfc657e2aULL, 0x5fcb6fab3ad6faecULL, 0x6c44198c4a475817ULL};

std::uint64_t rotr(std::uint64_t x, int n) noexcept { return (x >> n) | (x << (64 - n)); }

// ---------------------------------------------------------------------------
// Eight one-block messages at once, one per 64-bit lane of AVX-512F
// (Gueron and Krasnov's multi-buffer layout).  Ed25519's nonces and
// challenges of 32-byte digests are one block each, so a pass runs
// the 80 rounds once for eight of them.  Each message is padded into
// its own block, whose 16 big-endian words are written transposed:
// words[j][lane], one vector load per word.
// ---------------------------------------------------------------------------

#if BMG_SHA512_LANES

constexpr int kLanes = 8;

// Rotations and shifts by a constant, written with vector operators:
// GCC 12's _mm512_ror_epi64 and _mm512_srli_epi64 start from an
// undefined vector and draw a false -Wmaybe-uninitialized.  GCC still
// emits vprorq and vpsrlq.
using U64x8 = std::uint64_t __attribute__((vector_size(64)));

BMG_SHA512_LANE_INLINE __m512i lane_rotr(__m512i x, int n) {
  const U64x8 v = (U64x8)x;
  return (__m512i)((v >> n) | (v << (64 - n)));
}

BMG_SHA512_LANE_INLINE __m512i lane_shr(__m512i x, int n) { return (__m512i)((U64x8)x >> n); }

// vpternlogq truth tables: a ^ b ^ c, Ch (a ? b : c) and Maj.
BMG_SHA512_LANE_INLINE __m512i xor3(__m512i a, __m512i b, __m512i c) {
  return _mm512_ternarylogic_epi64(a, b, c, 0x96);
}

BMG_SHA512_LANE_INLINE __m512i add(__m512i a, __m512i b) { return _mm512_add_epi64(a, b); }

BMG_SHA512_LANE_INLINE __m512i splat(std::uint64_t x) {
  return _mm512_set1_epi64(static_cast<long long>(x));
}

// state[j][lane] = word j of the SHA-512 state after compressing each
// lane's block from the initial state.
BMG_SHA512_LANE_FN void compress_lanes(const std::uint64_t words[16][kLanes],
                                       std::uint64_t state[8][kLanes]) {
  __m512i w[16];
  for (int j = 0; j < 16; ++j) w[j] = _mm512_load_si512(words[j]);
  __m512i a = splat(kInit[0]), b = splat(kInit[1]), c = splat(kInit[2]), d = splat(kInit[3]);
  __m512i e = splat(kInit[4]), f = splat(kInit[5]), g = splat(kInit[6]), h = splat(kInit[7]);
  for (int r = 0; r < 80; r += 16) {
#pragma GCC unroll 16
    for (int j = 0; j < 16; ++j) {
      if (r > 0) {
        // w[j] becomes word r + j: w[j] holds word r + j - 16 and
        // w[(j + k) % 16] holds word r + j - 16 + k.
        const __m512i w15 = w[(j + 1) & 15], w2 = w[(j + 14) & 15];
        const __m512i s0 = xor3(lane_rotr(w15, 1), lane_rotr(w15, 8), lane_shr(w15, 7));
        const __m512i s1 = xor3(lane_rotr(w2, 19), lane_rotr(w2, 61), lane_shr(w2, 6));
        w[j] = add(add(w[j], s0), add(w[(j + 9) & 15], s1));
      }
      const __m512i big_s1 = xor3(lane_rotr(e, 14), lane_rotr(e, 18), lane_rotr(e, 41));
      const __m512i ch = _mm512_ternarylogic_epi64(e, f, g, 0xCA);
      const __m512i t1 = add(add(h, big_s1), add(ch, add(splat(kRound[r + j]), w[j])));
      const __m512i big_s0 = xor3(lane_rotr(a, 28), lane_rotr(a, 34), lane_rotr(a, 39));
      const __m512i maj = _mm512_ternarylogic_epi64(a, b, c, 0xE8);
      h = g;
      g = f;
      f = e;
      e = add(d, t1);
      d = c;
      c = b;
      b = a;
      a = add(t1, add(big_s0, maj));
    }
  }
  const __m512i out[8] = {a, b, c, d, e, f, g, h};
  for (int j = 0; j < 8; ++j) _mm512_store_si512(state[j], add(out[j], splat(kInit[j])));
}

#endif  // BMG_SHA512_LANES

}  // namespace

#if BMG_SHA512_LANES

bool detail::cpu_has_avx512f() noexcept {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") != 0;
  }();
  return ok;
}

// Words are byte-swapped with memcpy and __builtin_bswap64: GCC 12 at
// -O2 leaves a byte loop as a loop, which tripled the cost of a pass.
void detail::sha512_lanes(std::span<const Sha512Parts> msgs, Digest512* out) noexcept {
  alignas(64) std::uint64_t words[16][kLanes] = {};
  for (std::size_t lane = 0; lane < msgs.size(); ++lane) {
    std::uint8_t block[128] = {};
    std::size_t len = 0;
    for (const ByteView part : msgs[lane]) {
      if (!part.empty()) std::memcpy(block + len, part.data(), part.size());
      len += part.size();
    }
    block[len] = 0x80;
    const std::uint64_t bits = __builtin_bswap64(static_cast<std::uint64_t>(len) * 8);
    std::memcpy(block + 120, &bits, 8);
    for (int j = 0; j < 16; ++j) {
      std::uint64_t v = 0;
      std::memcpy(&v, block + 8 * j, 8);
      words[j][lane] = __builtin_bswap64(v);
    }
  }
  alignas(64) std::uint64_t state[8][kLanes];
  compress_lanes(words, state);
  for (std::size_t lane = 0; lane < msgs.size(); ++lane) {
    for (int j = 0; j < 8; ++j) {
      const std::uint64_t v = __builtin_bswap64(state[j][lane]);
      std::memcpy(out[lane].data() + 8 * j, &v, 8);
    }
  }
}

#else  // !BMG_SHA512_LANES

bool detail::cpu_has_avx512f() noexcept { return false; }

void detail::sha512_lanes(std::span<const Sha512Parts>, Digest512*) noexcept {
  __builtin_trap();
}

#endif  // BMG_SHA512_LANES

void Sha512::reset() noexcept {
  for (int i = 0; i < 8; ++i) state_[static_cast<std::size_t>(i)] = kInit[i];
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha512::process_block(const std::uint8_t* block) noexcept {
  std::uint64_t w[80];
  for (int i = 0; i < 16; ++i) {
    std::uint64_t v = 0;
    for (int j = 0; j < 8; ++j) v = (v << 8) | block[i * 8 + j];
    w[i] = v;
  }
  for (int i = 16; i < 80; ++i) {
    const std::uint64_t s0 = rotr(w[i - 15], 1) ^ rotr(w[i - 15], 8) ^ (w[i - 15] >> 7);
    const std::uint64_t s1 = rotr(w[i - 2], 19) ^ rotr(w[i - 2], 61) ^ (w[i - 2] >> 6);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint64_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  std::uint64_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];

  for (int i = 0; i < 80; ++i) {
    const std::uint64_t s1 = rotr(e, 14) ^ rotr(e, 18) ^ rotr(e, 41);
    const std::uint64_t ch = (e & f) ^ (~e & g);
    const std::uint64_t t1 = h + s1 + ch + kRound[i] + w[i];
    const std::uint64_t s0 = rotr(a, 28) ^ rotr(a, 34) ^ rotr(a, 39);
    const std::uint64_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint64_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha512::update(ByteView data) noexcept {
  total_len_ += data.size();
  std::size_t pos = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 128 - buffer_len_);
    std::copy(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(take),
              buffer_.begin() + static_cast<std::ptrdiff_t>(buffer_len_));
    buffer_len_ += take;
    pos = take;
    if (buffer_len_ == 128) {
      process_block(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (pos + 128 <= data.size()) {
    process_block(data.data() + pos);
    pos += 128;
  }
  if (pos < data.size()) {
    std::copy(data.begin() + static_cast<std::ptrdiff_t>(pos), data.end(), buffer_.begin());
    buffer_len_ = data.size() - pos;
  }
}

Digest512 Sha512::finish() noexcept {
  const std::uint64_t bit_len = total_len_ * 8;
  std::uint8_t pad[144] = {0x80};
  const std::size_t pad_len =
      (buffer_len_ < 112) ? (112 - buffer_len_) : (240 - buffer_len_);
  update(ByteView{pad, pad_len});
  // 128-bit length: high 8 bytes are zero for any realistic input.
  std::uint8_t len_bytes[16] = {};
  for (int i = 0; i < 8; ++i)
    len_bytes[8 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  std::copy(len_bytes, len_bytes + 16,
            buffer_.begin() + static_cast<std::ptrdiff_t>(buffer_len_));
  process_block(buffer_.data());

  Digest512 out;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t v = state_[static_cast<std::size_t>(i)];
    for (int j = 0; j < 8; ++j)
      out[static_cast<std::size_t>(i * 8 + j)] = static_cast<std::uint8_t>(v >> (56 - 8 * j));
  }
  return out;
}

Digest512 Sha512::digest(ByteView data) noexcept {
  Sha512 h;
  h.update(data);
  return h.finish();
}

}  // namespace bmg::crypto
