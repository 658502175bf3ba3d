// x86 SHA-256 backend: SHA-NI compression.  It is compiled with a
// per-function target attribute so the rest of the build needs no -m
// flags, and guarded by a runtime CPUID check — callers must consult
// cpu_has_sha_ni() first.
//
// On non-x86 targets this file compiles to "feature absent" stubs and
// the portable scalar path in sha256.cpp is used everywhere.
#include "crypto/sha256_impl.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define BMG_SHA_X86 1
#include <immintrin.h>
#else
#define BMG_SHA_X86 0
#endif

namespace bmg::crypto::detail {

#if BMG_SHA_X86

bool cpu_has_sha_ni() noexcept {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") != 0;
  }();
  return ok;
}

__attribute__((target("sha,sse4.1"))) void compress_shani(
    std::uint32_t state[8], const std::uint8_t* data, std::size_t nblocks) noexcept {
  // Register layout required by sha256rnds2: STATE0 = {A,B,E,F},
  // STATE1 = {C,D,G,H} (high to low words).
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const auto k = [](int i) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kSha256Round[i]));
  };

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);            // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);      // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);  // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);       // CDGH

  while (nblocks > 0) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;
    __m128i msg;

    // Rounds 0-3
    __m128i msg0 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 0)), kByteSwap);
    msg = _mm_add_epi32(msg0, k(0));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    // Rounds 4-7
    __m128i msg1 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16)), kByteSwap);
    msg = _mm_add_epi32(msg1, k(4));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    // Rounds 8-11
    __m128i msg2 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32)), kByteSwap);
    msg = _mm_add_epi32(msg2, k(8));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    // Rounds 12-15
    __m128i msg3 = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48)), kByteSwap);
    msg = _mm_add_epi32(msg3, k(12));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    tmp = _mm_alignr_epi8(msg3, msg2, 4);
    msg0 = _mm_add_epi32(msg0, tmp);
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    // Rounds 16-47: the steady-state schedule/round pattern.
    for (int r = 16; r < 48; r += 16) {
      msg = _mm_add_epi32(msg0, k(r));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      tmp = _mm_alignr_epi8(msg0, msg3, 4);
      msg1 = _mm_add_epi32(msg1, tmp);
      msg1 = _mm_sha256msg2_epu32(msg1, msg0);
      msg = _mm_shuffle_epi32(msg, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
      msg3 = _mm_sha256msg1_epu32(msg3, msg0);

      msg = _mm_add_epi32(msg1, k(r + 4));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      tmp = _mm_alignr_epi8(msg1, msg0, 4);
      msg2 = _mm_add_epi32(msg2, tmp);
      msg2 = _mm_sha256msg2_epu32(msg2, msg1);
      msg = _mm_shuffle_epi32(msg, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
      msg0 = _mm_sha256msg1_epu32(msg0, msg1);

      msg = _mm_add_epi32(msg2, k(r + 8));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      tmp = _mm_alignr_epi8(msg2, msg1, 4);
      msg3 = _mm_add_epi32(msg3, tmp);
      msg3 = _mm_sha256msg2_epu32(msg3, msg2);
      msg = _mm_shuffle_epi32(msg, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
      msg1 = _mm_sha256msg1_epu32(msg1, msg2);

      msg = _mm_add_epi32(msg3, k(r + 12));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      tmp = _mm_alignr_epi8(msg3, msg2, 4);
      msg0 = _mm_add_epi32(msg0, tmp);
      msg0 = _mm_sha256msg2_epu32(msg0, msg3);
      msg = _mm_shuffle_epi32(msg, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
      msg2 = _mm_sha256msg1_epu32(msg2, msg3);
    }

    // Rounds 48-51
    msg = _mm_add_epi32(msg0, k(48));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    tmp = _mm_alignr_epi8(msg0, msg3, 4);
    msg1 = _mm_add_epi32(msg1, tmp);
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    // Rounds 52-55
    msg = _mm_add_epi32(msg1, k(52));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    tmp = _mm_alignr_epi8(msg1, msg0, 4);
    msg2 = _mm_add_epi32(msg2, tmp);
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    // Rounds 56-59
    msg = _mm_add_epi32(msg2, k(56));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    tmp = _mm_alignr_epi8(msg2, msg1, 4);
    msg3 = _mm_add_epi32(msg3, tmp);
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    // Rounds 60-63
    msg = _mm_add_epi32(msg3, k(60));
    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);

    data += 64;
    --nblocks;
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);         // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);      // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);   // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);      // HGFE -> EFGH word order
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}

#else  // !BMG_SHA_X86

bool cpu_has_sha_ni() noexcept { return false; }

void compress_shani(std::uint32_t state[8], const std::uint8_t* data,
                    std::size_t nblocks) noexcept {
  // Unreachable: callers gate on cpu_has_sha_ni().
  compress_scalar(state, data, nblocks);
}

#endif  // BMG_SHA_X86

}  // namespace bmg::crypto::detail
