#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "crypto/sha256_impl.hpp"

namespace bmg::crypto {

namespace {

std::uint32_t rotr(std::uint32_t x, int n) noexcept { return (x >> n) | (x << (32 - n)); }

using CompressFn = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);

/// Resolved once per process: the fastest single-stream compression.
CompressFn resolve_compress() noexcept {
  if (detail::cpu_has_sha_ni()) return &detail::compress_shani;
  return &detail::compress_scalar;
}

CompressFn active_compress() noexcept {
  static const CompressFn fn = resolve_compress();
  return fn;
}

void store_be32(std::uint8_t* out, std::uint32_t v) noexcept {
  out[0] = static_cast<std::uint8_t>(v >> 24);
  out[1] = static_cast<std::uint8_t>(v >> 16);
  out[2] = static_cast<std::uint8_t>(v >> 8);
  out[3] = static_cast<std::uint8_t>(v);
}

Hash32 state_to_hash(const std::uint32_t state[8]) noexcept {
  Hash32 out;
  for (std::size_t i = 0; i < 8; ++i) store_be32(&out.bytes[i * 4], state[i]);
  return out;
}

/// One-shot digest through a specific compression function: whole
/// blocks go straight from the input, the tail is padded on the stack.
Hash32 oneshot(CompressFn compress, ByteView data) noexcept {
  std::uint32_t state[8];
  std::copy(std::begin(detail::kSha256Init), std::end(detail::kSha256Init), state);

  const std::size_t full = data.size() / 64;
  if (full > 0) compress(state, data.data(), full);

  std::uint8_t tail[128] = {};
  const std::size_t rem = data.size() - full * 64;
  if (rem > 0) std::memcpy(tail, data.data() + full * 64, rem);
  tail[rem] = 0x80;
  const std::size_t tail_blocks = (rem + 1 + 8 <= 64) ? 1 : 2;
  const std::uint64_t bit_len = static_cast<std::uint64_t>(data.size()) * 8;
  for (int i = 0; i < 8; ++i)
    tail[tail_blocks * 64 - 8 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  compress(state, tail, tail_blocks);
  return state_to_hash(state);
}

}  // namespace

bool sha256_impl_available(Sha256Impl impl) noexcept {
  switch (impl) {
    case Sha256Impl::kScalar:
      return true;
    case Sha256Impl::kShaNi:
      return detail::cpu_has_sha_ni();
  }
  return false;
}

Hash32 Sha256::digest(ByteView data) noexcept {
  return oneshot(active_compress(), data);
}

Hash32 sha256_pair(const Hash32& a, const Hash32& b) noexcept {
  std::uint8_t buf[64];
  std::memcpy(buf, a.bytes.data(), 32);
  std::memcpy(buf + 32, b.bytes.data(), 32);
  return Sha256::digest(ByteView{buf, 64});
}

void sha256_batch(const ByteView* msgs, std::size_t n, Hash32* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = Sha256::digest(msgs[i]);
}

Hash32 sha256_digest_with(Sha256Impl impl, ByteView data) {
  if (!sha256_impl_available(impl))
    throw std::runtime_error("sha256: backend unavailable on this CPU");
  switch (impl) {
    case Sha256Impl::kScalar:
      return oneshot(&detail::compress_scalar, data);
    case Sha256Impl::kShaNi:
      return oneshot(&detail::compress_shani, data);
  }
  throw std::runtime_error("sha256: unknown backend");
}

void sha256_batch_with(Sha256Impl impl, const ByteView* msgs, std::size_t n,
                       Hash32* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = sha256_digest_with(impl, msgs[i]);
}

namespace detail {

void compress_scalar(std::uint32_t state[8], const std::uint8_t* blocks,
                     std::size_t n) noexcept {
  for (std::size_t blk = 0; blk < n; ++blk) {
    const std::uint8_t* block = blocks + blk * 64;
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(block[i * 4]) << 24 |
             static_cast<std::uint32_t>(block[i * 4 + 1]) << 16 |
             static_cast<std::uint32_t>(block[i * 4 + 2]) << 8 |
             static_cast<std::uint32_t>(block[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kSha256Round[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

}  // namespace detail

}  // namespace bmg::crypto
