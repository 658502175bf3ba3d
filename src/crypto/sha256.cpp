#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

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

/// Padded length in 64-byte blocks of an n-byte message.
std::size_t padded_blocks(std::size_t n) noexcept { return (n + 1 + 8 + 63) / 64; }

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

/// Writes the fully padded form of `msg` into `out` (padded_blocks(msg)*64 bytes).
void pad_into(std::uint8_t* out, ByteView msg) noexcept {
  const std::size_t blocks = padded_blocks(msg.size());
  if (!msg.empty()) std::memcpy(out, msg.data(), msg.size());
  std::memset(out + msg.size(), 0, blocks * 64 - msg.size());
  out[msg.size()] = 0x80;
  const std::uint64_t bit_len = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 0; i < 8; ++i)
    out[blocks * 64 - 8 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
}

/// Hashes a group of messages that all pad to `nblocks` blocks using
/// the AVX2 8-lane kernel; `idx` holds their positions in the batch.
void batch_avx2_group(const ByteView* msgs, Hash32* out, const std::uint32_t* idx,
                      std::size_t count, std::size_t nblocks,
                      std::vector<std::uint8_t>& scratch) {
  scratch.resize(8 * nblocks * 64);
  std::size_t done = 0;
  while (count - done >= 8) {
    const std::uint8_t* lanes[8];
    for (std::size_t l = 0; l < 8; ++l) {
      std::uint8_t* slot = scratch.data() + l * nblocks * 64;
      pad_into(slot, msgs[idx[done + l]]);
      lanes[l] = slot;
    }
    Hash32 digests[8];
    detail::sha256_avx2_x8(lanes, nblocks, digests);
    for (std::size_t l = 0; l < 8; ++l) out[idx[done + l]] = digests[l];
    done += 8;
  }
  for (; done < count; ++done) out[idx[done]] = Sha256::digest(msgs[idx[done]]);
}

/// Batch via AVX2 lanes: group messages by padded block count so each
/// 8-lane dispatch runs equal-length lanes.
void batch_avx2(const ByteView* msgs, std::size_t n, Hash32* out) {
  // Sort indices by block count (counting via a small map of buckets).
  std::vector<std::uint32_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = static_cast<std::uint32_t>(i);
  std::sort(idx.begin(), idx.end(), [&](std::uint32_t a, std::uint32_t b) {
    return padded_blocks(msgs[a].size()) < padded_blocks(msgs[b].size());
  });
  std::vector<std::uint8_t> scratch;
  std::size_t start = 0;
  while (start < n) {
    const std::size_t nblocks = padded_blocks(msgs[idx[start]].size());
    std::size_t end = start + 1;
    while (end < n && padded_blocks(msgs[idx[end]].size()) == nblocks) ++end;
    batch_avx2_group(msgs, out, idx.data() + start, end - start, nblocks, scratch);
    start = end;
  }
}

enum class BatchPolicy { kSerial, kAvx2 };

/// SHA-NI single-stream beats 8-lane AVX2 on cores that have it (≈2-4x
/// lower cycles/byte), so multi-lane batching only pays when the CPU
/// lacks the SHA extensions.
BatchPolicy resolve_batch_policy() noexcept {
  if (!detail::cpu_has_sha_ni() && detail::cpu_has_avx2()) return BatchPolicy::kAvx2;
  return BatchPolicy::kSerial;
}

BatchPolicy active_batch_policy() noexcept {
  static const BatchPolicy p = resolve_batch_policy();
  return p;
}

}  // namespace

bool sha256_impl_available(Sha256Impl impl) noexcept {
  switch (impl) {
    case Sha256Impl::kScalar:
      return true;
    case Sha256Impl::kShaNi:
      return detail::cpu_has_sha_ni();
    case Sha256Impl::kAvx2:
      return detail::cpu_has_avx2();
  }
  return false;
}

Sha256Impl sha256_active_impl() noexcept {
  return active_compress() == &detail::compress_shani ? Sha256Impl::kShaNi
                                                      : Sha256Impl::kScalar;
}

void Sha256::reset() noexcept {
  std::copy(std::begin(detail::kSha256Init), std::end(detail::kSha256Init),
            state_.begin());
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha256::process_blocks(const std::uint8_t* blocks, std::size_t n) noexcept {
  active_compress()(state_.data(), blocks, n);
}

void Sha256::update(ByteView data) noexcept {
  total_len_ += data.size();
  std::size_t pos = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::copy(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(take),
              buffer_.begin() + static_cast<std::ptrdiff_t>(buffer_len_));
    buffer_len_ += take;
    pos = take;
    if (buffer_len_ == 64) {
      process_blocks(buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  const std::size_t full = (data.size() - pos) / 64;
  if (full > 0) {
    process_blocks(data.data() + pos, full);
    pos += full * 64;
  }
  if (pos < data.size()) {
    std::copy(data.begin() + static_cast<std::ptrdiff_t>(pos), data.end(), buffer_.begin());
    buffer_len_ = data.size() - pos;
  }
}

Hash32 Sha256::finish() noexcept {
  const std::uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros, 64-bit big-endian length.
  std::uint8_t pad[72] = {0x80};
  const std::size_t pad_len =
      (buffer_len_ < 56) ? (56 - buffer_len_) : (120 - buffer_len_);
  update(ByteView{pad, pad_len});
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i)
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  // update() would re-count the length bytes; feed them directly.
  total_len_ -= pad_len;  // undo the pad length accounting (irrelevant now)
  std::copy(len_bytes, len_bytes + 8, buffer_.begin() + static_cast<std::ptrdiff_t>(buffer_len_));
  process_blocks(buffer_.data(), 1);
  return state_to_hash(state_.data());
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
  if (n >= 8 && active_batch_policy() == BatchPolicy::kAvx2) {
    batch_avx2(msgs, n, out);
    return;
  }
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
    case Sha256Impl::kAvx2: {
      // Single-stream via the 8-lane kernel: replicate across lanes.
      const std::size_t nblocks = padded_blocks(data.size());
      std::vector<std::uint8_t> padded(nblocks * 64);
      pad_into(padded.data(), data);
      const std::uint8_t* lanes[8];
      for (auto& lane : lanes) lane = padded.data();
      Hash32 digests[8];
      detail::sha256_avx2_x8(lanes, nblocks, digests);
      return digests[0];
    }
  }
  throw std::runtime_error("sha256: unknown backend");
}

void sha256_batch_with(Sha256Impl impl, const ByteView* msgs, std::size_t n,
                       Hash32* out) {
  if (!sha256_impl_available(impl))
    throw std::runtime_error("sha256: backend unavailable on this CPU");
  if (impl == Sha256Impl::kAvx2) {
    batch_avx2(msgs, n, out);
    return;
  }
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
