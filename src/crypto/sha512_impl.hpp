// Private interface between the SHA-512 lanes (sha512.cpp) and their
// callers: Ed25519's lane backend, the tests and the micro benchmarks.
// Not installed, not part of the public crypto API.
#pragma once

#include <array>
#include <cstddef>
#include <span>

#include "common/bytes.hpp"
#include "crypto/sha512.hpp"

namespace bmg::crypto::detail {

/// The longest message one padded SHA-512 block holds: 128 bytes less
/// the 0x80 pad byte and the 16-byte bit length.
inline constexpr std::size_t kSha512OneBlockMax = 111;

/// A message hashed as the concatenation of its parts.
using Sha512Parts = std::array<ByteView, 3>;

/// True if the CPU has AVX-512F, which sha512_lanes needs.
[[nodiscard]] bool cpu_has_avx512f() noexcept;

/// out[i] = SHA-512(msgs[i][0] || msgs[i][1] || msgs[i][2]) for every
/// i < msgs.size() <= 8, each message at most kSha512OneBlockMax bytes:
/// one compression with one message per 64-bit lane of AVX-512F.
/// Callers consult cpu_has_avx512f() first.
void sha512_lanes(std::span<const Sha512Parts> msgs, Digest512* out) noexcept;

}  // namespace bmg::crypto::detail
