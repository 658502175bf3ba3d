// Private interface between the Ed25519 implementation (ed25519.cpp)
// and its tests and micro benchmarks.  Not installed, not part of the
// public crypto API.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/ed25519.hpp"

namespace bmg::crypto::ed25519::detail {

/// out = 1/x mod p, p = 2^255 - 19, canonical and little-endian; 0 and
/// p map to 0.  x is read as 255 bits (the top bit of in[31] is
/// ignored), so non-canonical values p..2^255 - 1 may be passed.
void fe_invert_bytes(std::uint8_t out[32], const std::uint8_t in[32]);

/// The backends of the comb multiplies in sign_batch and in
/// verify_batch's warm path, and of their one-block SHA-512s.
/// sign_batch and verify_batch take kIfma whenever the CPU has it;
/// kScalar is always available.
enum class Backend : std::uint8_t {
  kScalar = 0,  ///< portable C++: the fallback and the oracle
  kIfma = 1,    ///< eight lanes of AVX-512 IFMA; SHA-512 on AVX-512F lanes
};

/// True if `backend` can run on this CPU.
[[nodiscard]] bool backend_available(Backend backend) noexcept;

/// sign_batch and verify_batch on a forced backend, for tests and
/// benchmarks.  Throw std::runtime_error if `backend` is unavailable.
void sign_batch_with(Backend backend, std::span<const ExpandedKey* const> keys, ByteView msg,
                     std::span<SignatureBytes> out);
[[nodiscard]] std::vector<bool> verify_batch_with(Backend backend,
                                                  std::span<const VerifyItem> items);

/// True once `pub`'s comb is in the process-wide cache, so that
/// verify_batch checks its items on the warm path.
[[nodiscard]] bool has_comb(const PublicKeyBytes& pub);

}  // namespace bmg::crypto::ed25519::detail
