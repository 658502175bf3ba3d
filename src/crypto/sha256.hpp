// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for every commitment in the system: trie node hashes, guest
// block hashes, IBC packet commitments.  Tested against NIST vectors.
//
// The compression function is runtime-dispatched: SHA-NI (x86 SHA
// extensions) when the CPU has it, otherwise a portable scalar
// implementation.  SHA-NI byte-matches the scalar fallback
// (property-tested against it).
#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace bmg::crypto {

/// Which SHA-256 backend to run.  kScalar is always available.
enum class Sha256Impl : std::uint8_t {
  kScalar = 0,  ///< portable C++ (the reference implementation)
  kShaNi = 1,   ///< x86 SHA extensions
};

/// True if `impl` can run on this CPU.
[[nodiscard]] bool sha256_impl_available(Sha256Impl impl) noexcept;

class Sha256 {
 public:
  /// One-shot digest: whole blocks go straight to the compression
  /// function, the tail is padded on the stack.
  [[nodiscard]] static Hash32 digest(ByteView data) noexcept;
};

/// sha256(a || b) — common pattern for combining two hashes.
[[nodiscard]] Hash32 sha256_pair(const Hash32& a, const Hash32& b) noexcept;

/// Hashes `n` independent messages into `out[0..n)`, each with
/// `Sha256::digest`.  No library code calls it; it stays while
/// perfbench wraps it by its mangled name.
void sha256_batch(const ByteView* msgs, std::size_t n, Hash32* out);

/// Testing/benchmark hooks: force a specific backend.  Throws
/// std::runtime_error if `impl` is unavailable on this CPU.
[[nodiscard]] Hash32 sha256_digest_with(Sha256Impl impl, ByteView data);
void sha256_batch_with(Sha256Impl impl, const ByteView* msgs, std::size_t n,
                       Hash32* out);

}  // namespace bmg::crypto
