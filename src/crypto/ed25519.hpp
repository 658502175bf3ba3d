// Ed25519 (RFC 8032) implemented from scratch: curve25519 field and
// group arithmetic plus scalar arithmetic mod the group order L.
//
// Real signatures matter for this reproduction: the paper's costs and
// latencies hinge on *how many* signatures must be produced/verified
// and how expensive verification is inside the host runtime's compute
// budget.  Tested against the RFC 8032 test vectors.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.hpp"

namespace bmg::crypto::ed25519 {

using Seed = std::array<std::uint8_t, 32>;
using PublicKeyBytes = std::array<std::uint8_t, 32>;
using SignatureBytes = std::array<std::uint8_t, 64>;

/// A signing key expanded from its 32-byte seed (RFC 8032 §5.1.5):
/// SHA-512(seed) split into the clamped secret scalar and the nonce
/// prefix, plus the public key [scalar]B.  Expanding once per key
/// leaves per signature one base-point multiply, one field inversion
/// (shared by a batch) and two SHA-512s: the nonce H(prefix || M) and
/// the challenge H(R || A || M).
struct ExpandedKey {
  std::array<std::uint8_t, 32> scalar;  ///< clamped, little-endian
  std::array<std::uint8_t, 32> prefix;  ///< hashed with the message into the nonce
  PublicKeyBytes pub;
};

[[nodiscard]] ExpandedKey expand(const Seed& seed);

/// Signs `msg` (RFC 8032 §5.1.6).
[[nodiscard]] SignatureBytes sign(const ExpandedKey& key, ByteView msg);

/// Signs one `msg` with every key, as a chain's validators sign one
/// commit: out[i] == sign(*keys[i], msg) byte for byte.  Throws
/// std::invalid_argument, before writing anything, unless `out` holds
/// exactly keys.size() signatures.  On a CPU with AVX-512 IFMA the
/// nonce multiplies [r]B run eight keys at a time, one per vector
/// lane, and a remainder of r < 8 keys spreads each over 8 / r lanes;
/// every R is then compressed with one shared field inversion.  The
/// nonce hashes, while msg is at most 79 bytes, and the challenge
/// hashes, while it is at most 47, run eight keys at a time on the
/// lanes too (one SHA-512 block each); longer messages hash one by
/// one.  `sign` is this call with one key.
void sign_batch(std::span<const ExpandedKey* const> keys, ByteView msg,
                std::span<SignatureBytes> out);

/// Verifies a signature (RFC 8032 §5.1.7): strict S < L, canonical
/// point encodings, and the cofactored equation [8][S]B = [8]R + [8][k]A.
[[nodiscard]] bool verify(const PublicKeyBytes& pub, ByteView msg, const SignatureBytes& sig);

/// Public keys per thread whose decoded verification tables `verify`
/// and `verify_batch` keep between calls (about 1.9 KiB each), and the
/// most warm keys whose 15 KiB fixed-base combs one process-wide cache
/// holds (15 MiB at most).  A thread's memo is cleared wholesale when a
/// call might overflow it; the comb cache is never cleared, and once
/// it is full further keys stay on the memo's tables.
inline constexpr std::size_t kKeyMemoCapacity = 1024;

/// A key is warm once its comb is in the process-wide cache.  A thread
/// takes a published comb on any use of the key and builds it on the
/// key's kWarmKeyUses-th use since its memo last cleared.  A build costs
/// what six to ten uses on the comb save, and one channel handshake
/// uses each validator key two or three times, so a handshake builds
/// none.
inline constexpr std::size_t kWarmKeyUses = 16;

/// One signature of a batch; `msg` must stay alive for the call.
struct VerifyItem {
  PublicKeyBytes pub;
  ByteView msg;
  SignatureBytes sig;
};

/// Batch verification of many (pub, msg, sig) triples at once.
///
/// An item whose key is warm (see kWarmKeyUses) is checked on its own:
/// [S]B - [k]A comes from fixed-base combs of B and of -A, and the
/// results of all warm items are compressed with one shared field
/// inversion and compared with their R bytes.  On a CPU with AVX-512
/// IFMA the warm items' comb multiplies run eight at a time, one per
/// vector lane, and a remainder of r < 8 spreads each over 8 / r
/// lanes (a lone item, as in `verify`, over all eight); the challenge
/// hashes of all items, warm or not, whose message is at most 47 bytes
/// run eight at a time on the lanes as well.  The other items check
/// one random-linear-combination equation
///   [8][sum z_i S_i] B  ==  [8](sum [z_i] R_i + sum [z_i k_i] A_i)
/// with per-item 128-bit coefficients z_i derived Fiat–Shamir style
/// from them.  Every scalar is split at 2^128 onto tables of B,
/// [2^128]B, A_i and [2^128]A_i, so all points share one doubling
/// chain of at most ~129 steps (Straus).  If the combined check fails,
/// each item is re-verified individually so callers still learn
/// *which* signature is bad.  Accepts exactly the signatures `verify`
/// accepts (same canonical-S, canonical-encoding and
/// cofactored-equation rules); the cofactor makes this hold for keys
/// and R values with a small-order component too.
[[nodiscard]] std::vector<bool> verify_batch(std::span<const VerifyItem> items);

}  // namespace bmg::crypto::ed25519
