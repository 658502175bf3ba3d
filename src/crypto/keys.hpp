// Ergonomic key / signature wrappers over the raw Ed25519 primitives.
//
// Every on-chain actor in the reproduction — guest validators, the
// counterparty chain's validators, relayers and client accounts — is
// identified by an Ed25519 public key, exactly as on Solana.
#pragma once

#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/ed25519.hpp"

namespace bmg::crypto {

class PublicKey {
 public:
  PublicKey() = default;
  explicit PublicKey(const ed25519::PublicKeyBytes& raw) : raw_(raw) {}

  [[nodiscard]] const ed25519::PublicKeyBytes& raw() const noexcept { return raw_; }
  [[nodiscard]] ByteView view() const noexcept { return ByteView{raw_}; }
  [[nodiscard]] std::string hex() const { return to_hex(view()); }
  /// Short printable identifier (first 8 hex chars).
  [[nodiscard]] std::string short_id() const { return hex().substr(0, 8); }

  friend bool operator==(const PublicKey&, const PublicKey&) = default;
  friend auto operator<=>(const PublicKey&, const PublicKey&) = default;

 private:
  ed25519::PublicKeyBytes raw_{};
};

/// Folds `key` into the seed `h` (FNV-1a over its bytes), so agents
/// that share a starting seed draw independent streams per key.
[[nodiscard]] inline std::uint64_t fold_key(std::uint64_t h,
                                            const PublicKey& key) noexcept {
  for (unsigned char b : key.raw()) h = (h ^ b) * 0x1000'0000'01B3ull;
  return h;
}

struct PublicKeyHasher {
  [[nodiscard]] std::size_t operator()(const PublicKey& k) const noexcept {
    std::size_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | k.raw()[static_cast<std::size_t>(i)];
    return v;
  }
};

class Signature {
 public:
  Signature() = default;
  explicit Signature(const ed25519::SignatureBytes& raw) : raw_(raw) {}

  [[nodiscard]] const ed25519::SignatureBytes& raw() const noexcept { return raw_; }
  [[nodiscard]] ByteView view() const noexcept { return ByteView{raw_}; }
  [[nodiscard]] std::string hex() const { return to_hex(view()); }

  friend bool operator==(const Signature&, const Signature&) = default;

 private:
  ed25519::SignatureBytes raw_{};
};

class PrivateKey;

/// Signs `msg` with every key of `keys`: element i equals
/// keys[i]->sign(msg).  A chain's validators signing one commit go
/// through here in one call, which runs ed25519::sign_batch: eight
/// nonce multiplies at a time on CPUs with AVX-512 IFMA and one field
/// inversion for all of them.
[[nodiscard]] std::vector<Signature> sign_all(std::span<const PrivateKey* const> keys,
                                              ByteView msg);

/// A signing key.  Holds the key expanded from its seed on construction
/// (secret scalar, nonce prefix and public key), so signing never
/// re-hashes the seed or re-derives the public key.
class PrivateKey {
 public:
  /// Deterministic key for tests/simulations: seed = SHA-256(label).
  [[nodiscard]] static PrivateKey from_label(std::string_view label);
  [[nodiscard]] static PrivateKey from_seed(const ed25519::Seed& seed);

  [[nodiscard]] const PublicKey& public_key() const noexcept { return pub_; }
  /// One signature; see sign_all for many keys over one message.
  [[nodiscard]] Signature sign(ByteView msg) const;

 private:
  friend std::vector<Signature> sign_all(std::span<const PrivateKey* const> keys, ByteView msg);

  PrivateKey() = default;

  ed25519::ExpandedKey key_{};
  PublicKey pub_;  ///< key_.pub, wrapped
};

/// Verifies `sig` over `msg` under `pub`.
[[nodiscard]] bool verify(const PublicKey& pub, ByteView msg, const Signature& sig);

}  // namespace bmg::crypto
