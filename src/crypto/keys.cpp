#include "crypto/keys.hpp"

#include "crypto/sha256.hpp"

namespace bmg::crypto {

PrivateKey PrivateKey::from_label(std::string_view label) {
  const Hash32 h = Sha256::digest(ByteView{
      reinterpret_cast<const std::uint8_t*>(label.data()), label.size()});
  ed25519::Seed seed;
  std::copy(h.bytes.begin(), h.bytes.end(), seed.begin());
  return from_seed(seed);
}

PrivateKey PrivateKey::from_seed(const ed25519::Seed& seed) {
  PrivateKey k;
  k.key_ = ed25519::expand(seed);
  k.pub_ = PublicKey(k.key_.pub);
  return k;
}

Signature PrivateKey::sign(ByteView msg) const {
  return Signature(ed25519::sign(key_, msg));
}

std::vector<Signature> sign_all(std::span<const PrivateKey* const> keys, ByteView msg) {
  std::vector<const ed25519::ExpandedKey*> expanded(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) expanded[i] = &keys[i]->key_;
  std::vector<ed25519::SignatureBytes> raw(keys.size());
  ed25519::sign_batch(expanded, msg, raw);
  return {raw.begin(), raw.end()};
}

bool verify(const PublicKey& pub, ByteView msg, const Signature& sig) {
  return ed25519::verify(pub.raw(), msg, sig.raw());
}

}  // namespace bmg::crypto
