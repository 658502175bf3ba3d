#include "trie/snapshot.hpp"

namespace bmg::trie {

const TrieSnapshot::Impl& TrieSnapshot::impl() const {
  if (impl_ == nullptr) throw TrieError("snapshot: null snapshot");
  return *impl_;
}

Hash32 TrieSnapshot::root_hash() const {
  const Impl& im = impl();
  if (im.root.is_empty()) return Hash32{};
  return im.root.hash;
}

Lookup TrieSnapshot::get(ByteView key, Hash32* value_out) const {
  const Impl& im = impl();
  return walk_get(*im.core, im.tables, im.root, key, value_out);
}

Proof TrieSnapshot::prove(ByteView key) const {
  const Impl& im = impl();
  return walk_prove(*im.core, im.tables, im.root, key);
}

// ---------------------------------------------------------------------------
// ProofService

std::vector<Proof> ProofService::prove_batch(const TrieSnapshot& snapshot,
                                             const std::vector<Bytes>& keys) {
  std::vector<Proof> out(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) out[i] = snapshot.prove(keys[i]);
  return out;
}

}  // namespace bmg::trie
