#include "trie/snapshot.hpp"

namespace bmg::trie {

const RefRec& TrieSnapshot::root() const {
  if (!valid_) throw TrieError("snapshot: null snapshot");
  return root_;
}

Hash32 TrieSnapshot::root_hash() const {
  if (root().is_empty()) return Hash32{};
  return root_.hash;
}

Lookup TrieSnapshot::get(ByteView key, Hash32* value_out) const {
  return walk_get(root(), key, value_out);
}

Proof TrieSnapshot::prove(ByteView key) const { return walk_prove(root(), key); }

// ---------------------------------------------------------------------------
// ProofService

std::vector<Proof> ProofService::prove_batch(const TrieSnapshot& snapshot,
                                             const std::vector<Bytes>& keys) {
  std::vector<Proof> out(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) out[i] = snapshot.prove(keys[i]);
  return out;
}

}  // namespace bmg::trie
