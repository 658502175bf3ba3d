// Node hashing and proof structures shared by the trie (prover side)
// and the stand-alone proof verifier.
//
// Hash preimages are tagged canonical encodings:
//   leaf      : 0x00 || nibbles(suffix) || value
//   branch    : 0x01 || bitmap(u16)     || child hashes in index order
//   extension : 0x02 || nibbles(path)   || child hash
//
// The same encodings travel in proofs, so a verifier can recompute the
// root commitment from (key, proof) with no access to the trie.
#pragma once

#include <array>
#include <optional>
#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "trie/nibbles.hpp"

namespace bmg::trie {

[[nodiscard]] Hash32 hash_leaf(const Nibbles& suffix, const Hash32& value);
[[nodiscard]] Hash32 hash_branch(const std::array<std::optional<Hash32>, 16>& children);
[[nodiscard]] Hash32 hash_extension(const Nibbles& path, const Hash32& child);

/// Raw-span variants: trie nodes keep nibble paths in fixed-size
/// arrays, not Nibbles, so the trie hashes straight from a (pointer,
/// length) view of them.  Same preimages, same hashes — the Nibbles
/// overloads delegate here.
[[nodiscard]] Hash32 hash_leaf(ByteView suffix_nibbles, const Hash32& value);
[[nodiscard]] Hash32 hash_extension(ByteView path_nibbles, const Hash32& child);

/// Proof node mirroring a trie node's hash preimage.
struct ProofLeaf {
  Nibbles suffix;
  Hash32 value;
};
struct ProofBranch {
  std::array<std::optional<Hash32>, 16> children;
};
struct ProofExtension {
  Nibbles path;
  Hash32 child;
};
using ProofNode = std::variant<ProofLeaf, ProofBranch, ProofExtension>;

[[nodiscard]] Hash32 hash_proof_node(const ProofNode& node);

/// A (non-)membership proof: the chain of nodes from the root toward
/// the key.  For membership the chain ends in the key's leaf; for
/// non-membership it ends at the divergence point.
struct Proof {
  std::vector<ProofNode> nodes;

  [[nodiscard]] Bytes serialize() const;
  /// Appends the serialization to `e` (exactly `byte_size()` bytes) —
  /// payload builders inline the proof without a temporary buffer.
  void serialize_into(Encoder& e) const;
  [[nodiscard]] static Proof deserialize(ByteView data);
  /// Serialized size in bytes (what a relayer pays to ship it).
  /// Computed arithmetically; never allocates.
  [[nodiscard]] std::size_t byte_size() const;
};

/// Result of checking a proof against a root commitment and a key.
struct VerifyOutcome {
  enum class Kind {
    kFound,    ///< key present; `value` holds the proven value
    kAbsent,   ///< key proven absent
    kInvalid,  ///< proof malformed or inconsistent with the root
  };
  Kind kind = Kind::kInvalid;
  Hash32 value{};
};

/// Verifies `proof` for `key` against `root`.  Pure function: suitable
/// for on-chain verification by a counterparty light client.
[[nodiscard]] VerifyOutcome verify_proof(const Hash32& root, ByteView key,
                                         const Proof& proof);

}  // namespace bmg::trie
