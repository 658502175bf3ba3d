#include "trie/node.hpp"

#include "crypto/sha256.hpp"

namespace bmg::trie {

namespace {
constexpr std::uint8_t kTagLeaf = 0x00;
constexpr std::uint8_t kTagBranch = 0x01;
constexpr std::uint8_t kTagExtension = 0x02;

/// Stack budget for the fixed-shape preimage fast path.  Branch
/// preimages are at most 1 + 2 + 16*32 = 515 bytes; leaf/extension
/// preimages fit whenever the nibble path is under ~1 KiB (any
/// hashed/IBC key).  Longer paths take the heap fallback.
constexpr std::size_t kInlinePreimage = 1024;

std::size_t append_nibbles(std::uint8_t* out, ByteView n) {
  out[0] = static_cast<std::uint8_t>(n.size() >> 8);
  out[1] = static_cast<std::uint8_t>(n.size());
  std::copy(n.begin(), n.end(), out + 2);
  return 2 + n.size();
}
}  // namespace

// The hash_* functions are the trie's three fixed-shape one-shot
// hashers: they lay the canonical preimage out in a stack buffer and
// hand it to the one-shot Sha256::digest, avoiding both the Encoder
// heap allocation and the streaming-update state machine.

Hash32 hash_leaf(ByteView suffix_nibbles, const Hash32& value) {
  std::uint8_t buf[kInlinePreimage];
  if (3 + suffix_nibbles.size() + 32 <= sizeof(buf)) {
    buf[0] = kTagLeaf;
    std::size_t len = 1 + append_nibbles(buf + 1, suffix_nibbles);
    std::copy(value.bytes.begin(), value.bytes.end(), buf + len);
    len += 32;
    return crypto::Sha256::digest(ByteView{buf, len});
  }
  Bytes pre;
  append_leaf_preimage(pre, suffix_nibbles, value);
  return crypto::Sha256::digest(pre);
}

Hash32 hash_leaf(const Nibbles& suffix, const Hash32& value) {
  return hash_leaf(ByteView{suffix.data(), suffix.size()}, value);
}

Hash32 hash_branch(const std::array<std::optional<Hash32>, 16>& children) {
  std::uint8_t buf[515];
  buf[0] = kTagBranch;
  std::uint16_t bitmap = 0;
  for (std::size_t i = 0; i < 16; ++i)
    if (children[i]) bitmap = static_cast<std::uint16_t>(bitmap | (1u << i));
  buf[1] = static_cast<std::uint8_t>(bitmap >> 8);
  buf[2] = static_cast<std::uint8_t>(bitmap);
  std::size_t len = 3;
  for (std::size_t i = 0; i < 16; ++i) {
    if (!children[i]) continue;
    std::copy(children[i]->bytes.begin(), children[i]->bytes.end(), buf + len);
    len += 32;
  }
  return crypto::Sha256::digest(ByteView{buf, len});
}

Hash32 hash_extension(ByteView path_nibbles, const Hash32& child) {
  std::uint8_t buf[kInlinePreimage];
  if (3 + path_nibbles.size() + 32 <= sizeof(buf)) {
    buf[0] = kTagExtension;
    std::size_t len = 1 + append_nibbles(buf + 1, path_nibbles);
    std::copy(child.bytes.begin(), child.bytes.end(), buf + len);
    len += 32;
    return crypto::Sha256::digest(ByteView{buf, len});
  }
  Bytes pre;
  append_extension_preimage(pre, path_nibbles, child);
  return crypto::Sha256::digest(pre);
}

Hash32 hash_extension(const Nibbles& path, const Hash32& child) {
  return hash_extension(ByteView{path.data(), path.size()}, child);
}

void append_leaf_preimage(Bytes& out, ByteView suffix_nibbles, const Hash32& value) {
  out.push_back(kTagLeaf);
  out.push_back(static_cast<std::uint8_t>(suffix_nibbles.size() >> 8));
  out.push_back(static_cast<std::uint8_t>(suffix_nibbles.size()));
  out.insert(out.end(), suffix_nibbles.begin(), suffix_nibbles.end());
  out.insert(out.end(), value.bytes.begin(), value.bytes.end());
}

void append_branch_preimage(Bytes& out,
                            const std::array<std::optional<Hash32>, 16>& children) {
  out.push_back(kTagBranch);
  std::uint16_t bitmap = 0;
  for (std::size_t i = 0; i < 16; ++i)
    if (children[i]) bitmap = static_cast<std::uint16_t>(bitmap | (1u << i));
  out.push_back(static_cast<std::uint8_t>(bitmap >> 8));
  out.push_back(static_cast<std::uint8_t>(bitmap));
  for (std::size_t i = 0; i < 16; ++i)
    if (children[i]) out.insert(out.end(), children[i]->bytes.begin(), children[i]->bytes.end());
}

void append_extension_preimage(Bytes& out, ByteView path_nibbles, const Hash32& child) {
  out.push_back(kTagExtension);
  out.push_back(static_cast<std::uint8_t>(path_nibbles.size() >> 8));
  out.push_back(static_cast<std::uint8_t>(path_nibbles.size()));
  out.insert(out.end(), path_nibbles.begin(), path_nibbles.end());
  out.insert(out.end(), child.bytes.begin(), child.bytes.end());
}

Hash32 hash_proof_node(const ProofNode& node) {
  return std::visit(
      [](const auto& n) -> Hash32 {
        using T = std::decay_t<decltype(n)>;
        if constexpr (std::is_same_v<T, ProofLeaf>) {
          return hash_leaf(n.suffix, n.value);
        } else if constexpr (std::is_same_v<T, ProofBranch>) {
          return hash_branch(n.children);
        } else {
          return hash_extension(n.path, n.child);
        }
      },
      node);
}

Bytes Proof::serialize() const {
  Encoder e(byte_size());
  serialize_into(e);
  return e.take();
}

void Proof::serialize_into(Encoder& e) const {
  e.reserve(byte_size());
  e.u32(static_cast<std::uint32_t>(nodes.size()));
  for (const auto& node : nodes) {
    std::visit(
        [&e](const auto& n) {
          using T = std::decay_t<decltype(n)>;
          if constexpr (std::is_same_v<T, ProofLeaf>) {
            e.u8(kTagLeaf);
            encode_nibbles(e, n.suffix);
            e.hash(n.value);
          } else if constexpr (std::is_same_v<T, ProofBranch>) {
            e.u8(kTagBranch);
            std::uint16_t bitmap = 0;
            for (std::size_t i = 0; i < 16; ++i)
              if (n.children[i]) bitmap = static_cast<std::uint16_t>(bitmap | (1u << i));
            e.u16(bitmap);
            for (std::size_t i = 0; i < 16; ++i)
              if (n.children[i]) e.hash(*n.children[i]);
          } else {
            e.u8(kTagExtension);
            encode_nibbles(e, n.path);
            e.hash(n.child);
          }
        },
        node);
  }
}

Proof Proof::deserialize(ByteView data) {
  Decoder d(data);
  Proof p;
  const std::uint32_t count = d.u32();
  if (count > 4096) throw CodecError("proof: implausible node count");
  p.nodes.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint8_t tag = d.u8();
    switch (tag) {
      case kTagLeaf: {
        ProofLeaf n;
        n.suffix = decode_nibbles(d);
        n.value = d.hash();
        p.nodes.emplace_back(std::move(n));
        break;
      }
      case kTagBranch: {
        ProofBranch n;
        const std::uint16_t bitmap = d.u16();
        for (std::size_t j = 0; j < 16; ++j)
          if (bitmap & (1u << j)) n.children[j] = d.hash();
        p.nodes.emplace_back(std::move(n));
        break;
      }
      case kTagExtension: {
        ProofExtension n;
        n.path = decode_nibbles(d);
        n.child = d.hash();
        p.nodes.emplace_back(std::move(n));
        break;
      }
      default:
        throw CodecError("proof: unknown node tag");
    }
  }
  d.expect_done();
  return p;
}

std::size_t Proof::byte_size() const {
  std::size_t n = 4;  // node count
  for (const auto& node : nodes) {
    n += 1;  // tag
    std::visit(
        [&n](const auto& p) {
          using T = std::decay_t<decltype(p)>;
          if constexpr (std::is_same_v<T, ProofLeaf>) {
            n += 2 + p.suffix.size() + 32;
          } else if constexpr (std::is_same_v<T, ProofBranch>) {
            n += 2;
            for (const auto& child : p.children)
              if (child) n += 32;
          } else {
            n += 2 + p.path.size() + 32;
          }
        },
        node);
  }
  return n;
}

VerifyOutcome verify_proof(const Hash32& root, ByteView key, const Proof& proof) {
  const Nibbles nibs = to_nibbles(key);
  std::size_t pos = 0;

  if (proof.nodes.empty()) {
    // Only the empty trie (zero root) proves absence with no nodes.
    if (root.is_zero()) return {VerifyOutcome::Kind::kAbsent, {}};
    return {VerifyOutcome::Kind::kInvalid, {}};
  }

  Hash32 expected = root;
  for (std::size_t i = 0; i < proof.nodes.size(); ++i) {
    const ProofNode& node = proof.nodes[i];
    if (hash_proof_node(node) != expected) return {VerifyOutcome::Kind::kInvalid, {}};
    const bool last = (i + 1 == proof.nodes.size());

    if (const auto* leaf = std::get_if<ProofLeaf>(&node)) {
      if (!last) return {VerifyOutcome::Kind::kInvalid, {}};
      const Nibbles rest = slice(nibs, pos, nibs.size() - pos);
      if (leaf->suffix == rest) return {VerifyOutcome::Kind::kFound, leaf->value};
      // A leaf with a different suffix at this position proves the key
      // is absent from the (prefix-free) trie.
      return {VerifyOutcome::Kind::kAbsent, {}};
    }

    if (const auto* branch = std::get_if<ProofBranch>(&node)) {
      if (pos >= nibs.size()) return {VerifyOutcome::Kind::kInvalid, {}};
      const std::uint8_t nib = nibs[pos];
      ++pos;
      const auto& child = branch->children[nib];
      if (!child) {
        // Missing child proves absence — but only if the proof stops here.
        if (!last) return {VerifyOutcome::Kind::kInvalid, {}};
        return {VerifyOutcome::Kind::kAbsent, {}};
      }
      if (last) return {VerifyOutcome::Kind::kInvalid, {}};
      expected = *child;
      continue;
    }

    const auto& ext = std::get<ProofExtension>(node);
    const std::size_t cp = common_prefix(ext.path, 0, nibs, pos);
    if (cp == ext.path.size()) {
      if (last) return {VerifyOutcome::Kind::kInvalid, {}};
      pos += cp;
      expected = ext.child;
      continue;
    }
    // Divergence inside the extension path proves absence.
    if (!last) return {VerifyOutcome::Kind::kInvalid, {}};
    return {VerifyOutcome::Kind::kAbsent, {}};
  }
  return {VerifyOutcome::Kind::kInvalid, {}};
}

}  // namespace bmg::trie
