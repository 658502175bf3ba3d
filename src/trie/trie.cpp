#include "trie/trie.hpp"

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "trie/snapshot.hpp"

namespace bmg::trie {

namespace {
/// Serialized size contribution of a node (mirrors the hash preimage
/// encodings plus a small per-node account header).
constexpr std::size_t kNodeHeader = 4;

/// Epochs only need to be unique, so one process-wide counter serves
/// every trie; no output depends on the values.
std::atomic<std::uint64_t> g_next_epoch{1};
std::uint64_t fresh_epoch() { return g_next_epoch++; }

template <typename T>
const T& as(const Node& n) {
  return static_cast<const T&>(n);
}

std::array<std::optional<Hash32>, 16> child_hashes(const BranchNode& n) {
  std::array<std::optional<Hash32>, 16> kids;
  for (std::size_t i = 0; i < 16; ++i)
    if (!n.children[i].is_empty()) kids[i] = n.children[i].hash;
  return kids;
}

Hash32 node_hash(const Node& node) {
  switch (node.kind) {
    case kLeaf: {
      const auto& n = as<LeafNode>(node);
      return hash_leaf(n.suffix.view(), n.value);
    }
    case kBranch:
      return hash_branch(child_hashes(as<BranchNode>(node)));
    default: {
      const auto& n = as<ExtNode>(node);
      return hash_extension(n.path.view(), n.child.hash);
    }
  }
}

/// Adds (`sign` = +1) or removes (-1) node `n`'s share of `s`: its
/// count, its serialized size and its sealed child refs.
void account(TrieStats& s, const Node& n, int sign) {
  const auto bump = [sign](std::size_t& field, std::size_t by) {
    field = sign > 0 ? field + by : field - by;
  };
  switch (n.kind) {
    case kLeaf:
      bump(s.leaf_count, 1);
      bump(s.byte_size, kNodeHeader + 3 + as<LeafNode>(n).suffix.size() / 2 + 1 + 32);
      break;
    case kBranch:
      bump(s.branch_count, 1);
      bump(s.byte_size, kNodeHeader + 3);
      for (const RefRec& c : as<BranchNode>(n).children) {
        if (c.sealed()) bump(s.sealed_refs, 1);
        if (!c.is_empty()) bump(s.byte_size, 33);
      }
      break;
    case kExt: {
      const auto& e = as<ExtNode>(n);
      bump(s.extension_count, 1);
      bump(s.byte_size, kNodeHeader + 3 + e.path.size() / 2 + 1 + 33);
      if (e.child.sealed()) bump(s.sealed_refs, 1);
      break;
    }
  }
}
}  // namespace

// ---------------------------------------------------------------------------
// Shared read walkers

Lookup walk_get(const RefRec& root, ByteView key, Hash32* value_out) {
  const Nibbles nibs = to_nibbles(key);
  const ByteView path{nibs.data(), nibs.size()};
  std::size_t pos = 0;
  const RefRec* ref = &root;
  while (true) {
    if (ref->sealed()) return Lookup::kSealed;
    if (ref->is_empty()) return Lookup::kAbsent;
    switch (ref->node->kind) {
      case kLeaf: {
        const auto& leaf = as<LeafNode>(*ref->node);
        const ByteView rest = path.subspan(pos);
        if (leaf.suffix.size() == rest.size() &&
            common_prefix_span(leaf.suffix.view(), rest) == rest.size()) {
          if (value_out != nullptr) *value_out = leaf.value;
          return Lookup::kFound;
        }
        return Lookup::kAbsent;
      }
      case kBranch: {
        if (pos >= path.size()) return Lookup::kAbsent;
        ref = &as<BranchNode>(*ref->node).children[path[pos]];
        ++pos;
        break;
      }
      default: {
        const auto& ext = as<ExtNode>(*ref->node);
        const std::size_t cp = common_prefix_span(ext.path.view(), path.subspan(pos));
        if (cp != ext.path.size()) return Lookup::kAbsent;
        pos += cp;
        ref = &ext.child;
        break;
      }
    }
  }
}

Proof walk_prove(const RefRec& root, ByteView key) {
  const Nibbles nibs = to_nibbles(key);
  const ByteView path{nibs.data(), nibs.size()};
  std::size_t pos = 0;
  Proof proof;

  const RefRec* ref = &root;
  while (true) {
    if (ref->sealed()) throw SealedError("prove: key path enters a sealed region");
    if (ref->is_empty()) return proof;  // absence; possibly empty proof for empty trie
    switch (ref->node->kind) {
      case kLeaf: {
        const auto& leaf = as<LeafNode>(*ref->node);
        proof.nodes.emplace_back(
            ProofLeaf{Nibbles(leaf.suffix.nibs, leaf.suffix.nibs + leaf.suffix.len),
                      leaf.value});
        return proof;
      }
      case kBranch: {
        const auto& branch = as<BranchNode>(*ref->node);
        proof.nodes.emplace_back(ProofBranch{child_hashes(branch)});
        if (pos >= path.size()) return proof;  // absence (interior end)
        const RefRec& child = branch.children[path[pos]];
        ++pos;
        if (child.is_empty()) return proof;  // absence proven by missing child
        ref = &child;
        break;
      }
      default: {
        const auto& ext = as<ExtNode>(*ref->node);
        proof.nodes.emplace_back(
            ProofExtension{Nibbles(ext.path.nibs, ext.path.nibs + ext.path.len),
                           ext.child.hash});
        const std::size_t cp = common_prefix_span(ext.path.view(), path.subspan(pos));
        if (cp != ext.path.size()) return proof;  // absence at divergence
        pos += cp;
        ref = &ext.child;
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Node allocation and ownership

SealableTrie::SealableTrie() : epoch_(fresh_epoch()) {}

template <typename T>
T& SealableTrie::own(RefRec& ref) {
  // Decided by epoch, never by use_count(): a snapshot released on
  // another thread changes the count without synchronising with us.
  if (ref.node->epoch != epoch_) {
    auto copy = std::make_shared<T>(as<T>(*ref.node));
    copy->epoch = epoch_;
    ref.node = std::move(copy);
  }
  return static_cast<T&>(*ref.node);
}

template <typename T>
std::shared_ptr<T> SealableTrie::make_node() {
  auto n = std::make_shared<T>();
  n->kind = T::kKind;
  n->epoch = epoch_;
  return n;
}

RefRec SealableTrie::new_leaf(ByteView suffix, const Hash32& value) {
  auto n = make_node<LeafNode>();
  n->suffix.assign(suffix.data(), suffix.size());
  n->value = value;
  account(stats_, *n, +1);
  return RefRec::live_dirty(std::move(n));
}

RefRec SealableTrie::new_branch_pair(std::uint8_t nib_a, RefRec ref_a, std::uint8_t nib_b,
                                     RefRec ref_b) {
  auto n = make_node<BranchNode>();
  n->children[nib_a] = std::move(ref_a);
  n->children[nib_b] = std::move(ref_b);
  account(stats_, *n, +1);
  return RefRec::live_dirty(std::move(n));
}

RefRec SealableTrie::new_ext(ByteView path, RefRec child) {
  auto n = make_node<ExtNode>();
  n->path.assign(path.data(), path.size());
  n->child = std::move(child);
  account(stats_, *n, +1);
  return RefRec::live_dirty(std::move(n));
}

void SealableTrie::seal_ref(RefRec& ref) {
  account(stats_, *ref.node, -1);
  ref.node.reset();
  ref.set_sealed(true);
  ++stats_.sealed_refs;
}

// ---------------------------------------------------------------------------
// Reads

void SealableTrie::ensure_committed() const {
  if (root_.dirty()) const_cast<SealableTrie*>(this)->commit();
}

Hash32 SealableTrie::root_hash() const {
  ensure_committed();
  if (root_.is_empty()) return Hash32{};
  return root_.hash;
}

SealableTrie::Lookup SealableTrie::get(ByteView key, Hash32* value_out) const {
  return walk_get(root_, key, value_out);
}

Proof SealableTrie::prove(ByteView key) const {
  ensure_committed();
  return walk_prove(root_, key);
}

// ---------------------------------------------------------------------------
// set

void SealableTrie::set(ByteView key, const Hash32& value) {
  const Nibbles nibs = to_nibbles(key);
  if (nibs.size() > PathRec::kMaxNibbles)
    throw TrieError("set: key longer than 32 bytes (hash commitment paths)");
  root_ = set_rec(root_, ByteView{nibs.data(), nibs.size()}, 0, value);
}

// `ref` is a copy: nothing reachable from the trie is written until
// every check below (and in the recursion) has passed, so a throw
// leaves the trie unchanged.
RefRec SealableTrie::set_rec(RefRec ref, ByteView path, std::size_t pos,
                             const Hash32& value) {
  if (ref.sealed()) throw SealedError("set: key path crosses a sealed region");

  if (ref.is_empty()) return new_leaf(path.subspan(pos), value);

  switch (ref.node->kind) {
    case kLeaf: {
      // Copied out: own() below may move the leaf.
      const PathRec old_suffix = as<LeafNode>(*ref.node).suffix;
      const ByteView rest = path.subspan(pos);
      const std::size_t cp = common_prefix_span(old_suffix.view(), rest);
      if (cp == old_suffix.size() && cp == rest.size()) {
        // Same key: update; the hash is recomputed at commit.
        own<LeafNode>(ref).value = value;
        ref.set_dirty(true);
        return ref;
      }
      if (cp == old_suffix.size() || cp == rest.size())
        throw PrefixError("set: key is a prefix of an existing key (or vice versa)");

      // Split: branch at the divergence nibble, possibly under an extension.
      const std::uint8_t old_nib = old_suffix.nibs[cp];
      const std::uint8_t new_nib = rest[cp];

      // Shorten the existing leaf.
      LeafNode& leaf = own<LeafNode>(ref);
      account(stats_, leaf, -1);
      leaf.suffix.assign(old_suffix.nibs + cp + 1, old_suffix.size() - cp - 1);
      account(stats_, leaf, +1);
      ref.set_dirty(true);

      RefRec branch_ref = new_branch_pair(old_nib, std::move(ref), new_nib,
                                          new_leaf(rest.subspan(cp + 1), value));
      if (cp == 0) return branch_ref;
      return new_ext(ByteView{old_suffix.nibs, cp}, std::move(branch_ref));
    }

    case kBranch: {
      if (pos == path.size())
        throw PrefixError("set: key terminates at an interior branch");
      const std::uint8_t nib = path[pos];
      RefRec updated =
          set_rec(as<BranchNode>(*ref.node).children[nib], path, pos + 1, value);
      BranchNode& branch = own<BranchNode>(ref);
      if (branch.children[nib].is_empty()) stats_.byte_size += 33;
      branch.children[nib] = std::move(updated);
      ref.set_dirty(true);
      return ref;
    }

    default: {
      const auto& ext = as<ExtNode>(*ref.node);
      const ByteView rest = path.subspan(pos);
      const std::size_t cp = common_prefix_span(ext.path.view(), rest);
      if (cp == ext.path.size()) {
        RefRec updated = set_rec(ext.child, path, pos + cp, value);
        own<ExtNode>(ref).child = std::move(updated);
        ref.set_dirty(true);
        return ref;
      }
      if (cp == rest.size())
        throw PrefixError("set: key terminates inside an extension path");

      // Split this extension at nibble cp.  Copied out: own() below may
      // move the node.
      const PathRec old_path = ext.path;
      const std::uint8_t old_nib = old_path.nibs[cp];
      const std::uint8_t new_nib = rest[cp];
      const std::size_t old_tail = old_path.size() - cp - 1;

      RefRec old_side;
      if (old_tail == 0) {
        // The branch points directly at the old extension's child.
        old_side = ext.child;
        account(stats_, ext, -1);
      } else {
        // Keep this node as the shortened extension.
        ExtNode& shorter = own<ExtNode>(ref);
        account(stats_, shorter, -1);
        shorter.path.assign(old_path.nibs + cp + 1, old_tail);
        account(stats_, shorter, +1);
        ref.set_dirty(true);
        old_side = std::move(ref);
      }

      RefRec branch_ref = new_branch_pair(old_nib, std::move(old_side), new_nib,
                                          new_leaf(rest.subspan(cp + 1), value));
      if (cp == 0) return branch_ref;
      return new_ext(ByteView{old_path.nibs, cp}, std::move(branch_ref));
    }
  }
}

// ---------------------------------------------------------------------------
// seal

void SealableTrie::seal(ByteView key) {
  const Nibbles nibs = to_nibbles(key);
  const ByteView path{nibs.data(), nibs.size()};
  std::size_t pos = 0;

  // Walk down, owning every interior node: the spine will be mutated
  // (hash fixups, sealed markers).  `spine` holds the ref pointing at
  // each interior node on the path, root first; the pointers stay
  // valid because owned nodes are not copied again.
  std::vector<RefRec*> spine;
  RefRec* ref = &root_;
  while (true) {
    if (ref->sealed()) throw SealedError("seal: key already inside a sealed region");
    if (ref->is_empty()) throw NotFoundError("seal: key not present");
    if (ref->node->kind == kLeaf) {
      const auto& leaf = as<LeafNode>(*ref->node);
      const ByteView rest = path.subspan(pos);
      if (leaf.suffix.size() != rest.size() ||
          common_prefix_span(leaf.suffix.view(), rest) != rest.size())
        throw NotFoundError("seal: key not present");
      break;  // `ref` points at the leaf to seal
    }
    spine.push_back(ref);
    if (ref->node->kind == kBranch) {
      if (pos >= path.size()) throw NotFoundError("seal: key not present");
      ref = &own<BranchNode>(*ref).children[path[pos]];
      ++pos;
    } else {
      const auto& ext = as<ExtNode>(*ref->node);
      const std::size_t cp = common_prefix_span(ext.path.view(), path.subspan(pos));
      if (cp != ext.path.size()) throw NotFoundError("seal: key not present");
      pos += cp;
      ref = &own<ExtNode>(*ref).child;
    }
  }

  // Seal the leaf: drop its node, keep the hash in the parent ref.  A
  // dirty ref's recorded hash is stale, so fix it before the node goes
  // — sealing must preserve the (future) root.
  if (ref->dirty()) {
    ref->hash = node_hash(*ref->node);
    ref->set_dirty(false);
  }
  seal_ref(*ref);

  // Propagate: an extension whose child is sealed seals too; a branch
  // whose present children are all sealed seals too (paper §III-A).
  while (!spine.empty()) {
    RefRec& owner = *spine.back();
    spine.pop_back();
    const Node& node = *owner.node;
    bool seal_this = true;
    if (node.kind == kBranch) {
      for (const RefRec& child : as<BranchNode>(node).children)
        if (!child.is_empty() && !child.sealed()) seal_this = false;
    } else {
      seal_this = as<ExtNode>(node).child.sealed();
    }
    if (!seal_this) break;
    // All children of this node are sealed with valid hashes, so its
    // own hash can be finalized on the spot if it was pending.
    if (owner.dirty()) {
      owner.hash = node_hash(node);
      owner.set_dirty(false);
    }
    seal_ref(owner);
  }
}

// ---------------------------------------------------------------------------
// commit

void SealableTrie::commit() {
  if (root_.dirty()) hash_dirty(root_);
}

void SealableTrie::hash_dirty(RefRec& ref) {
  // Own each dirty interior node: its child refs receive hashes below,
  // and a clone() shares uncommitted nodes.  Leaves are only read.
  switch (ref.node->kind) {
    case kBranch:
      for (RefRec& c : own<BranchNode>(ref).children)
        if (c.dirty()) hash_dirty(c);
      break;
    case kExt: {
      RefRec& c = own<ExtNode>(ref).child;
      if (c.dirty()) hash_dirty(c);
      break;
    }
    default:
      break;
  }
  ref.hash = node_hash(*ref.node);
  ref.set_dirty(false);
}

// ---------------------------------------------------------------------------
// Snapshots and clones

TrieSnapshot SealableTrie::snapshot() {
  commit();
  // The snapshot now shares every node: later writes must copy.
  epoch_ = fresh_epoch();
  return TrieSnapshot(root_);
}

SealableTrie SealableTrie::clone() const {
  SealableTrie copy;
  copy.root_ = root_;
  copy.stats_ = stats_;
  epoch_ = fresh_epoch();  // this trie's nodes are shared with the copy now
  return copy;
}

// ---------------------------------------------------------------------------
// Stats verification

void SealableTrie::debug_check_stats() const {
  TrieStats live;
  if (root_.sealed()) ++live.sealed_refs;
  std::vector<const Node*> stack;
  if (root_.is_live()) stack.push_back(root_.node.get());
  while (!stack.empty()) {
    const Node& n = *stack.back();
    stack.pop_back();
    account(live, n, +1);
    if (n.kind == kBranch) {
      for (const RefRec& c : as<BranchNode>(n).children)
        if (c.is_live()) stack.push_back(c.node.get());
    } else if (n.kind == kExt && as<ExtNode>(n).child.is_live()) {
      stack.push_back(as<ExtNode>(n).child.node.get());
    }
  }
  if (live == stats_) return;
  const auto diff = [](const char* field, std::size_t got, std::size_t want) {
    return std::string(field) + " cached=" + std::to_string(got) +
           " live=" + std::to_string(want) + "; ";
  };
  std::string msg = "TrieStats drift: ";
  if (live.leaf_count != stats_.leaf_count)
    msg += diff("leaf_count", stats_.leaf_count, live.leaf_count);
  if (live.branch_count != stats_.branch_count)
    msg += diff("branch_count", stats_.branch_count, live.branch_count);
  if (live.extension_count != stats_.extension_count)
    msg += diff("extension_count", stats_.extension_count, live.extension_count);
  if (live.sealed_refs != stats_.sealed_refs)
    msg += diff("sealed_refs", stats_.sealed_refs, live.sealed_refs);
  if (live.byte_size != stats_.byte_size)
    msg += diff("byte_size", stats_.byte_size, live.byte_size);
  throw std::logic_error(msg);
}

}  // namespace bmg::trie
