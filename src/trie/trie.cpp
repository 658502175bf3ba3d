#include "trie/trie.hpp"

#include <string>
#include <utility>
#include <vector>

#include "crypto/sha256.hpp"
#include "trie/snapshot.hpp"

namespace bmg::trie {

namespace {
/// Serialized size contribution of a node (mirrors the hash preimage
/// encodings plus a small per-node arena header).
constexpr std::size_t kNodeHeader = 4;

const LeafRec& as_leaf(const std::uint8_t* rec) {
  return *reinterpret_cast<const LeafRec*>(rec);
}
const BranchRec& as_branch(const std::uint8_t* rec) {
  return *reinterpret_cast<const BranchRec*>(rec);
}
const ExtRec& as_ext(const std::uint8_t* rec) {
  return *reinterpret_cast<const ExtRec*>(rec);
}
LeafRec& as_leaf(std::uint8_t* rec) { return *reinterpret_cast<LeafRec*>(rec); }
BranchRec& as_branch(std::uint8_t* rec) { return *reinterpret_cast<BranchRec*>(rec); }
ExtRec& as_ext(std::uint8_t* rec) { return *reinterpret_cast<ExtRec*>(rec); }

/// Canonical hash preimage of a node straight from its on-page record.
void append_rec_preimage(Bytes& out, NodeKind kind, const std::uint8_t* rec) {
  switch (kind) {
    case kLeaf: {
      const LeafRec& n = as_leaf(rec);
      append_leaf_preimage(out, n.suffix.view(), n.value);
      break;
    }
    case kBranch: {
      const BranchRec& n = as_branch(rec);
      std::array<std::optional<Hash32>, 16> kids;
      for (std::size_t i = 0; i < 16; ++i)
        if (!n.children[i].is_empty()) kids[i] = n.children[i].hash;
      append_branch_preimage(out, kids);
      break;
    }
    case kExt: {
      const ExtRec& n = as_ext(rec);
      append_extension_preimage(out, n.path.view(), n.child.hash);
      break;
    }
  }
}

Hash32 rec_hash(NodeKind kind, const std::uint8_t* rec) {
  switch (kind) {
    case kLeaf: {
      const LeafRec& n = as_leaf(rec);
      return hash_leaf(n.suffix.view(), n.value);
    }
    case kBranch: {
      const BranchRec& n = as_branch(rec);
      std::array<std::optional<Hash32>, 16> kids;
      for (std::size_t i = 0; i < 16; ++i)
        if (!n.children[i].is_empty()) kids[i] = n.children[i].hash;
      return hash_branch(kids);
    }
    default: {
      const ExtRec& n = as_ext(rec);
      return hash_extension(n.path.view(), n.child.hash);
    }
  }
}
}  // namespace

// ---------------------------------------------------------------------------
// Allocation and stats

std::uint32_t SealableTrie::alloc_leaf(ByteView suffix, const Hash32& value) {
  const std::uint32_t id = core_->alloc_slot(kLeaf);
  LeafRec& n = as_leaf(core_->write_rec(id));
  n.suffix.assign(suffix.data(), suffix.size());
  n.value = value;
  add_node_stats(id);
  return id;
}

std::uint32_t SealableTrie::alloc_branch_pair(std::uint8_t nib_a, RefRec ref_a,
                                              std::uint8_t nib_b, RefRec ref_b) {
  const std::uint32_t id = core_->alloc_slot(kBranch);
  BranchRec& n = as_branch(core_->write_rec(id));
  n = BranchRec{};  // slot may be recycled: clear previous occupant
  n.children[nib_a] = ref_a;
  n.children[nib_b] = ref_b;
  add_node_stats(id);
  return id;
}

std::uint32_t SealableTrie::alloc_ext(ByteView path, RefRec child) {
  const std::uint32_t id = core_->alloc_slot(kExt);
  ExtRec& n = as_ext(core_->write_rec(id));
  n.path.assign(path.data(), path.size());
  n.child = child;
  add_node_stats(id);
  return id;
}

void SealableTrie::free_node(std::uint32_t node_id) {
  sub_node_stats(node_id);
  core_->free_slot(node_id);
}

void SealableTrie::add_node_stats(std::uint32_t node_id) {
  const std::uint8_t* rec = core_->read_rec(core_->live_tables(), node_id);
  switch (kind_of(node_id)) {
    case kLeaf: {
      const LeafRec& n = as_leaf(rec);
      ++stats_.leaf_count;
      stats_.byte_size += kNodeHeader + 3 + n.suffix.size() / 2 + 1 + 32;
      break;
    }
    case kBranch: {
      const BranchRec& n = as_branch(rec);
      ++stats_.branch_count;
      stats_.byte_size += kNodeHeader + 3;
      for (const RefRec& c : n.children) {
        if (c.sealed()) ++stats_.sealed_refs;
        if (!c.is_empty()) stats_.byte_size += 33;
      }
      break;
    }
    case kExt: {
      const ExtRec& n = as_ext(rec);
      ++stats_.extension_count;
      stats_.byte_size += kNodeHeader + 3 + n.path.size() / 2 + 1 + 33;
      if (n.child.sealed()) ++stats_.sealed_refs;
      break;
    }
  }
}

void SealableTrie::sub_node_stats(std::uint32_t node_id) {
  const std::uint8_t* rec = core_->read_rec(core_->live_tables(), node_id);
  switch (kind_of(node_id)) {
    case kLeaf: {
      const LeafRec& n = as_leaf(rec);
      --stats_.leaf_count;
      stats_.byte_size -= kNodeHeader + 3 + n.suffix.size() / 2 + 1 + 32;
      break;
    }
    case kBranch: {
      const BranchRec& n = as_branch(rec);
      --stats_.branch_count;
      stats_.byte_size -= kNodeHeader + 3;
      for (const RefRec& c : n.children) {
        if (c.sealed()) --stats_.sealed_refs;
        if (!c.is_empty()) stats_.byte_size -= 33;
      }
      break;
    }
    case kExt: {
      const ExtRec& n = as_ext(rec);
      --stats_.extension_count;
      stats_.byte_size -= kNodeHeader + 3 + n.path.size() / 2 + 1 + 33;
      if (n.child.sealed()) --stats_.sealed_refs;
      break;
    }
  }
}

Hash32 SealableTrie::node_hash(std::uint32_t node_id) const {
  return rec_hash(kind_of(node_id), core_->read_rec(core_->live_tables(), node_id));
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
  return walk_get(*core_, core_->live_tables(), root_, key, value_out);
}

Proof SealableTrie::prove(ByteView key) const {
  ensure_committed();
  return walk_prove(*core_, core_->live_tables(), root_, key);
}

// ---------------------------------------------------------------------------
// set

void SealableTrie::set(ByteView key, const Hash32& value) {
  const Nibbles nibs = to_nibbles(key);
  if (nibs.size() > PathRec::kMaxNibbles)
    throw TrieError("set: key longer than 32 bytes (hash commitment paths)");
  root_ = set_rec(root_, ByteView{nibs.data(), nibs.size()}, 0, value);
}

RefRec SealableTrie::set_rec(RefRec ref, ByteView path, std::size_t pos,
                             const Hash32& value) {
  if (ref.sealed()) throw SealedError("set: key path crosses a sealed region");

  if (ref.is_empty())
    return RefRec::live_dirty(alloc_leaf(path.subspan(pos), value));

  switch (kind_of(ref.node)) {
    case kLeaf: {
      // Copy the suffix out: the record may move (copy-on-write) or be
      // rewritten below.
      const PathRec old_suffix =
          as_leaf(core_->read_rec(core_->live_tables(), ref.node)).suffix;
      const ByteView rest = path.subspan(pos);
      const std::size_t cp = common_prefix_span(old_suffix.view(), rest);
      if (cp == old_suffix.size() && cp == rest.size()) {
        // Same key: update in place; the hash is recomputed at commit.
        as_leaf(core_->write_rec(ref.node)).value = value;
        ref.set_dirty(true);
        return ref;
      }
      if (cp == old_suffix.size() || cp == rest.size())
        throw PrefixError("set: key is a prefix of an existing key (or vice versa)");

      // Split: branch at the divergence nibble, possibly under an extension.
      const std::uint8_t old_nib = old_suffix.nibs[cp];
      const std::uint8_t new_nib = rest[cp];

      // Shorten the existing leaf (reuse its slot).
      sub_node_stats(ref.node);
      as_leaf(core_->write_rec(ref.node))
          .suffix.assign(old_suffix.nibs + cp + 1, old_suffix.size() - cp - 1);
      add_node_stats(ref.node);
      const RefRec old_ref = RefRec::live_dirty(ref.node);

      const RefRec new_ref = RefRec::live_dirty(alloc_leaf(rest.subspan(cp + 1), value));
      const RefRec branch_ref =
          RefRec::live_dirty(alloc_branch_pair(old_nib, old_ref, new_nib, new_ref));

      if (cp == 0) return branch_ref;
      return RefRec::live_dirty(alloc_ext(ByteView{old_suffix.nibs, cp}, branch_ref));
    }

    case kBranch: {
      if (pos == path.size())
        throw PrefixError("set: key terminates at an interior branch");
      const std::uint8_t nib = path[pos];
      const std::uint32_t node_id = ref.node;
      const RefRec child =
          as_branch(core_->read_rec(core_->live_tables(), node_id)).children[nib];
      const RefRec updated = set_rec(child, path, pos + 1, value);
      // Recursion may have copied pages; re-resolve before writing.
      BranchRec& fresh = as_branch(core_->write_rec(node_id));
      if (fresh.children[nib].is_empty()) stats_.byte_size += 33;
      fresh.children[nib] = updated;
      ref.set_dirty(true);
      return ref;
    }

    default: {
      const ExtRec old_ext = as_ext(core_->read_rec(core_->live_tables(), ref.node));
      const ByteView rest = path.subspan(pos);
      const std::size_t cp = common_prefix_span(old_ext.path.view(), rest);
      if (cp == old_ext.path.size()) {
        const std::uint32_t node_id = ref.node;
        const RefRec updated = set_rec(old_ext.child, path, pos + cp, value);
        as_ext(core_->write_rec(node_id)).child = updated;
        ref.set_dirty(true);
        return ref;
      }
      if (cp == rest.size())
        throw PrefixError("set: key terminates inside an extension path");

      // Split this extension at nibble cp.
      const std::uint8_t old_nib = old_ext.path.nibs[cp];
      const std::uint8_t new_nib = rest[cp];
      const std::size_t old_tail = old_ext.path.size() - cp - 1;

      RefRec old_side;
      if (old_tail == 0) {
        // The branch points directly at the old extension's child.
        old_side = old_ext.child;
        free_node(ref.node);
      } else {
        // Reuse this slot as the shortened extension.
        sub_node_stats(ref.node);
        as_ext(core_->write_rec(ref.node))
            .path.assign(old_ext.path.nibs + cp + 1, old_tail);
        add_node_stats(ref.node);
        old_side = RefRec::live_dirty(ref.node);
      }

      const RefRec new_ref = RefRec::live_dirty(alloc_leaf(rest.subspan(cp + 1), value));
      const RefRec branch_ref =
          RefRec::live_dirty(alloc_branch_pair(old_nib, old_side, new_nib, new_ref));

      if (cp == 0) return branch_ref;
      return RefRec::live_dirty(alloc_ext(ByteView{old_ext.path.nibs, cp}, branch_ref));
    }
  }
}

// ---------------------------------------------------------------------------
// seal

void SealableTrie::seal(ByteView key) {
  const Nibbles nibs = to_nibbles(key);
  const ByteView path{nibs.data(), nibs.size()};
  std::size_t pos = 0;

  // Walk down, recording the chain of (node id, child slot) so we can
  // propagate sealing upward.  Slot -1 means "extension child".  The
  // walk resolves every node through write_rec: the spine will be
  // mutated (hash fixups, sealed markers), so shared pages are copied
  // up front and all record pointers below stay stable.
  struct Step {
    std::uint32_t node;
    int slot;  // 0..15 for branch children, -1 for extension child
  };
  std::vector<Step> chain;

  RefRec* ref = &root_;
  while (true) {
    if (ref->sealed()) throw SealedError("seal: key already inside a sealed region");
    if (ref->is_empty()) throw NotFoundError("seal: key not present");
    bool done = false;
    switch (kind_of(ref->node)) {
      case kLeaf: {
        const LeafRec& leaf = as_leaf(core_->write_rec(ref->node));
        const ByteView rest = path.subspan(pos);
        if (leaf.suffix.size() != rest.size() ||
            common_prefix_span(leaf.suffix.view(), rest) != rest.size())
          throw NotFoundError("seal: key not present");
        done = true;  // `ref` points at the leaf to seal
        break;
      }
      case kBranch: {
        BranchRec& branch = as_branch(core_->write_rec(ref->node));
        if (pos >= path.size()) throw NotFoundError("seal: key not present");
        chain.push_back({ref->node, path[pos]});
        ref = &branch.children[path[pos]];
        ++pos;
        break;
      }
      default: {
        ExtRec& ext = as_ext(core_->write_rec(ref->node));
        const std::size_t cp = common_prefix_span(ext.path.view(), path.subspan(pos));
        if (cp != ext.path.size()) throw NotFoundError("seal: key not present");
        chain.push_back({ref->node, -1});
        pos += cp;
        ref = &ext.child;
        break;
      }
    }
    if (done) break;
  }

  // Seal the leaf: drop its storage, keep the hash in the parent ref.
  // A dirty ref's recorded hash is stale, so fix it before the node's
  // contents disappear — sealing must preserve the (future) root.
  if (ref->dirty()) {
    ref->hash = node_hash(ref->node);
    ref->set_dirty(false);
  }
  free_node(ref->node);
  ref->node = kNilNode;
  ref->set_sealed(true);
  ++stats_.sealed_refs;

  // Propagate: an extension whose child is sealed seals too; a branch
  // whose present children are all sealed seals too (paper §III-A).
  while (!chain.empty()) {
    const Step step = chain.back();
    chain.pop_back();

    bool seal_this = false;
    if (kind_of(step.node) == kBranch) {
      seal_this = true;
      const BranchRec& branch =
          as_branch(core_->read_rec(core_->live_tables(), step.node));
      for (const RefRec& child : branch.children) {
        if (child.is_empty()) continue;
        if (!child.sealed()) {
          seal_this = false;
          break;
        }
      }
    } else {
      seal_this =
          as_ext(core_->read_rec(core_->live_tables(), step.node)).child.sealed();
    }
    if (!seal_this) break;

    // Find the ref in the parent (or root) that points at this node.
    RefRec* owner = nullptr;
    if (chain.empty()) {
      owner = &root_;
    } else {
      const Step parent = chain.back();
      if (parent.slot >= 0) {
        owner = &as_branch(core_->write_rec(parent.node))
                     .children[static_cast<std::size_t>(parent.slot)];
      } else {
        owner = &as_ext(core_->write_rec(parent.node)).child;
      }
    }
    // All children of this node are sealed with valid hashes, so its
    // own hash can be finalized on the spot if it was pending.
    if (owner->dirty()) {
      owner->hash = node_hash(step.node);
      owner->set_dirty(false);
    }
    free_node(step.node);
    owner->node = kNilNode;
    owner->set_sealed(true);
    ++stats_.sealed_refs;
  }
}

// ---------------------------------------------------------------------------
// commit

void SealableTrie::commit() {
  if (!root_.dirty()) return;

  // Dirty refs only exist on pages already private to this epoch
  // window (the write that marked them dirty copied the page if
  // needed), so resolving them below cannot trigger a page copy —
  // which is what keeps the collected raw pointers stable.  The guard
  // turns a violation into an immediate error instead of a silent
  // write to a stale frame.
  core_->set_expect_no_cow(true);

  // Collect every dirty ref with its depth.  `ref` points at the
  // parent's child slot (or root_); `rec` at the node's own record.
  struct Item {
    RefRec* ref;
    std::uint8_t* rec;
  };
  std::vector<std::vector<Item>> levels;
  struct Pending {
    RefRec* ref;
    std::uint32_t depth;
  };
  std::vector<Pending> stack;
  stack.push_back({&root_, 0});
  while (!stack.empty()) {
    const Pending it = stack.back();
    stack.pop_back();
    std::uint8_t* rec = core_->write_rec(it.ref->node);
    if (levels.size() <= it.depth) levels.resize(it.depth + 1);
    levels[it.depth].push_back({it.ref, rec});
    switch (kind_of(it.ref->node)) {
      case kBranch:
        for (RefRec& c : as_branch(rec).children)
          if (c.dirty()) stack.push_back({&c, it.depth + 1});
        break;
      case kExt: {
        RefRec& c = as_ext(rec).child;
        if (c.dirty()) stack.push_back({&c, it.depth + 1});
        break;
      }
      default:
        break;
    }
  }

  // Deepest level first, so every child hash is final before its
  // parent's preimage is built.  Nodes within one level are
  // independent — siblings or cousins — so a level is hashed in one
  // sha256_batch call.
  Bytes scratch;
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::vector<ByteView> views;
  std::vector<Hash32> hashes;
  for (std::size_t depth = levels.size(); depth-- > 0;) {
    std::vector<Item>& level = levels[depth];
    const std::size_t n = level.size();
    if (n == 1) {
      // Lone node on this level: the fixed-shape one-shot hasher
      // (stack preimage) beats building a batch of one.
      Item& it = level[0];
      it.ref->hash = rec_hash(kind_of(it.ref->node), it.rec);
      it.ref->set_dirty(false);
    } else {
      scratch.clear();
      spans.clear();
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t off = scratch.size();
        append_rec_preimage(scratch, kind_of(level[i].ref->node), level[i].rec);
        spans.emplace_back(off, scratch.size() - off);
      }
      views.resize(n);
      hashes.resize(n);
      for (std::size_t i = 0; i < n; ++i)
        views[i] = ByteView{scratch.data() + spans[i].first, spans[i].second};
      crypto::sha256_batch(views.data(), n, hashes.data());
      for (std::size_t i = 0; i < n; ++i) {
        level[i].ref->hash = hashes[i];
        level[i].ref->set_dirty(false);
      }
    }
  }
  core_->set_expect_no_cow(false);
}

// ---------------------------------------------------------------------------
// Snapshots and clones

TrieSnapshot SealableTrie::snapshot() {
  commit();
  StoreCore::Published pub = core_->publish();
  auto impl = std::make_shared<TrieSnapshot::Impl>();
  impl->core = core_;
  impl->tables = std::move(pub.tables);
  impl->root = root_;
  impl->epoch = pub.epoch;
  return TrieSnapshot(std::move(impl));
}

SealableTrie SealableTrie::clone() const {
  SealableTrie copy(core_->clone());
  copy.root_ = root_;
  copy.stats_ = stats_;
  return copy;
}

// ---------------------------------------------------------------------------
// Stats verification

TrieStats SealableTrie::recompute_stats(
    std::array<std::unordered_map<std::uint32_t, std::uint32_t>, kNumKinds>* occupancy)
    const {
  TrieStats s;
  const auto note = [&](std::uint32_t id) {
    if (occupancy == nullptr) return;
    const std::uint32_t logical =
        index_of(id) / static_cast<std::uint32_t>(core_->slots_per_page(kind_of(id)));
    ++(*occupancy)[kind_of(id)][logical];
  };
  if (root_.sealed()) ++s.sealed_refs;
  std::vector<std::uint32_t> stack;
  if (root_.is_live()) stack.push_back(root_.node);
  while (!stack.empty()) {
    const std::uint32_t id = stack.back();
    stack.pop_back();
    note(id);
    const std::uint8_t* rec = core_->read_rec(core_->live_tables(), id);
    switch (kind_of(id)) {
      case kLeaf: {
        const LeafRec& n = as_leaf(rec);
        ++s.leaf_count;
        s.byte_size += kNodeHeader + 3 + n.suffix.size() / 2 + 1 + 32;
        break;
      }
      case kBranch: {
        const BranchRec& n = as_branch(rec);
        ++s.branch_count;
        s.byte_size += kNodeHeader + 3;
        for (const RefRec& c : n.children) {
          if (c.sealed()) ++s.sealed_refs;
          if (!c.is_empty()) s.byte_size += 33;
          if (c.is_live()) stack.push_back(c.node);
        }
        break;
      }
      default: {
        const ExtRec& n = as_ext(rec);
        ++s.extension_count;
        s.byte_size += kNodeHeader + 3 + n.path.size() / 2 + 1 + 33;
        if (n.child.sealed()) ++s.sealed_refs;
        if (n.child.is_live()) stack.push_back(n.child.node);
        break;
      }
    }
  }
  return s;
}

void SealableTrie::debug_check_stats() const {
  std::array<std::unordered_map<std::uint32_t, std::uint32_t>, kNumKinds> occupancy;
  const TrieStats live = recompute_stats(&occupancy);
  if (live != stats_) {
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
  core_->debug_check_pages(occupancy);
}

}  // namespace bmg::trie
