#include "trie/paged.hpp"

#include <string>

namespace bmg::trie {

StoreCore::StoreCore(const PageStoreConfig& cfg) : store_(cfg) {
  static constexpr std::uint32_t kRecSize[kNumKinds] = {
      sizeof(LeafRec), sizeof(BranchRec), sizeof(ExtRec)};
  for (std::size_t k = 0; k < kNumKinds; ++k) {
    arenas_[k].rec_size = kRecSize[k];
    arenas_[k].slots_per_page =
        static_cast<std::uint32_t>(store_.page_bytes() / kRecSize[k]);
    if (arenas_[k].slots_per_page == 0)
      throw std::invalid_argument("StoreCore: page_bytes smaller than one record");
  }
}

std::shared_ptr<StoreCore> StoreCore::clone() const {
  auto out = std::make_shared<StoreCore>(PageStoreConfig{store_.page_bytes()});
  out->arenas_ = arenas_;
  for (std::size_t k = 0; k < kNumKinds; ++k) {
    const auto kind = static_cast<NodeKind>(k);
    for (std::uint32_t logical = 0; logical < arenas_[k].live.size(); ++logical) {
      const TableChunk::Entry en = table_entry(tables_, kind, logical);
      if (en.phys == kNoPage) continue;
      const PageId phys = out->store_.alloc();
      std::memcpy(out->store_.page(phys), store_.page(en.phys), store_.page_bytes());
      out->set_table_entry(kind, logical, {phys, out->epoch_});
    }
  }
  return out;
}

TableChunk::Entry StoreCore::table_entry(const TableSet& tables, NodeKind k,
                                         std::uint32_t logical) const {
  const std::size_t c = logical / TableChunk::kEntries;
  const auto& chunks = tables[k];
  if (c >= chunks.size() || chunks[c] == nullptr) return {};
  return chunks[c]->e[logical % TableChunk::kEntries];
}

void StoreCore::set_table_entry(NodeKind k, std::uint32_t logical,
                                TableChunk::Entry entry) {
  const std::size_t c = logical / TableChunk::kEntries;
  auto& chunks = tables_[k];
  if (c >= chunks.size()) chunks.resize(c + 1);
  if (chunks[c] == nullptr) {
    chunks[c] = std::make_shared<TableChunk>();
  } else if (chunks[c].use_count() > 1) {
    // Shared with at least one snapshot's table copy: clone before the
    // write so the snapshot keeps seeing the frozen mapping.
    chunks[c] = std::make_shared<TableChunk>(*chunks[c]);
  }
  chunks[c]->e[logical % TableChunk::kEntries] = entry;
}

std::uint32_t StoreCore::new_logical_page(NodeKind k) {
  Arena& a = arenas_[k];
  std::uint32_t logical;
  if (!a.free_logical.empty()) {
    logical = a.free_logical.back();
    a.free_logical.pop_back();
  } else {
    logical = static_cast<std::uint32_t>(a.live.size());
    a.live.push_back(0);
    a.gen.push_back(0);
  }
  const PageId phys = store_.alloc();
  set_table_entry(k, logical, {phys, epoch_});
  return logical;
}

bool StoreCore::shared_with_snapshot(std::uint32_t birth) const {
  std::lock_guard<std::mutex> lock(mu_);
  return !live_epochs_.empty() && *live_epochs_.rbegin() >= birth;
}

void StoreCore::retire_phys(PageId phys, std::uint32_t birth) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = live_epochs_.lower_bound(birth);
  if (it == live_epochs_.end()) {
    // No live snapshot can reference the page: reclaim immediately.
    store_.free_page(phys);
    return;
  }
  pending_.push_back({phys, birth, epoch_});
}

void StoreCore::retire_logical_page(NodeKind k, std::uint32_t logical) {
  Arena& a = arenas_[k];
  const TableChunk::Entry en = table_entry(tables_, k, logical);
  set_table_entry(k, logical, {});
  ++a.gen[logical];  // invalidates this page's free-list entries
  a.free_logical.push_back(logical);
  retire_phys(en.phys, en.birth);
}

std::uint32_t StoreCore::alloc_slot(NodeKind kind) {
  Arena& a = arenas_[kind];
  while (!a.free_slots.empty()) {
    const std::uint64_t packed = a.free_slots.back();
    a.free_slots.pop_back();
    const std::uint32_t idx = static_cast<std::uint32_t>(packed);
    const std::uint32_t gen = static_cast<std::uint32_t>(packed >> 32);
    const std::uint32_t logical = idx / a.slots_per_page;
    if (a.gen[logical] != gen) continue;  // page retired since the free
    ++a.live[logical];
    return make_node_id(kind, idx);
  }
  if (a.bump_page == kNilNode || a.bump_slot == a.slots_per_page) {
    a.bump_page = new_logical_page(kind);
    a.bump_slot = 0;
  }
  const std::uint64_t wide =
      static_cast<std::uint64_t>(a.bump_page) * a.slots_per_page + a.bump_slot;
  if (wide > kIndexMask) throw TrieError("trie: node id space exhausted");
  const std::uint32_t idx = static_cast<std::uint32_t>(wide);
  ++a.bump_slot;
  ++a.live[a.bump_page];
  return make_node_id(kind, idx);
}

void StoreCore::free_slot(std::uint32_t node_id) {
  const NodeKind kind = kind_of(node_id);
  Arena& a = arenas_[kind];
  const std::uint32_t idx = index_of(node_id);
  const std::uint32_t logical = idx / a.slots_per_page;
  --a.live[logical];
  if (a.live[logical] == 0 && logical != a.bump_page) {
    // Every slot on the page is sealed/freed: this is the reclamation
    // moment the §V-D metric counts.  The bump page is kept so its
    // unissued slots stay valid.
    retire_logical_page(kind, logical);
    return;
  }
  a.free_slots.push_back((static_cast<std::uint64_t>(a.gen[logical]) << 32) | idx);
}

const std::uint8_t* StoreCore::read_rec(const TableSet& tables,
                                        std::uint32_t node_id) const {
  const NodeKind kind = kind_of(node_id);
  const Arena& a = arenas_[kind];
  const std::uint32_t idx = index_of(node_id);
  const TableChunk::Entry en = table_entry(tables, kind, idx / a.slots_per_page);
  return store_.page(en.phys) +
         static_cast<std::size_t>(idx % a.slots_per_page) * a.rec_size;
}

std::uint8_t* StoreCore::write_rec(std::uint32_t node_id) {
  const NodeKind kind = kind_of(node_id);
  const Arena& a = arenas_[kind];
  const std::uint32_t idx = index_of(node_id);
  const std::uint32_t logical = idx / a.slots_per_page;
  TableChunk::Entry en = table_entry(tables_, kind, logical);
  if (en.birth != epoch_ && shared_with_snapshot(en.birth)) {
    // Copy-on-write: some snapshot's table points at this physical
    // page, so the live side moves to a private copy.
    if (expect_no_cow_)
      throw std::logic_error("trie: page copy during commit (dirty ref on shared page)");
    const PageId fresh = store_.alloc();
    std::memcpy(store_.page(fresh), store_.page(en.phys), store_.page_bytes());
    set_table_entry(kind, logical, {fresh, epoch_});
    retire_phys(en.phys, en.birth);
    en = {fresh, epoch_};
  }
  return store_.page(en.phys) +
         static_cast<std::size_t>(idx % a.slots_per_page) * a.rec_size;
}

StoreCore::Published StoreCore::publish() {
  Published p;
  p.tables = tables_;  // chunk pointers only; pages freeze via COW
  std::lock_guard<std::mutex> lock(mu_);
  p.epoch = epoch_;
  live_epochs_.insert(epoch_);
  ++epoch_;
  return p;
}

void StoreCore::release_epoch(std::uint32_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = live_epochs_.find(epoch);
  if (it != live_epochs_.end()) live_epochs_.erase(it);
  // Sweep: a parked page is reclaimable once no live snapshot's epoch
  // falls inside its [birth, retire) visibility window.
  std::size_t kept = 0;
  for (PendingFree& p : pending_) {
    const auto e = live_epochs_.lower_bound(p.birth);
    if (e == live_epochs_.end() || *e >= p.retire) {
      store_.free_page(p.phys);
    } else {
      pending_[kept++] = p;
    }
  }
  pending_.resize(kept);
}

std::size_t StoreCore::pending_free_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

void StoreCore::debug_check_pages(
    const std::array<std::unordered_map<std::uint32_t, std::uint32_t>, kNumKinds>&
        occupancy) const {
  static constexpr const char* kKindName[kNumKinds] = {"leaf", "branch", "ext"};
  std::set<PageId> phys_seen;
  for (std::size_t k = 0; k < kNumKinds; ++k) {
    const Arena& a = arenas_[k];
    const auto& occ = occupancy[k];
    for (std::uint32_t logical = 0; logical < a.live.size(); ++logical) {
      const auto it = occ.find(logical);
      const std::uint32_t walked = it == occ.end() ? 0 : it->second;
      if (a.live[logical] != walked)
        throw std::logic_error(std::string("trie page drift: ") + kKindName[k] +
                               " page " + std::to_string(logical) + " live=" +
                               std::to_string(a.live[logical]) + " walked=" +
                               std::to_string(walked));
      const TableChunk::Entry en = table_entry(tables_, static_cast<NodeKind>(k), logical);
      const bool mapped = en.phys != kNoPage;
      // A mapped page must hold live slots unless it is the retained
      // bump page; an unmapped page must be empty.
      if (!mapped && walked != 0)
        throw std::logic_error(std::string("trie page drift: ") + kKindName[k] +
                               " page " + std::to_string(logical) +
                               " occupied but unmapped");
      if (mapped && walked == 0 && logical != a.bump_page)
        throw std::logic_error(std::string("trie page drift: ") + kKindName[k] +
                               " page " + std::to_string(logical) +
                               " mapped but empty (missed reclamation)");
      if (mapped && !phys_seen.insert(en.phys).second)
        throw std::logic_error(std::string("trie page drift: physical page ") +
                               std::to_string(en.phys) + " mapped twice");
    }
  }
}

// ---------------------------------------------------------------------------
// Shared read walkers

namespace {
const LeafRec& leaf_at(const StoreCore& core, const TableSet& t, std::uint32_t id) {
  return *reinterpret_cast<const LeafRec*>(core.read_rec(t, id));
}
const BranchRec& branch_at(const StoreCore& core, const TableSet& t, std::uint32_t id) {
  return *reinterpret_cast<const BranchRec*>(core.read_rec(t, id));
}
const ExtRec& ext_at(const StoreCore& core, const TableSet& t, std::uint32_t id) {
  return *reinterpret_cast<const ExtRec*>(core.read_rec(t, id));
}
}  // namespace

Lookup walk_get(const StoreCore& core, const TableSet& tables, const RefRec& root,
                ByteView key, Hash32* value_out) {
  const Nibbles nibs = to_nibbles(key);
  const ByteView path{nibs.data(), nibs.size()};
  std::size_t pos = 0;
  RefRec ref = root;
  while (true) {
    if (ref.sealed()) return Lookup::kSealed;
    if (ref.is_empty()) return Lookup::kAbsent;
    switch (kind_of(ref.node)) {
      case kLeaf: {
        const LeafRec& leaf = leaf_at(core, tables, ref.node);
        const ByteView rest = path.subspan(pos);
        if (leaf.suffix.size() == rest.size() &&
            common_prefix_span(leaf.suffix.view(), rest) == rest.size()) {
          if (value_out != nullptr) *value_out = leaf.value;
          return Lookup::kFound;
        }
        return Lookup::kAbsent;
      }
      case kBranch: {
        const BranchRec& branch = branch_at(core, tables, ref.node);
        if (pos >= path.size()) return Lookup::kAbsent;
        ref = branch.children[path[pos]];
        ++pos;
        break;
      }
      default: {
        const ExtRec& ext = ext_at(core, tables, ref.node);
        const std::size_t cp = common_prefix_span(ext.path.view(), path.subspan(pos));
        if (cp != ext.path.size()) return Lookup::kAbsent;
        pos += cp;
        ref = ext.child;
        break;
      }
    }
  }
}

Proof walk_prove(const StoreCore& core, const TableSet& tables, const RefRec& root,
                 ByteView key) {
  const Nibbles nibs = to_nibbles(key);
  const ByteView path{nibs.data(), nibs.size()};
  std::size_t pos = 0;
  Proof proof;

  RefRec ref = root;
  while (true) {
    if (ref.sealed()) throw SealedError("prove: key path enters a sealed region");
    if (ref.is_empty()) return proof;  // absence; possibly empty proof for empty trie
    switch (kind_of(ref.node)) {
      case kLeaf: {
        const LeafRec& leaf = leaf_at(core, tables, ref.node);
        proof.nodes.emplace_back(
            ProofLeaf{Nibbles(leaf.suffix.nibs, leaf.suffix.nibs + leaf.suffix.len),
                      leaf.value});
        return proof;
      }
      case kBranch: {
        const BranchRec& branch = branch_at(core, tables, ref.node);
        ProofBranch pb;
        for (std::size_t i = 0; i < 16; ++i)
          if (!branch.children[i].is_empty()) pb.children[i] = branch.children[i].hash;
        proof.nodes.emplace_back(std::move(pb));
        if (pos >= path.size()) return proof;  // absence (interior end)
        const RefRec child = branch.children[path[pos]];
        ++pos;
        if (child.is_empty()) return proof;  // absence proven by missing child
        ref = child;
        break;
      }
      default: {
        const ExtRec& ext = ext_at(core, tables, ref.node);
        proof.nodes.emplace_back(
            ProofExtension{Nibbles(ext.path.nibs, ext.path.nibs + ext.path.len),
                           ext.child.hash});
        const std::size_t cp = common_prefix_span(ext.path.view(), path.subspan(pos));
        if (cp != ext.path.size()) return proof;  // absence at divergence
        pos += cp;
        ref = ext.child;
        break;
      }
    }
  }
}

}  // namespace bmg::trie
