#include "counterparty/chain.hpp"

#include <array>
#include <span>

#include "crypto/sha256.hpp"

namespace bmg::counterparty {

namespace {
/// Every counterparty validator carries the same stake, so quorum is a
/// head count.
constexpr std::uint64_t kStakePerValidator = 1'000;
/// Heights whose snapshot (and signed header) stay in memory.
constexpr std::size_t kRecentHeights = 256;
/// Heights whose commit stays, so header_at can still sign them.
constexpr std::size_t kCommitHeights = 4096;

/// The ring entry for height `h` (heights start at 1 and are
/// contiguous, so the ring grows until it wraps).
template <typename T>
T& ring_slot(std::vector<T>& ring, std::size_t capacity, ibc::Height h) {
  const std::size_t i = (h - 1) % capacity;
  if (i == ring.size()) ring.emplace_back();
  return ring[i];
}
}  // namespace

CounterpartyChain::CounterpartyChain(sim::Simulation& sim, Rng rng, Config cfg)
    : sim_(sim),
      rng_(rng),
      cfg_(std::move(cfg)),
      module_(store_),
      transfer_(module_, bank_, "transfer") {
  for (int i = 0; i < cfg_.num_validators; ++i) {
    validator_keys_.push_back(
        crypto::PrivateKey::from_label(cfg_.chain_id + "-validator-" + std::to_string(i)));
    validator_set_.add(validator_keys_.back().public_key(), kStakePerValidator);
  }

  module_.set_self_identity(cfg_.chain_id, [this] { return validator_set_.hash(); });

  // Seed application state so IBC proofs have realistic depth.  The
  // per-key preimage is tiny, so encode it into one reused stack
  // buffer instead of a heap Encoder per key.
  std::array<std::uint8_t, 128> key_buf;
  for (std::size_t i = 0; i < cfg_.background_state_keys; ++i) {
    Encoder e{std::span<std::uint8_t>(key_buf)};
    e.str(cfg_.chain_id).u64(i);
    const Hash32 key = crypto::Sha256::digest(e.out());
    store_.set(key.view(), crypto::Sha256::digest(key.view()));
  }
}

void CounterpartyChain::start() {
  if (started_) return;
  started_ = true;
  sim_.after(cfg_.block_interval_s, [this] { produce_block(); });
}

void CounterpartyChain::produce_block() {
  ++height_;

  // Trie writes accumulated since the last block are hashed in one
  // batched commit, mirroring how a real chain commits app state once
  // per block.
  store_.commit();

  // Sample the commit: each validator participates with probability
  // `signature_participation`; top up deterministically if the sample
  // fell short of quorum (Tendermint commits always carry >2/3).
  Commit& commit = ring_slot(commits_, kCommitHeights, height_);
  commit.header.chain_id = cfg_.chain_id;
  commit.header.height = height_;
  commit.header.timestamp = sim_.now();
  commit.header.state_root = store_.root_hash();
  commit.header.validator_set_hash = validator_set_.hash();
  const std::size_t n = validator_keys_.size();
  commit.signers.assign((n + 63) / 64, 0);
  std::uint64_t power = 0;
  const auto add = [&](std::size_t i) {
    commit.signers[i / 64] |= std::uint64_t{1} << (i % 64);
    power += validator_set_.entries()[i].stake;
  };
  const double participation =
      rng_.uniform(cfg_.participation_min, cfg_.participation_max);
  for (std::size_t i = 0; i < n; ++i)
    if (rng_.chance(participation)) add(i);
  for (std::size_t i = 0; i < n && power < validator_set_.quorum_stake(); ++i)
    if (!commit.signed_by(i)) add(i);

  // Historical proof basis: one root copy per block.  Signed headers
  // are cached for the same window of heights.
  ring_slot(snapshots_, kRecentHeights, height_) = store_.snapshot();
  const ibc::Height oldest_recent = height_ >= kRecentHeights ? height_ - kRecentHeights + 1 : 1;
  headers_.erase(headers_.begin(), headers_.lower_bound(oldest_recent));

  for (const auto& cb : block_callbacks_) cb(height_);

  sim_.after(cfg_.block_interval_s, [this] { produce_block(); });
}

const ibc::SignedQuorumHeader& CounterpartyChain::header_at(ibc::Height h) const {
  const auto it = headers_.find(h);
  if (it != headers_.end()) return it->second;

  if (!recent(h, kCommitHeights))
    throw ibc::IbcError("counterparty: no header at height " + std::to_string(h));
  const Commit& commit = commits_[(h - 1) % kCommitHeights];

  // Ed25519 signing is deterministic, and the signers are taken in
  // ascending validator order, so re-signing an evicted height rebuilds
  // its header byte for byte.
  ibc::SignedQuorumHeader sh;
  sh.header = commit.header;
  const Hash32 digest = sh.signing_digest();
  std::vector<const crypto::PrivateKey*> keys;
  for (std::size_t i = 0; i < validator_keys_.size(); ++i)
    if (commit.signed_by(i)) keys.push_back(&validator_keys_[i]);
  const std::vector<crypto::Signature> sigs = crypto::sign_all(keys, digest.view());
  sh.signatures.reserve(keys.size());
  for (std::size_t j = 0; j < keys.size(); ++j)
    sh.signatures.emplace_back(keys[j]->public_key(), sigs[j]);
  return headers_.emplace(h, std::move(sh)).first->second;
}

void CounterpartyChain::on_new_block(std::function<void(ibc::Height)> cb) {
  block_callbacks_.push_back(std::move(cb));
}

trie::Proof CounterpartyChain::prove_at(ibc::Height h, ByteView key) const {
  if (!recent(h, kRecentHeights))
    throw ibc::IbcError("counterparty: no snapshot at height " + std::to_string(h));
  return snapshots_[(h - 1) % kRecentHeights].prove(key);
}

trie::TrieSnapshot CounterpartyChain::snapshot_at(ibc::Height h) const {
  if (!recent(h, kRecentHeights)) return {};
  return snapshots_[(h - 1) % kRecentHeights];
}

}  // namespace bmg::counterparty
