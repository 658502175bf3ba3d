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
  Commit commit;
  commit.header.chain_id = cfg_.chain_id;
  commit.header.height = height_;
  commit.header.timestamp = sim_.now();
  commit.header.state_root = store_.root_hash();
  commit.header.validator_set_hash = validator_set_.hash();
  std::uint64_t power = 0;
  const double participation =
      rng_.uniform(cfg_.participation_min, cfg_.participation_max);
  in_commit_scratch_.assign(validator_keys_.size(), false);
  std::vector<bool>& in_commit = in_commit_scratch_;
  for (std::size_t i = 0; i < validator_keys_.size(); ++i) {
    if (rng_.chance(participation)) {
      in_commit[i] = true;
      power += validator_set_.entries()[i].stake;
    }
  }
  for (std::size_t i = 0; i < validator_keys_.size() && power < validator_set_.quorum_stake();
       ++i) {
    if (!in_commit[i]) {
      in_commit[i] = true;
      power += validator_set_.entries()[i].stake;
    }
  }
  commit.signer_indices.reserve(validator_keys_.size());
  for (std::size_t i = 0; i < validator_keys_.size(); ++i)
    if (in_commit[i]) commit.signer_indices.push_back(i);

  commits_[height_] = std::move(commit);
  while (commits_.size() > kCommitHeights) commits_.erase(commits_.begin());
  // Historical proof basis: one root copy per block.  Signed headers
  // are cached for the same window of heights.
  snapshots_[height_] = store_.snapshot();
  while (snapshots_.size() > kRecentHeights) snapshots_.erase(snapshots_.begin());
  headers_.erase(headers_.begin(), headers_.lower_bound(snapshots_.begin()->first));

  for (const auto& cb : block_callbacks_) cb(height_);

  sim_.after(cfg_.block_interval_s, [this] { produce_block(); });
}

const ibc::SignedQuorumHeader& CounterpartyChain::header_at(ibc::Height h) const {
  const auto it = headers_.find(h);
  if (it != headers_.end()) return it->second;

  const auto commit = commits_.find(h);
  if (commit == commits_.end())
    throw ibc::IbcError("counterparty: no header at height " + std::to_string(h));

  // Ed25519 signing is deterministic, so re-signing an evicted height
  // rebuilds its header byte for byte.
  ibc::SignedQuorumHeader sh;
  sh.header = commit->second.header;
  const Hash32 digest = sh.signing_digest();
  const std::vector<std::size_t>& signers = commit->second.signer_indices;
  std::vector<const crypto::PrivateKey*> keys(signers.size());
  for (std::size_t j = 0; j < signers.size(); ++j) keys[j] = &validator_keys_[signers[j]];
  const std::vector<crypto::Signature> sigs = crypto::sign_all(keys, digest.view());
  sh.signatures.reserve(signers.size());
  for (std::size_t j = 0; j < signers.size(); ++j)
    sh.signatures.emplace_back(keys[j]->public_key(), sigs[j]);
  return headers_.emplace(h, std::move(sh)).first->second;
}

void CounterpartyChain::on_new_block(std::function<void(ibc::Height)> cb) {
  block_callbacks_.push_back(std::move(cb));
}

trie::Proof CounterpartyChain::prove_at(ibc::Height h, ByteView key) const {
  const auto it = snapshots_.find(h);
  if (it == snapshots_.end())
    throw ibc::IbcError("counterparty: no snapshot at height " + std::to_string(h));
  return it->second.prove(key);
}

trie::TrieSnapshot CounterpartyChain::snapshot_at(ibc::Height h) const {
  const auto it = snapshots_.find(h);
  if (it == snapshots_.end()) return {};
  return it->second;
}

}  // namespace bmg::counterparty
