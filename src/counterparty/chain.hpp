// The counterparty blockchain: a Tendermint-like chain with native IBC
// support, standing in for Picasso Network (paper §IV).
//
// It produces a block every few seconds, finalised instantly by a
// stake-weighted commit: every block carries signatures from a quorum
// of its validators.  Those commits are exactly what the guest
// contract's light client must verify on the host — the size of a
// commit (dozens of 96-byte signature entries) is what forces light
// client updates to be split across ~36 host transactions (paper
// §V-A, Figs. 4-5).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ibc/bank.hpp"
#include "ibc/module.hpp"
#include "ibc/quorum.hpp"
#include "ibc/transfer.hpp"
#include "sim/scheduler.hpp"
#include "trie/snapshot.hpp"
#include "trie/trie.hpp"

namespace bmg::counterparty {

struct Config {
  std::string chain_id = "picasso-1";
  /// Cosmos-style block interval in seconds.
  double block_interval_s = 6.0;
  /// Validator-set size; drives commit size and therefore the cost and
  /// latency of light client updates on the host.
  int num_validators = 60;
  /// Number of non-IBC key-value pairs seeded into the provable store.
  /// A real Cosmos chain's state is dominated by application data, so
  /// IBC membership proofs are several levels deep (~2 KB) — which is
  /// why ReceivePacket needs 4-5 chunked host transactions (§V-A).
  std::size_t background_state_keys = 4096;
  /// Per-block commit participation is drawn uniformly from this
  /// range, then each validator joins the commit with that
  /// probability (the commit is always topped up to quorum).  The
  /// resulting variance in commit size drives the spread of light
  /// client update sizes/costs (paper Figs. 4-5).
  double participation_min = 0.85;
  double participation_max = 0.98;
};

class CounterpartyChain {
 public:
  CounterpartyChain(sim::Simulation& sim, Rng rng, Config cfg = {});

  /// Starts block production.
  void start();

  [[nodiscard]] const std::string& chain_id() const noexcept { return cfg_.chain_id; }
  [[nodiscard]] ibc::Height height() const noexcept { return height_; }
  [[nodiscard]] double now() const noexcept { return sim_.now(); }

  [[nodiscard]] trie::SealableTrie& store() noexcept { return store_; }
  [[nodiscard]] ibc::IbcModule& ibc() noexcept { return module_; }
  [[nodiscard]] ibc::Bank& bank() noexcept { return bank_; }
  [[nodiscard]] ibc::TokenTransferApp& transfer() noexcept { return transfer_; }

  [[nodiscard]] const ibc::ValidatorSet& validators() const noexcept {
    return validator_set_;
  }

  /// The signed header (with its quorum commit) for a finalised
  /// height; relayers ship these to the guest light client.  A block
  /// keeps only its header and which validators signed it; the
  /// signatures are made on first request (a pure simulation
  /// optimization — the header is identical) and cached for the last
  /// 256 heights; an older height of the last 4,096 is signed again,
  /// byte for byte.  Throws for any other height.  The reference is
  /// valid until the next block.
  [[nodiscard]] const ibc::SignedQuorumHeader& header_at(ibc::Height h) const;

  /// Registers a callback invoked after each new block.
  void on_new_block(std::function<void(ibc::Height)> cb);

  /// Builds a (non-)membership proof for `key` against the state root
  /// committed at height `h` (served from a per-block snapshot, like a
  /// full node answering historical ABCI queries).
  [[nodiscard]] trie::Proof prove_at(ibc::Height h, ByteView key) const;

  /// The immutable snapshot backing prove_at(h); invalid once pruned.
  [[nodiscard]] trie::TrieSnapshot snapshot_at(ibc::Height h) const;

 private:
  void produce_block();

  sim::Simulation& sim_;
  Rng rng_;
  Config cfg_;

  trie::SealableTrie store_;
  ibc::IbcModule module_;
  ibc::Bank bank_;
  ibc::TokenTransferApp transfer_;

  std::vector<crypto::PrivateKey> validator_keys_;
  ibc::ValidatorSet validator_set_;

  /// A block's commit: its header and one bit per validator that
  /// signed it (validator i is bit i % 64 of word i / 64).
  struct Commit {
    ibc::QuorumHeader header;
    std::vector<std::uint64_t> signers;

    [[nodiscard]] bool signed_by(std::size_t i) const noexcept {
      return (signers[i / 64] >> (i % 64)) & 1;
    }
  };

  /// Whether height `h` is among the last `window` blocks.
  [[nodiscard]] bool recent(ibc::Height h, std::size_t window) const noexcept {
    return h >= 1 && h <= height_ && height_ - h < window;
  }

  ibc::Height height_ = 0;
  /// Rings indexed by height: height h sits at (h - 1) % capacity, and
  /// heights are contiguous, so the last `capacity` blocks are held.
  std::vector<Commit> commits_;
  /// Recent per-block state snapshots for historical proofs (each is
  /// one root copy sharing the trie's nodes, not a deep trie copy).
  std::vector<trie::TrieSnapshot> snapshots_;
  /// Signed-header cache; header_at fills it, produce_block evicts it.
  mutable std::map<ibc::Height, ibc::SignedQuorumHeader> headers_;
  std::vector<std::function<void(ibc::Height)>> block_callbacks_;
  bool started_ = false;
};

}  // namespace bmg::counterparty
