// The Guest Contract (paper §III-A, Alg. 1) — the smart contract on
// the host chain that *is* the guest blockchain.
//
// It maintains the guest chain's provable state in a sealable trie,
// produces guest blocks (GenerateBlock), collects validator
// signatures until a stake quorum finalises each block (Sign), and
// bridges IBC traffic between the host and the counterparty
// (SendPacket / ReceivePacket, plus the chunked light-client-update
// machinery that Solana's transaction-size and compute limits force).
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "guest/block.hpp"
#include "guest/instructions.hpp"
#include "host/program.hpp"
#include "ibc/bank.hpp"
#include "ibc/module.hpp"
#include "ibc/quorum.hpp"
#include "ibc/transfer.hpp"
#include "trie/snapshot.hpp"
#include "trie/trie.hpp"

namespace bmg::guest {

struct GuestConfig {
  std::string chain_id = "guest-1";
  /// Δ — maximum age before an empty block is generated (paper: 1 h).
  double delta_seconds = 3600.0;
  /// Epoch length in host slots (paper: 100k slots ≈ 12 h).
  std::uint64_t epoch_length_host_slots = 100'000;
  /// Validator-set size cap (paper's deployment had 24).
  std::size_t max_validators = 24;
  /// Stake held after exit (paper: one week).
  double unstake_hold_seconds = 7.0 * 24 * 3600;
  /// Share of the treasury (accumulated send fees) paid out to a
  /// block's signers when it finalises, split pro rata by stake.  The
  /// paper's deployment lacked automatic rewards (§V-C) and attributes
  /// validator disengagement to it; this completes the incentive loop.
  double signer_reward_fraction = 0.0;
  /// §VI-C: minimum host-time between accepted counterparty light
  /// client updates (0 disables).  Rate limiting gives honest actors
  /// time to react to a counterparty compromise.
  double client_update_min_interval_s = 0.0;
  /// Number of recent blocks whose full records (signer sets, packet
  /// lists) are retained; older records are pruned down to their
  /// headers so the contract account stays bounded.
  std::uint64_t block_history_window = 512;
  /// §VI-A: once the guest chain has been stalled this long, anyone
  /// may trigger self-destruction, releasing all staked assets to the
  /// remaining validators (0 disables).  Mitigates the
  /// last-validator-wishing-to-quit bank run.
  double self_destruct_after_s = 0.0;
};

class GuestContract final : public host::Program {
 public:
  /// The embedded counterparty light client tracks
  /// `counterparty_chain_id` from `counterparty_validators`.
  GuestContract(GuestConfig cfg, std::vector<ibc::ValidatorInfo> genesis_validators,
                std::string counterparty_chain_id,
                ibc::ValidatorSet counterparty_validators);
  ~GuestContract() override;

  // host::Program:
  void execute(host::TxContext& ctx, ByteView instruction_data) override;
  [[nodiscard]] std::size_t account_bytes() const override;
  /// Records every transaction write (DESIGN §15), and hands the
  /// recorder to the IBC module, the light client and the bank.
  [[nodiscard]] bool fork_supported() const override { return true; }

  // --- off-chain read API (account reads are free on the host) --------
  [[nodiscard]] const GuestBlock& head() const { return blocks_.back(); }
  [[nodiscard]] const GuestBlock& block_at(ibc::Height h) const;
  [[nodiscard]] std::size_t block_count() const { return blocks_.size(); }
  /// Sum of byte_size() over every block record, kept as records are
  /// pushed and edited (account_bytes() reads it).
  [[nodiscard]] std::size_t block_bytes() const noexcept { return block_bytes_; }
  /// Δ: the head age at which GenerateBlock is accepted with no state
  /// change.
  [[nodiscard]] double delta_seconds() const noexcept { return cfg_.delta_seconds; }

  [[nodiscard]] ibc::IbcModule& ibc() noexcept { return module_; }
  [[nodiscard]] const ibc::IbcModule& ibc() const noexcept { return module_; }
  [[nodiscard]] ibc::Bank& bank() noexcept { return bank_; }
  [[nodiscard]] ibc::TokenTransferApp& transfer() noexcept { return transfer_; }
  [[nodiscard]] const trie::SealableTrie& store() const noexcept { return store_; }

  [[nodiscard]] const ibc::ValidatorSet& epoch_validators() const noexcept {
    return *epoch_;
  }
  [[nodiscard]] const ibc::ClientId& counterparty_client_id() const noexcept {
    return counterparty_client_id_;
  }
  [[nodiscard]] const ibc::QuorumLightClient& counterparty_client() const noexcept {
    return *counterparty_client_;
  }

  /// Proof against the state root committed in the guest block at `h`
  /// (Alg. 2 line 9 — relayers generate these off-chain).
  [[nodiscard]] trie::Proof prove_at(ibc::Height h, ByteView key) const;

  /// The immutable state snapshot published with the block at `h`
  /// (what prove_at proves against); an invalid snapshot once pruned.
  /// Relayers hold one to test and prove a block's keys after the
  /// contract has committed (and pruned) past it.
  [[nodiscard]] trie::TrieSnapshot snapshot_at(ibc::Height h) const;

  /// §VI-A: true once the contract has self-destructed.
  [[nodiscard]] bool terminated() const noexcept { return terminated_; }
  /// Packets sent since the head block; the next block carries them.
  [[nodiscard]] const auto& pending_packets() const noexcept { return pending_packets_; }
  /// Heights below this keep only their headers (§V-D pruning).
  [[nodiscard]] ibc::Height pruned_below() const noexcept { return pruned_below_; }
  /// Host slot at which the active epoch began.
  [[nodiscard]] std::uint64_t epoch_start_slot() const noexcept { return epoch_start_host_slot_; }
  /// First host slot at which GenerateBlock rotates the epoch.
  [[nodiscard]] std::uint64_t epoch_end_slot() const noexcept {
    return epoch_start_host_slot_ + cfg_.epoch_length_host_slots;
  }
  /// Host time of the last accepted light-client update (§VI-C).
  [[nodiscard]] double last_client_update_time() const noexcept { return last_client_update_time_; }

  // --- crash-restart resync surface -----------------------------------
  // Everything a relayer needs to rebuild its in-memory state after a
  // process crash is an account read away; these expose the contract
  // accounts a restarted process scans.

  /// Height of the newest *finalised* guest block (0 = genesis only).
  [[nodiscard]] ibc::Height last_finalised_height() const;

  /// The in-progress chunked light-client update, if any: which
  /// counterparty height it targets and which validator signatures
  /// have already been verified on-chain.  A restarted relayer resumes
  /// from here instead of re-uploading the whole update.
  struct PendingUpdateInfo {
    ibc::Height height = 0;
    std::uint64_t verified_power = 0;
    std::vector<crypto::PublicKey> seen;
  };
  [[nodiscard]] std::optional<PendingUpdateInfo> pending_update_info() const;

  /// Ids of staging buffers `payer` has uploaded chunks into but not
  /// yet consumed, in increasing id order.
  [[nodiscard]] std::vector<std::uint64_t> staging_buffers_of(
      const crypto::PublicKey& payer) const;
  /// Bytes uploaded so far into one staging buffer (chunks are strictly
  /// sequential, so size == next expected offset); nullopt if absent.
  [[nodiscard]] std::optional<std::size_t> staging_buffer_size(
      const crypto::PublicKey& payer, std::uint64_t buffer_id) const;
  /// Contents uploaded so far into one staging buffer; nullopt if
  /// absent.  Lets a restarted uploader (e.g. a fisherman holding
  /// half-prosecuted evidence) recover what it already paid to stage
  /// instead of losing it with its process memory.
  [[nodiscard]] std::optional<Bytes> staging_buffer_bytes(
      const crypto::PublicKey& payer, std::uint64_t buffer_id) const;

  /// Root of the retained state snapshot for height `h` (what prove_at
  /// proves against); nullopt once pruned.  The auditor cross-checks
  /// this against the root committed in the block header.
  [[nodiscard]] std::optional<Hash32> snapshot_root_at(ibc::Height h) const;

  [[nodiscard]] std::uint64_t stake_of(const crypto::PublicKey& validator) const;
  [[nodiscard]] bool is_banned(const crypto::PublicKey& validator) const;
  [[nodiscard]] std::uint64_t fees_collected() const noexcept { return fees_collected_; }
  [[nodiscard]] std::uint64_t rewards_paid() const noexcept { return rewards_paid_; }

  /// Accounts the contract moves funds through.
  [[nodiscard]] const crypto::PublicKey& treasury() const noexcept { return treasury_; }
  [[nodiscard]] const crypto::PublicKey& stake_vault() const noexcept { return vault_; }

  // Event names emitted through the host runtime.
  static constexpr const char* kEvNewBlock = "NewBlock";
  static constexpr const char* kEvFinalisedBlock = "FinalisedBlock";
  static constexpr const char* kEvPacketSent = "PacketSent";
  static constexpr const char* kEvPacketReceived = "PacketReceived";
  static constexpr const char* kEvSlashed = "Slashed";

 private:
  struct Candidate {
    std::uint64_t stake = 0;
  };
  struct PendingWithdrawal {
    crypto::PublicKey who;
    std::uint64_t lamports = 0;
    double available_at = 0;
  };
  struct PendingUpdate {
    ibc::QuorumHeader header;
    std::optional<ibc::ValidatorSet> next_validators;
    Hash32 digest{};
    std::uint64_t verified_power = 0;
    /// Validators already counted, kept sorted; binary-search insert
    /// avoids the per-signer node allocation of a std::set on the
    /// client-update hot path.
    std::vector<crypto::PublicKey> seen;
  };

  // Instruction handlers.
  void op_generate_block(host::TxContext& ctx);
  void op_sign(host::TxContext& ctx, Decoder& d);
  void op_send_packet(host::TxContext& ctx, Decoder& d);
  void op_send_transfer(host::TxContext& ctx, Decoder& d);
  void op_chunk_upload(host::TxContext& ctx, Decoder& d);
  void op_receive_packet(host::TxContext& ctx, Decoder& d);
  void op_acknowledge_packet(host::TxContext& ctx, Decoder& d);
  void op_timeout_packet(host::TxContext& ctx, Decoder& d);
  void op_begin_client_update(host::TxContext& ctx, Decoder& d);
  void op_verify_update_signatures(host::TxContext& ctx);
  void op_finish_client_update(host::TxContext& ctx);
  void op_stake(host::TxContext& ctx, Decoder& d);
  void op_unstake(host::TxContext& ctx, Decoder& d);
  void op_withdraw_stake(host::TxContext& ctx);
  void op_submit_evidence(host::TxContext& ctx, Decoder& d);
  void op_handshake(host::TxContext& ctx, Decoder& d);
  void op_freeze_client(host::TxContext& ctx, Decoder& d);
  void op_self_destruct(host::TxContext& ctx);

  [[nodiscard]] Bytes take_buffer(host::TxContext& ctx, std::uint64_t buffer_id);
  [[nodiscard]] ibc::ValidatorSet select_validators() const;
  /// Records the trie, as one clone, before the first transaction of
  /// each slot can write it.
  void save_store();
  /// Appends a block record; records its removal.
  void push_block(GuestBlock block);
  /// Applies `edit` to blocks_[h], recording the record's original.
  /// Every write to an existing record goes through here, which keeps
  /// block_bytes_.
  template <typename Edit>
  void edit_block(ibc::Height h, Edit edit);
  /// The effects of `block` reaching quorum, which marked it finalised.
  void finalise_block(host::TxContext& ctx, const GuestBlock& block);
  void collect_send_fee(host::TxContext& ctx);
  void record_sent_packet(host::TxContext& ctx, const ibc::Packet& packet);
  void slash(host::TxContext& ctx, const crypto::PublicKey& offender);

  GuestConfig cfg_;

  trie::SealableTrie store_;
  ibc::IbcModule module_;
  ibc::Bank bank_;
  ibc::TokenTransferApp transfer_;

  ibc::QuorumLightClient* counterparty_client_ = nullptr;
  ibc::ClientId counterparty_client_id_;

  /// Block records, appended by push_block() and changed only through
  /// edit_block().
  std::vector<GuestBlock> blocks_;
  std::size_t block_bytes_ = 0;
  ibc::Height pruned_below_ = 0;  ///< heights below this hold headers only
  /// Copy-on-write snapshots per committed block: each is one root
  /// copy sharing the trie's nodes, not a deep trie copy.
  std::map<ibc::Height, trie::TrieSnapshot> snapshots_;
  std::vector<ibc::Packet> pending_packets_;

  /// The active epoch's validator set, shared (not copied) into every
  /// block it finalises.  Immutable once published; epoch rotation
  /// swaps in a fresh shared_ptr.
  std::shared_ptr<const ibc::ValidatorSet> epoch_;
  std::uint64_t epoch_start_host_slot_ = 0;

  std::map<crypto::PublicKey, Candidate> candidates_;
  std::set<crypto::PublicKey> banned_;
  std::deque<PendingWithdrawal> withdrawals_;

  std::optional<PendingUpdate> pending_update_;
  std::map<std::pair<std::string, std::uint64_t>, Bytes> buffers_;

  crypto::PublicKey treasury_;
  crypto::PublicKey vault_;
  crypto::PublicKey burn_;
  std::uint64_t fees_collected_ = 0;
  std::uint64_t rewards_paid_ = 0;
  double last_client_update_time_ = -1e18;  ///< §VI-C rate limiting
  bool terminated_ = false;                 ///< §VI-A self-destruction

  /// The host's recorder on an armed chain (null on any other): every
  /// write a transaction makes to a member above is recorded first.
  UndoRecorder* undo_ = nullptr;
  /// The slot whose first transaction recorded the trie (0: none).
  std::uint64_t store_slot_ = 0;
};

}  // namespace bmg::guest
