// The host blockchain runtime: slots, mempool, fee market, programs,
// accounts and events.  A deliberately Solana-shaped simulator — it
// enforces the transaction-size, compute-budget and account-size
// limits that the paper's implementation had to engineer around, and
// implements the three fee policies the evaluation compares.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "crypto/keys.hpp"
#include "host/fault.hpp"
#include "host/program.hpp"
#include "host/transaction.hpp"
#include "sim/scheduler.hpp"

namespace bmg::host {

/// On-chain event emitted by a program.
struct Event {
  std::uint64_t slot = 0;
  double time = 0;
  std::string program;
  std::string name;
  Bytes data;
};

/// How much finality a pipeline demands before acting on chain state —
/// two of Solana's commitment levels.
enum class Commitment : std::uint8_t {
  kProcessed,  ///< optimistic tip: instant delivery, may be retracted
  kRooted,     ///< delivered once the slot can no longer be reorged
};

/// Tunables of the inclusion model: probability a pending transaction
/// is picked up in any given slot, per fee policy.  These express how
/// congested the host chain is.
struct ChainConfig {
  double p_include_base = 0.55;
  double p_include_priority = 0.92;
  double p_include_bundle = 0.97;

  // Host-chain parameters (defaults are Solana's — §IV).  The paper's
  // §VI-D argues the guest design ports to other hosts (TRON, NEAR);
  // these knobs let the same contract run under different constraints.
  std::size_t max_tx_size = kMaxTransactionSize;
  std::uint64_t max_compute_units = kMaxComputeUnits;
  std::uint64_t block_compute_units = kBlockComputeUnits;
  double slot_seconds = kSlotSeconds;

  /// Scheduled fault injection (empty = faithful chain, bit-identical
  /// to a chain built before faults existed).  Fault randomness draws
  /// from its own stream so the inclusion RNG is never perturbed.
  FaultPlan fault;
  std::uint64_t fault_seed = 0xFA01'7F4A'11C3'0D5Eull;

  // --- fork/reorg model (fork-aware mode) ----------------------------
  /// Arms the fork machinery even without reorg windows in the plan —
  /// needed to measure rooted-commitment latency on a fork-capable
  /// chain, and to let tests append reorg windows after start().  The
  /// chain also arms itself when the plan already holds effective
  /// reorg windows at start().  Off (and plan reorg-free) = the
  /// historical linear chain, byte-identical to the seed.
  bool fork_aware = false;
  /// Slots behind the optimistic tip at which a slot roots (becomes
  /// irreversible); bounds every reorg depth to rooted_lag_slots - 1.
  std::uint64_t rooted_lag_slots = 32;
};

class Chain {
 public:
  using EventHandler = std::function<void(const Event&)>;
  using ResultHandler = std::function<void(const TxResult&)>;

  Chain(sim::Simulation& sim, Rng rng, ChainConfig cfg = {});

  // -- setup ----------------------------------------------------------
  void register_program(const std::string& name, std::unique_ptr<Program> program);
  [[nodiscard]] Program& program(const std::string& name);
  template <typename T>
  [[nodiscard]] T& program_as(const std::string& name) {
    return dynamic_cast<T&>(program(name));
  }

  void airdrop(const crypto::PublicKey& who, std::uint64_t lamports);
  [[nodiscard]] std::uint64_t balance(const crypto::PublicKey& who) const;

  /// Charges the rent-exempt deposit for `bytes` of account data from
  /// `payer` and records it as recoverable (§V-D).
  void charge_rent(const crypto::PublicKey& payer, std::size_t bytes);
  [[nodiscard]] std::uint64_t rent_deposits(const crypto::PublicKey& payer) const;

  /// Begins slot production (call once after setup).
  void start();

  // -- usage ----------------------------------------------------------
  /// Submits a transaction.  The result handler fires when the tx is
  /// executed or dropped.  Oversized transactions fail immediately.
  void submit(Transaction tx, ResultHandler on_result = {});
  /// Largest transaction wire size submit() accepts; relayers chunk
  /// staged payloads to it.
  [[nodiscard]] std::size_t max_tx_size() const noexcept { return cfg_.max_tx_size; }

  /// Processed subscription: `handler` sees each event inline at
  /// execution, and again whenever a reorg replays its transaction.
  void subscribe(const std::string& program, EventHandler handler);
  /// Rooted subscription.  On a non-fork-aware chain it is a processed
  /// one (blocks are final the instant they are produced); on a
  /// fork-aware chain events are delivered from the journal once their
  /// slot roots, inline at slot boundaries, exactly once each (no extra
  /// simulation events either way).
  void subscribe_rooted(const std::string& program, EventHandler handler);

  // --- fork/finality introspection -----------------------------------
  /// Newest slot that can no longer be reorged.
  [[nodiscard]] std::uint64_t rooted_slot() const noexcept {
    return slot_ > cfg_.rooted_lag_slots ? slot_ - cfg_.rooted_lag_slots : 0;
  }
  /// Whether the fork machinery is armed (set once at start()).
  [[nodiscard]] bool fork_mode() const noexcept { return fork_mode_; }
  /// Incremented on every reorg; consumers compare epochs to detect
  /// that previously observed optimistic state may have been retracted.
  [[nodiscard]] std::uint64_t fork_epoch() const noexcept { return fork_epoch_; }

  /// Calls `fn` once `slot` roots — inline at the slot boundary that
  /// roots it (immediately if already rooted, or at registration on a
  /// non-fork-aware chain where inclusion is final).  Waits survive
  /// reorgs: slot numbers never rewind, only their contents change.
  using RootedWaitId = std::uint64_t;
  RootedWaitId when_rooted(std::uint64_t slot, std::function<void()> fn);
  void cancel_rooted(RootedWaitId id);

  [[nodiscard]] std::uint64_t slot() const noexcept { return slot_; }

  // -- accounting -----------------------------------------------------
  struct PayerStats {
    std::uint64_t fees_lamports = 0;
    std::uint64_t tx_count = 0;
    std::uint64_t sig_count = 0;  ///< tx signature + pre-compile sigs
  };
  [[nodiscard]] const PayerStats& payer_stats(const crypto::PublicKey& who) const;
  [[nodiscard]] std::uint64_t executed_count() const noexcept { return executed_; }
  [[nodiscard]] std::uint64_t failed_count() const noexcept { return failed_; }
  [[nodiscard]] std::uint64_t dropped_count() const noexcept { return dropped_; }

  // -- fault injection ------------------------------------------------
  /// The live fault schedule; mutable so tests can script windows at
  /// runtime (e.g. start an outage mid-run).
  [[nodiscard]] FaultPlan& fault_plan() noexcept { return cfg_.fault; }
  [[nodiscard]] const FaultPlan& fault_plan() const noexcept { return cfg_.fault; }
  [[nodiscard]] const FaultCounters& fault_counters() const noexcept {
    return fault_counters_;
  }

 private:
  struct PendingTx {
    Transaction tx;
    ResultHandler on_result;
    /// Slot after which the blockhash is too old (fault path only; the
    /// fault-free path pre-draws inclusion and never consults this).
    std::uint64_t expiry_slot = UINT64_MAX;
  };

  /// One executed transaction as recorded for fork replay: enough to
  /// re-execute it silently (rebuilding program state bit-for-bit) or
  /// visibly (winning fork), and to feed rooted delivery.
  struct JournalTx {
    Transaction tx;
    ResultHandler on_result;
    TxResult result;            ///< as delivered on the current fork
    std::vector<Event> events;  ///< dispatched events (empty on failure)
    bool sig_ok = true;         ///< pre-compile verdict (replay skips crypto)
  };

  /// A rooted subscriber on an armed chain, with its delivery cursor.
  struct RootedSub {
    std::string program;
    EventHandler handler;
    std::uint64_t cursor = 1;  ///< next journal slot to deliver
  };

  struct RootedWait {
    std::uint64_t slot = 0;
    std::function<void()> fn;
  };

  enum class ExecMode : std::uint8_t {
    kLive,           ///< normal execution: dispatch, notify, journal
    kSilentReplay,   ///< state reconstruction only: no events, no handlers
    kVisibleReplay,  ///< winning-fork re-execution: dispatch + notify + journal
  };

  void on_slot();
  void execute_tx(PendingTx& ptx);
  /// Core execution at explicit (slot, time) coordinates; replay modes
  /// reuse the journalled pre-compile verdict instead of re-verifying.
  TxResult execute_tx_at(PendingTx& ptx, std::uint64_t slot, double time,
                         ExecMode mode, bool journaled_sig_ok);
  [[nodiscard]] double inclusion_probability(const FeePolicy& fee) const;
  /// Fault-aware half of submit(): per-slot inclusion scan honouring
  /// congestion/outage windows, blackholes and duplicate replays.
  void submit_with_faults(Transaction tx, ResultHandler on_result,
                          std::uint64_t first_slot);

  // --- fork machinery (armed chains only) ------------------------------
  void maybe_trigger_reorg();
  void perform_reorg(std::uint64_t depth);
  /// Checkpoints the ledger and every program as of the end of `slot`.
  void take_checkpoint(std::uint64_t slot);
  /// Restores the ledger and every program to the last checkpoint.
  void rollback_to_checkpoint();
  /// Silently re-executes the journal over slots [first, last], failing
  /// loud if any transaction's outcome differs from its journal entry.
  void replay_journal(std::uint64_t first, std::uint64_t last);
  /// Drops journal entries behind the checkpoint that every rooted
  /// subscriber has already been delivered.
  void prune_journal();
  /// Deliver journal events of newly rooted slots to rooted
  /// subscribers, then fire matured rooted waits.  Inline at the end of
  /// every slot.
  void deliver_rooted();
  void fire_rooted_waits();

  sim::Simulation& sim_;
  Rng rng_;
  Rng fault_rng_;
  Rng reorg_rng_;
  ChainConfig cfg_;
  FaultCounters fault_counters_;

  std::unordered_map<std::string, std::unique_ptr<Program>> programs_;
  std::unordered_map<std::string, std::vector<EventHandler>> subscribers_;
  std::map<crypto::PublicKey, std::uint64_t> balances_;
  std::map<crypto::PublicKey, std::uint64_t> rent_deposits_;
  std::map<crypto::PublicKey, PayerStats> payer_stats_;

  /// Transactions keyed by the slot chosen for their inclusion.
  std::map<std::uint64_t, std::vector<PendingTx>> pending_;

  std::uint64_t slot_ = 0;
  bool started_ = false;
  std::uint64_t executed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t dropped_ = 0;

  // --- fork state ------------------------------------------------------
  bool fork_mode_ = false;
  std::uint64_t fork_epoch_ = 0;
  /// Per-slot execution journal (armed chains only): every transaction
  /// executed after the checkpoint, which a rollback replays, plus older
  /// entries a rooted subscriber has not been delivered
  /// yet.  Pruned behind the checkpoint on every reorg (DESIGN §15).
  std::map<std::uint64_t, std::vector<JournalTx>> journal_;
  std::vector<RootedSub> rooted_subs_;
  std::map<RootedWaitId, RootedWait> rooted_waits_;
  RootedWaitId next_rooted_wait_ = 1;
  /// Ledger half of the fork checkpoint (each program keeps its own):
  /// the state as of the end of `slot`, a rooted slot.  Taken at
  /// start() (slot 0) and moved forward to the rooted slot on every
  /// reorg, so a rollback replays only what rooted since the last one.
  struct Checkpoint {
    std::uint64_t slot = 0;
    std::map<crypto::PublicKey, std::uint64_t> balances;
    std::map<crypto::PublicKey, std::uint64_t> rent_deposits;
    std::map<crypto::PublicKey, PayerStats> payer_stats;
    std::uint64_t executed = 0;
    std::uint64_t failed = 0;
    std::uint64_t fee_spiked = 0;
  };
  Checkpoint checkpoint_;

  friend class TxContext;
  /// Event/transfer buffers for the transaction being executed.
  std::vector<Event> tx_event_buffer_;
  std::vector<std::tuple<crypto::PublicKey, crypto::PublicKey, std::uint64_t>>
      tx_transfer_buffer_;
};

}  // namespace bmg::host
