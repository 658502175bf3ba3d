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
#include <optional>
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

  /// Credits `who` outside any transaction: no reorg takes it back.
  void airdrop(const crypto::PublicKey& who, std::uint64_t lamports);
  [[nodiscard]] std::uint64_t balance(const crypto::PublicKey& who) const;

  /// Begins slot production (call once after setup).  Slot k's
  /// boundary is T(k) = T(k-1) + slot_seconds, T(0) the start time; an
  /// unarmed chain produces only the slots with work (DESIGN §8).
  void start();

  // -- usage ----------------------------------------------------------
  /// Submits a transaction, drawing here the slot it lands in (or its
  /// expiry).  The result handler fires when the tx is executed or
  /// dropped; oversized transactions fail immediately.
  void submit(Transaction tx, ResultHandler on_result = {});
  /// Largest transaction wire size submit() accepts; relayers chunk
  /// staged payloads to it.
  [[nodiscard]] std::size_t max_tx_size() const noexcept { return cfg_.max_tx_size; }
  [[nodiscard]] double slot_seconds() const noexcept { return cfg_.slot_seconds; }

  /// Runs `fn` at the end of every produced slot, inside the slot's own
  /// event after its transactions: every state change of the slot is
  /// visible, and no other event runs between the slot and its hooks.
  void on_slot_end(std::function<void()> fn);
  /// Produces the first unproduced slot whose boundary is at or after
  /// max(t, now()), so an on_slot_end callback runs there.  A no-op
  /// on an armed chain, which produces every slot.
  void wake_at(double t);
  /// The first slot boundary at or after `t`, for `t` at or after
  /// now(), produced or not (+infinity before start()).
  [[nodiscard]] double boundary_at_or_after(double t) const;

  /// Processed subscription: `handler` sees each event inline at
  /// execution, and again whenever a reorg re-executes its transaction.
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

  /// The current slot: on an armed chain the last one produced, on
  /// any other the number of slot boundaries at or before now().
  [[nodiscard]] std::uint64_t slot() const { return fork_mode_ ? slot_ : passed().slot; }

  // -- accounting -----------------------------------------------------
  struct PayerStats {
    std::uint64_t fees_lamports = 0;
    std::uint64_t tx_count = 0;
    std::uint64_t sig_count = 0;  ///< tx signature + pre-compile sigs
  };
  [[nodiscard]] const PayerStats& payer_stats(const crypto::PublicKey& who) const;
  [[nodiscard]] std::uint64_t executed_count() const noexcept { return ledger_.executed; }
  [[nodiscard]] std::uint64_t failed_count() const noexcept { return ledger_.failed; }
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
    /// Slot after which the blockhash is too old (only an outage slot
    /// consults it: every other slot includes what it holds).
    std::uint64_t expiry_slot = UINT64_MAX;
  };

  /// One executed transaction as journalled on an armed chain: enough
  /// to re-execute it on the winning fork of a reorg, and to feed
  /// rooted delivery.
  struct JournalTx {
    Transaction tx;
    ResultHandler on_result;
    TxResult result;            ///< as delivered on the current fork
    std::vector<Event> events;  ///< dispatched events (empty on failure)
    bool sig_ok = true;         ///< pre-compile verdict (re-execution skips crypto)
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

  /// A slot boundary: slot `slot` begins at `time`.
  struct Boundary {
    std::uint64_t slot = 0;
    double time = 0;
  };
  /// The next boundary, by the same addition every slot has always
  /// made, so every slot time is the same double however it is reached.
  [[nodiscard]] Boundary next(Boundary b) const noexcept {
    return {b.slot + 1, b.time + cfg_.slot_seconds};
  }
  /// The last boundary at or before now() (slot 0 before start()).
  [[nodiscard]] Boundary passed() const;
  /// Queues the next slot with work (on an armed chain, the next slot).
  void schedule_next();
  /// Queues slot `k` unless an earlier slot is already queued.
  void schedule_slot(std::uint64_t k);
  void on_slot(std::uint64_t k);
  /// Executes at explicit (slot, time) coordinates, recording into the
  /// slot's undo log on an armed chain.  A re-execution passes the
  /// journalled pre-compile verdict instead of verifying again.
  void execute_tx_at(PendingTx& ptx, std::uint64_t slot, double time,
                     std::optional<bool> journaled_sig_ok = std::nullopt);
  [[nodiscard]] double inclusion_probability(const FeePolicy& fee) const;
  /// Delivers the result of a transaction that never executes
  /// (oversize or expired) at sim time `when`.
  void report_unexecuted(ResultHandler on_result, std::string label, std::string error,
                         double when);
  /// Armed now, or will arm at start(): subscriptions are routinely
  /// registered before slot production begins.
  [[nodiscard]] bool armed() const noexcept {
    return fork_mode_ || (!started_ && (cfg_.fork_aware || cfg_.fault.has_reorg_windows()));
  }

  // --- fork machinery (armed chains only) ------------------------------
  void maybe_trigger_reorg();
  /// Retracts the last `depth` slots: unwinds their undo logs newest
  /// first, then re-executes the survivors of the survival draw.
  void perform_reorg(std::uint64_t depth);
  /// Drops the undo logs of rooted slots, and the journal entries that
  /// every rooted subscriber has been delivered.  At the end of every
  /// slot, reorg or not.
  void prune_rooted();
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

  /// Everything transactions change outside the programs: the state a
  /// reorg unwinds beside each program's own.
  struct Ledger {
    std::map<crypto::PublicKey, std::uint64_t> balances;
    std::map<crypto::PublicKey, PayerStats> payer_stats;
    std::uint64_t executed = 0;
    std::uint64_t failed = 0;
  };
  Ledger ledger_;

  /// A slot with work: the transactions chosen for it (none for a
  /// wake), and the boundary of the slot before it once an arm event
  /// needed it — walked to once, however often the slot is queued.
  struct SlotWork {
    std::vector<PendingTx> txs;
    std::optional<double> arm_time;
  };
  /// Keyed by slot: the slots with work.  An unarmed chain produces no
  /// other.
  std::map<std::uint64_t, SlotWork> pending_;
  std::vector<std::function<void()>> slot_end_hooks_;

  std::uint64_t slot_ = 0;  ///< last slot produced
  /// Cursor for passed(): a boundary at or before now(), at or after
  /// the last slot produced; it only moves forward.
  mutable Boundary clock_;
  /// The slot queued to be produced next (0: none), and the generation
  /// of its event: a superseded event fires as a no-op.
  std::uint64_t next_slot_ = 0;
  std::uint64_t slot_gen_ = 0;
  bool in_slot_ = false;
  bool started_ = false;
  std::uint64_t dropped_ = 0;

  // --- fork state ------------------------------------------------------
  bool fork_mode_ = false;
  std::uint64_t fork_epoch_ = 0;
  /// Per-slot execution journal (armed chains only): every transaction
  /// of an unrooted slot, which a reorg re-executes, plus rooted
  /// entries a rooted subscriber has not been delivered yet (DESIGN §15).
  std::map<std::uint64_t, std::vector<JournalTx>> journal_;
  /// What the transactions of each unrooted slot wrote to the ledger
  /// and to every program (armed chains only).
  UndoRecorder undo_;
  std::map<std::uint64_t, UndoRecorder::Log> undo_logs_;
  std::vector<RootedSub> rooted_subs_;
  std::map<RootedWaitId, RootedWait> rooted_waits_;
  RootedWaitId next_rooted_wait_ = 1;

  friend class TxContext;
  /// Event/transfer buffers for the transaction being executed.
  std::vector<Event> tx_event_buffer_;
  std::vector<std::tuple<crypto::PublicKey, crypto::PublicKey, std::uint64_t>>
      tx_transfer_buffer_;
};

}  // namespace bmg::host
