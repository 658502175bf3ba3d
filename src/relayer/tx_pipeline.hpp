// Resilient host-transaction submission pipeline.
//
// IBC is explicitly designed around unreliable, incentive-driven
// relayers that retry until delivery; the paper's host is a fee market
// where base-fee inclusion is a coin flip (§V-B) and a light client
// update is ~36 sequential transactions (§V-A).  This pipeline turns
// "submit txs strictly one after another, abort on the first loss"
// into a state machine that survives all of it:
//
//   SUBMIT -> (result ok)      -> advance to next tx
//          -> (exec failed)    -> backoff, resubmit same tx
//          -> (dropped)        -> backoff, escalate fee, resubmit
//          -> (deadline fired) -> backoff, escalate fee, resubmit
//   budget exhausted           -> dead-letter queue, sequence fails
//
// Retries resubmit only the failed transaction — an interrupted
// chunk upload never re-uploads the whole staging buffer.  Fee
// escalation climbs the §V-B ladder (base -> priority -> bundle,
// then doubling bids).  Backoff is exponential with deterministic
// jitter from a dedicated RNG stream, so chaos runs replay exactly.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "host/chain.hpp"
#include "sim/scheduler.hpp"

namespace bmg::relayer {

/// Aggregate result of one transaction sequence.
struct SequenceOutcome {
  bool ok = false;
  int txs = 0;      ///< transactions in the sequence as planned
  int retries = 0;  ///< resubmissions beyond the first attempt of each tx
  /// Execution time of the first successful transaction; empty when
  /// nothing executed (a first tx at sim-time 0 is recorded correctly).
  std::optional<double> started_at;
  double finished_at = 0;
  double cost_usd = 0;
  /// Rooted-commitment mode only: time the last transaction's slot
  /// became rooted (the sequence's rooted-confirmation time).
  std::optional<double> rooted_at;
  /// Executions of this sequence's transactions retracted by host
  /// reorgs (each triggered an in-place retry or an off-band repair).
  int reorged_out = 0;

  [[nodiscard]] double start_time() const { return started_at.value_or(0.0); }
};
using SequenceDone = std::function<void(const SequenceOutcome&)>;

enum class RelayErrorKind : std::uint8_t {
  kDropped = 0,        ///< host reported expiry (blockhash too old)
  kExecFailed,         ///< executed but the program errored
  kTimeout,            ///< no result within the per-tx deadline
  kBudgetExhausted,    ///< retry budget spent; sequence dead-lettered
  kCounterpartyReject, ///< a direct counterparty call was refused
  kCrashRestart,       ///< agent process killed / restarted (chaos)
  kReorgedOut,         ///< executed on a fork the host later retracted
  kCount_,             // sentinel
};
[[nodiscard]] const char* to_string(RelayErrorKind kind);

/// One structured relay failure (replaces the unbounded error string).
struct RelayError {
  RelayErrorKind kind = RelayErrorKind::kDropped;
  std::string label;   ///< sequence label + tx index, e.g. "lc-update#7"
  std::string detail;
  double time = 0;
  int attempt = 0;     ///< which attempt of the tx failed (0-based)
};

/// Bounded ring buffer of RelayErrors; old entries are overwritten but
/// per-kind totals keep counting.
class ErrorLog {
 public:
  explicit ErrorLog(std::size_t capacity = 64);

  void push(RelayError e);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  /// Errors ever pushed, including overwritten ones.
  [[nodiscard]] std::uint64_t total_recorded() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t total_of(RelayErrorKind kind) const;
  /// i = 0 is the oldest retained entry.
  [[nodiscard]] const RelayError& at(std::size_t i) const;
  [[nodiscard]] std::vector<RelayError> snapshot() const;

 private:
  std::vector<RelayError> ring_;
  std::size_t head_ = 0;  ///< next write position
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
  std::array<std::uint64_t, static_cast<std::size_t>(RelayErrorKind::kCount_)>
      kind_totals_{};
};

/// A sequence that exhausted its retry budget.  Carries everything
/// redrive() needs to resume from the failed transaction: the
/// undelivered tail and the spend so far (so the redriven outcome's
/// `retries`/`cost_usd` account for the whole sequence, not just the
/// second life).
struct DeadLetter {
  std::string label;
  std::size_t failed_index = 0;  ///< tx index that could not be delivered
  std::size_t total_txs = 0;
  int attempts = 0;              ///< attempts spent on the failed tx
  RelayError last_error;
  std::vector<host::Transaction> remaining;  ///< txs[failed_index..]
  int retries_spent = 0;                     ///< sequence retries at death
  double cost_usd = 0;                       ///< fees burned before death
  std::optional<double> started_at;
};

struct PipelineConfig {
  /// Per-transaction deadline.  Must exceed the host's worst natural
  /// result latency (mempool latency + kTxExpirySlots slots ~ 61 s),
  /// so it only fires for blackholed transactions — anything slower
  /// reports drop/failure first and retries cleanly.  0 disables.
  double tx_deadline_s = 75.0;
  /// Attempts per transaction for drops/timeouts (including the first).
  int max_attempts_per_tx = 8;
  /// Attempts per transaction for deterministic program errors (these
  /// rarely heal; two attempts cover transient races with other actors).
  int max_exec_failures = 2;
  /// Total resubmissions allowed across a whole sequence.
  int max_retries_per_sequence = 48;
  double backoff_base_s = 1.5;
  double backoff_max_s = 45.0;
  /// Jitter as a +/- fraction of the backoff delay.
  double backoff_jitter = 0.2;
  /// Climb the fee ladder (base -> priority -> bundle) on retries.
  bool escalate_fees = true;
  std::size_t error_log_capacity = 64;
  /// When the host runs fork-aware, the commitment level at which a
  /// transaction counts as delivered.  kProcessed (optimistic) advances
  /// on execution and repairs reorged-out transactions off-band;
  /// kRooted holds each transaction until its slot roots before
  /// advancing, trading latency for never advancing past a
  /// retractable execution.  Ignored on a linear (non-fork-aware)
  /// host, where every inclusion is final.
  host::Commitment commitment = host::Commitment::kProcessed;
};

/// Backoff before attempt `attempt` (>= 1) with unit jitter draw `u` in
/// [0, 1).  Pure so tests can pin determinism.
[[nodiscard]] double backoff_delay(const PipelineConfig& cfg, int attempt, double u);

/// Fee for retry `attempt` (>= 1) of a tx quoted at `original`:
/// base -> priority -> bundle, then doubling bids.
[[nodiscard]] host::FeePolicy escalate_fee(const host::FeePolicy& original, int attempt);

class TxPipeline {
 public:
  TxPipeline(sim::Simulation& sim, host::Chain& host, Rng rng, PipelineConfig cfg = {});

  /// Submits transactions strictly one after another (each waits for
  /// the previous result), retrying per-transaction within the
  /// configured budgets.  On the all-success fast path this behaves —
  /// and costs — exactly like the naive sequential submitter.
  void submit_sequence(std::vector<host::Transaction> txs, SequenceDone done,
                       std::string label = {});

  // --- crash-restart ---------------------------------------------------
  /// Drops every in-flight sequence *without* invoking its completion
  /// callback (the process holding those continuations is dead),
  /// cancels their deadline timers and clears the dead-letter queue.
  /// The pipeline is immediately reusable — this models a process
  /// restart, not a graceful shutdown.
  void reset();

  /// Re-queues every dead-lettered sequence from its failed
  /// transaction onward with a fresh retry budget.  Redriven outcomes
  /// carry the retries/cost already spent before dead-lettering, so
  /// `SequenceOutcome::retries` reflects the sequence's whole life.
  /// Returns the number of sequences redriven.
  std::size_t redrive(SequenceDone done = {});

  // --- observability ---------------------------------------------------
  [[nodiscard]] const ErrorLog& errors() const noexcept { return errors_; }
  [[nodiscard]] ErrorLog& errors() noexcept { return errors_; }
  [[nodiscard]] const std::vector<DeadLetter>& dead_letters() const noexcept {
    return dead_letters_;
  }
  [[nodiscard]] std::uint64_t retries_total() const noexcept { return retries_total_; }
  [[nodiscard]] std::uint64_t timeouts_total() const noexcept { return timeouts_total_; }
  [[nodiscard]] std::uint64_t escalations_total() const noexcept {
    return escalations_total_;
  }
  [[nodiscard]] std::uint64_t sequences_ok() const noexcept { return sequences_ok_; }
  [[nodiscard]] std::uint64_t sequences_failed() const noexcept {
    return sequences_failed_;
  }
  /// Sequences submitted but not yet finished (0 == nothing stalled).
  [[nodiscard]] std::uint64_t in_flight() const noexcept { return in_flight_; }
  /// Sequences killed mid-flight by reset() (crash injection).
  [[nodiscard]] std::uint64_t sequences_reset() const noexcept {
    return sequences_reset_;
  }
  /// Dead-lettered sequences given a second life by redrive().
  [[nodiscard]] std::uint64_t redriven_total() const noexcept {
    return redriven_total_;
  }
  /// Executions retracted by host reorgs that did not survive onto the
  /// winning fork (successes only; retracted failures had no effects).
  [[nodiscard]] std::uint64_t reorged_out_total() const noexcept {
    return reorged_out_total_;
  }
  /// Off-band single-transaction repair sequences launched for
  /// reorged-out transactions the pipeline had already advanced past.
  [[nodiscard]] std::uint64_t reorg_repairs() const noexcept {
    return reorg_repairs_;
  }

  [[nodiscard]] const PipelineConfig& config() const noexcept { return cfg_; }

 private:
  struct Seq {
    std::string label;
    std::vector<host::Transaction> txs;
    std::size_t next = 0;           ///< index of the tx in flight
    int attempt = 0;                ///< attempts already spent on txs[next]
    std::uint64_t attempt_id = 0;   ///< generation counter; stale-result guard
    sim::Simulation::TimerId deadline = 0;
    SequenceOutcome outcome;
    SequenceDone done;
    bool finished = false;
    /// Rooted-commitment mode: txs[next] executed and is waiting for
    /// its slot to root before the sequence advances.
    bool holding = false;
    host::TxResult held;
    host::Chain::RootedWaitId rooted_wait = 0;
  };

  void submit_sequence_carrying(std::vector<host::Transaction> txs, SequenceDone done,
                                std::string label, int carried_retries,
                                double carried_cost,
                                std::optional<double> carried_start);
  void submit_current(const std::shared_ptr<Seq>& s);
  void on_result(const std::shared_ptr<Seq>& s, std::size_t idx, std::uint64_t id,
                 const host::TxResult& res);
  void on_reorged_out(const std::shared_ptr<Seq>& s, std::size_t idx,
                      std::uint64_t id, const host::TxResult& res);
  void on_rooted(const std::shared_ptr<Seq>& s, std::uint64_t id);
  void on_deadline(const std::shared_ptr<Seq>& s, std::uint64_t id);
  void retry(const std::shared_ptr<Seq>& s, RelayErrorKind kind, std::string detail);
  void finish(const std::shared_ptr<Seq>& s, bool ok);

  sim::Simulation& sim_;
  host::Chain& host_;
  Rng rng_;
  PipelineConfig cfg_;

  ErrorLog errors_;
  std::vector<DeadLetter> dead_letters_;
  /// In-flight sequences, so reset() can find and kill them.  Entries
  /// go stale when a sequence finishes and are pruned lazily.
  std::vector<std::weak_ptr<Seq>> live_;
  std::uint64_t retries_total_ = 0;
  std::uint64_t timeouts_total_ = 0;
  std::uint64_t escalations_total_ = 0;
  std::uint64_t sequences_ok_ = 0;
  std::uint64_t sequences_failed_ = 0;
  std::uint64_t in_flight_ = 0;
  std::uint64_t sequences_reset_ = 0;
  std::uint64_t redriven_total_ = 0;
  std::uint64_t reorged_out_total_ = 0;
  std::uint64_t reorg_repairs_ = 0;
};

}  // namespace bmg::relayer
