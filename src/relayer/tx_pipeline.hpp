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
//   budget exhausted           -> sequence fails (done sees ok == false)
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

  [[nodiscard]] double start_time() const { return started_at.value_or(0.0); }
};
using SequenceDone = std::function<void(const SequenceOutcome&)>;

/// Why a transaction was resubmitted; the pipeline counts retries per
/// cause.
enum class RelayErrorKind : std::uint8_t {
  kDropped = 0,  ///< host reported expiry (blockhash too old)
  kExecFailed,   ///< executed but the program errored
  kTimeout,      ///< no result within the per-tx deadline
  kReorgedOut,   ///< rooted mode: held tx retracted by a host reorg
  kCount_,       // sentinel
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
  double backoff_base_s = 1.5;
  double backoff_max_s = 45.0;
  /// Jitter as a +/- fraction of the backoff delay.
  double backoff_jitter = 0.2;
  /// Climb the fee ladder (base -> priority -> bundle) on retries.
  bool escalate_fees = true;
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
  /// and costs — exactly like the naive sequential submitter.  `label`
  /// is the caller's name for the sequence, kept with it; nothing
  /// reports by it, but perfbench's `--wrap` boundary names this
  /// signature by its mangled symbol.
  void submit_sequence(std::vector<host::Transaction> txs, SequenceDone done,
                       std::string label = {});

  /// Crash-restart: every sequence submitted so far belongs to a dead
  /// process.  Its pending results, deadlines, backoffs and rooted
  /// waits record nothing, its completion callback never runs, and a
  /// reorg that retracts one of its executions launches no repair.
  /// The pipeline is immediately reusable — this models a process
  /// restart, not a graceful shutdown.
  void reset();

  // --- observability ---------------------------------------------------
  /// Resubmissions, all causes; each costs one more attempt of a tx.
  [[nodiscard]] std::uint64_t retries_total() const noexcept;
  /// Resubmissions caused by `kind`.
  [[nodiscard]] std::uint64_t retries_of(RelayErrorKind kind) const noexcept {
    return retries_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t escalations_total() const noexcept {
    return escalations_total_;
  }
  /// Sequences that spent a retry budget and finished with ok == false.
  [[nodiscard]] std::uint64_t sequences_failed() const noexcept {
    return sequences_failed_;
  }
  /// Sequences submitted but not yet finished (0 == nothing stalled).
  [[nodiscard]] std::uint64_t in_flight() const noexcept { return in_flight_; }
  /// Executions of live sequences retracted by host reorgs that did not
  /// survive onto the winning fork (successes only; retracted failures
  /// had no effects).
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
    std::string label;  ///< the caller's name (see submit_sequence)
    std::vector<host::Transaction> txs;
    std::uint64_t incarnation = 0;  ///< pipeline incarnation at submission
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

  /// Whether a callback for attempt `id` of `s` is stale: the sequence
  /// belongs to a dead incarnation, has finished, or a deadline or
  /// retry superseded the attempt.
  [[nodiscard]] bool stale(const Seq& s, std::uint64_t id) const noexcept {
    return s.incarnation != incarnation_ || s.finished || id != s.attempt_id;
  }
  void submit_current(const std::shared_ptr<Seq>& s);
  void on_result(const std::shared_ptr<Seq>& s, std::size_t idx, std::uint64_t id,
                 const host::TxResult& res);
  void on_reorged_out(const std::shared_ptr<Seq>& s, std::size_t idx,
                      std::uint64_t id);
  void on_rooted(const std::shared_ptr<Seq>& s, std::uint64_t id);
  /// Counts txs[next]'s execution `res` and moves to the next tx.
  void advance(const std::shared_ptr<Seq>& s, const host::TxResult& res);
  void retry(const std::shared_ptr<Seq>& s, RelayErrorKind kind);
  void finish(const std::shared_ptr<Seq>& s, bool ok);

  sim::Simulation& sim_;
  host::Chain& host_;
  Rng rng_;
  PipelineConfig cfg_;

  /// Bumped by reset(); a sequence from an older incarnation is dead.
  std::uint64_t incarnation_ = 0;
  std::array<std::uint64_t, static_cast<std::size_t>(RelayErrorKind::kCount_)>
      retries_{};
  std::uint64_t escalations_total_ = 0;
  std::uint64_t sequences_failed_ = 0;
  std::uint64_t in_flight_ = 0;
  std::uint64_t reorged_out_total_ = 0;
  std::uint64_t reorg_repairs_ = 0;
};

}  // namespace bmg::relayer
