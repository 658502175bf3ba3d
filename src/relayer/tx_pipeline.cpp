#include "relayer/tx_pipeline.hpp"

#include <algorithm>
#include <cmath>

namespace bmg::relayer {

const char* to_string(RelayErrorKind kind) {
  switch (kind) {
    case RelayErrorKind::kDropped:
      return "dropped";
    case RelayErrorKind::kExecFailed:
      return "exec-failed";
    case RelayErrorKind::kTimeout:
      return "timeout";
    case RelayErrorKind::kBudgetExhausted:
      return "budget-exhausted";
    case RelayErrorKind::kCounterpartyReject:
      return "counterparty-reject";
    case RelayErrorKind::kCrashRestart:
      return "crash-restart";
    case RelayErrorKind::kReorgedOut:
      return "reorged-out";
    default:
      return "unknown";
  }
}

// --- ErrorLog ---------------------------------------------------------------

ErrorLog::ErrorLog(std::size_t capacity) : ring_(std::max<std::size_t>(capacity, 1)) {}

void ErrorLog::push(RelayError e) {
  ++total_;
  ++kind_totals_[static_cast<std::size_t>(e.kind)];
  ring_[head_] = std::move(e);
  head_ = (head_ + 1) % ring_.size();
  size_ = std::min(size_ + 1, ring_.size());
}

std::uint64_t ErrorLog::total_of(RelayErrorKind kind) const {
  return kind_totals_[static_cast<std::size_t>(kind)];
}

const RelayError& ErrorLog::at(std::size_t i) const {
  // Oldest retained entry sits `size_` slots behind the write head.
  const std::size_t idx = (head_ + ring_.size() - size_ + i) % ring_.size();
  return ring_[idx];
}

std::vector<RelayError> ErrorLog::snapshot() const {
  std::vector<RelayError> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) out.push_back(at(i));
  return out;
}

// --- retry policy -----------------------------------------------------------

double backoff_delay(const PipelineConfig& cfg, int attempt, double u) {
  const int exp = std::max(attempt - 1, 0);
  double d = cfg.backoff_base_s * std::pow(2.0, static_cast<double>(exp));
  d = std::min(d, cfg.backoff_max_s);
  return d * (1.0 + cfg.backoff_jitter * (2.0 * u - 1.0));
}

host::FeePolicy escalate_fee(const host::FeePolicy& original, int attempt) {
  using Kind = host::FeePolicy::Kind;
  if (attempt <= 0) return original;

  // Doubling cap keeps lamport arithmetic far from overflow.
  const auto doubled = [](std::uint64_t base, int times) {
    return base << static_cast<unsigned>(std::min(times, 12));
  };

  switch (original.kind) {
    case Kind::kBase:
      // base -> priority -> bundle, then double the tip.
      if (attempt == 1) return host::FeePolicy::priority(200'000);
      return host::FeePolicy::bundle(
          doubled(host::usd_to_lamports(0.002), attempt - 2));
    case Kind::kPriority: {
      if (attempt == 1)
        return host::FeePolicy::priority(
            std::max<std::uint64_t>(original.cu_price_microlamports * 4, 200'000));
      const std::uint64_t floor_tip = host::usd_to_lamports(0.002);
      return host::FeePolicy::bundle(doubled(floor_tip, attempt - 2));
    }
    case Kind::kBundle:
    default:
      return host::FeePolicy::bundle(
          doubled(std::max<std::uint64_t>(original.tip_lamports, 1), attempt));
  }
}

// --- TxPipeline -------------------------------------------------------------

TxPipeline::TxPipeline(sim::Simulation& sim, host::Chain& host, Rng rng,
                       PipelineConfig cfg)
    : sim_(sim), host_(host), rng_(rng), cfg_(cfg), errors_(cfg.error_log_capacity) {}

void TxPipeline::submit_sequence(std::vector<host::Transaction> txs, SequenceDone done,
                                 std::string label) {
  submit_sequence_carrying(std::move(txs), std::move(done), std::move(label), 0, 0.0,
                           std::nullopt);
}

void TxPipeline::submit_sequence_carrying(std::vector<host::Transaction> txs,
                                          SequenceDone done, std::string label,
                                          int carried_retries, double carried_cost,
                                          std::optional<double> carried_start) {
  auto s = std::make_shared<Seq>();
  if (label.empty() && !txs.empty()) label = txs.back().label;
  s->label = std::move(label);
  s->txs = std::move(txs);
  s->outcome.txs = static_cast<int>(s->txs.size());
  s->outcome.retries = carried_retries;
  s->outcome.cost_usd = carried_cost;
  s->outcome.started_at = carried_start;
  s->done = std::move(done);
  ++in_flight_;
  if (s->txs.empty()) {
    finish(s, true);
    return;
  }
  // Track for reset(); prune stale entries before they accumulate.
  if (live_.size() >= 64)
    std::erase_if(live_, [](const std::weak_ptr<Seq>& w) {
      const auto sp = w.lock();
      return !sp || sp->finished;
    });
  live_.push_back(s);
  submit_current(s);
}

void TxPipeline::reset() {
  for (const auto& w : live_) {
    const auto s = w.lock();
    if (!s || s->finished) continue;
    // Mark finished so pending host results, backoff timers and
    // deadlines for this sequence all no-op; the done callback is
    // deliberately *not* invoked — the process that owned it is gone.
    s->finished = true;
    sim_.cancel(s->deadline);
    s->deadline = 0;
    if (s->rooted_wait != 0) {
      host_.cancel_rooted(s->rooted_wait);
      s->rooted_wait = 0;
    }
    --in_flight_;
    ++sequences_reset_;
  }
  live_.clear();
  dead_letters_.clear();
}

std::size_t TxPipeline::redrive(SequenceDone done) {
  std::vector<DeadLetter> dead = std::move(dead_letters_);
  dead_letters_.clear();
  for (DeadLetter& dl : dead) {
    ++redriven_total_;
    submit_sequence_carrying(std::move(dl.remaining), done, dl.label + ":redrive",
                             dl.retries_spent, dl.cost_usd, dl.started_at);
  }
  return dead.size();
}

void TxPipeline::submit_current(const std::shared_ptr<Seq>& s) {
  host::Transaction tx = s->txs[s->next];  // copy: retries need the original
  if (s->attempt > 0 && cfg_.escalate_fees) {
    tx.fee = escalate_fee(tx.fee, s->attempt);
    ++escalations_total_;
  }
  const std::uint64_t id = ++s->attempt_id;
  const std::size_t idx = s->next;
  if (cfg_.tx_deadline_s > 0) {
    s->deadline = sim_.after_cancellable(cfg_.tx_deadline_s,
                                         [this, s, id] { on_deadline(s, id); });
  }
  host_.submit(std::move(tx), [this, s, idx, id](const host::TxResult& res) {
    on_result(s, idx, id, res);
  });
}

void TxPipeline::on_result(const std::shared_ptr<Seq>& s, std::size_t idx,
                           std::uint64_t id, const host::TxResult& res) {
  // Reorged-out notifications refer to a *past* execution the pipeline
  // has usually already advanced past — they must bypass the stale
  // guard below.
  if (res.reorged_out) {
    on_reorged_out(s, idx, id, res);
    return;
  }
  // Stale: a deadline or retry superseded this attempt, or the sequence
  // was already dead-lettered.  Winning-fork re-executions of already
  // delivered transactions land here too and are idempotently ignored.
  if (s->finished || id != s->attempt_id) return;
  if (s->holding) {
    // Rooted mode, tx re-executed while held (it survived a reorg onto
    // the winning fork): the fresh result replaces the held one; the
    // rooted wait, registered for the same slot, stays armed.  A
    // duplicate-inclusion failure while holding is noise.
    if (res.executed && res.success) s->held = res;
    return;
  }
  sim_.cancel(s->deadline);
  s->deadline = 0;

  if (res.executed && res.success) {
    if (cfg_.commitment == host::Commitment::kRooted && host_.fork_mode()) {
      // Hold until the executing slot roots; when_rooted fires inline
      // if it already has.
      s->holding = true;
      s->held = res;
      s->rooted_wait = host_.when_rooted(res.slot, [this, s, id] { on_rooted(s, id); });
      return;
    }
    if (!s->outcome.started_at) s->outcome.started_at = res.time;
    s->outcome.finished_at = res.time;
    s->outcome.cost_usd += res.fee.usd();
    s->attempt = 0;
    ++s->next;
    if (s->next >= s->txs.size()) {
      finish(s, true);
      return;
    }
    // Same-event-turn submission: on the all-success path this is
    // byte-identical to the naive sequential submitter.
    submit_current(s);
    return;
  }

  retry(s, res.executed ? RelayErrorKind::kExecFailed : RelayErrorKind::kDropped,
        res.error);
}

void TxPipeline::on_rooted(const std::shared_ptr<Seq>& s, std::uint64_t id) {
  if (s->finished || !s->holding || id != s->attempt_id) return;
  s->rooted_wait = 0;
  s->holding = false;
  const host::TxResult res = s->held;
  s->outcome.rooted_at = sim_.now();
  if (!s->outcome.started_at) s->outcome.started_at = res.time;
  s->outcome.finished_at = res.time;
  s->outcome.cost_usd += res.fee.usd();
  s->attempt = 0;
  ++s->next;
  if (s->next >= s->txs.size()) {
    finish(s, true);
    return;
  }
  submit_current(s);
}

void TxPipeline::on_reorged_out(const std::shared_ptr<Seq>& s, std::size_t idx,
                                std::uint64_t id, const host::TxResult& res) {
  // A retracted *failure* had no effects to restore, and its retry (if
  // any) was already scheduled when the failure first reported.
  if (!res.success) return;
  ++reorged_out_total_;
  ++s->outcome.reorged_out;
  errors_.push(RelayError{RelayErrorKind::kReorgedOut,
                          s->label + "#" + std::to_string(idx),
                          "execution retracted by host reorg", sim_.now(),
                          s->attempt});

  if (!s->finished && s->holding && id == s->attempt_id) {
    // Rooted mode: the held (not yet counted) tx died — retry in place,
    // carrying the sequence's retry/fee state across forks.
    host_.cancel_rooted(s->rooted_wait);
    s->rooted_wait = 0;
    s->holding = false;
    retry(s, RelayErrorKind::kReorgedOut, "retracted before rooting");
    return;
  }

  // Optimistic mode: the pipeline already advanced past (or finished
  // after) this tx on the strength of a now-retracted execution.
  // Rewinding `next` would double-submit everything in between, so the
  // lost tx is repaired off-band as a fresh single-tx sequence.
  ++reorg_repairs_;
  std::vector<host::Transaction> repair{s->txs[idx]};
  submit_sequence_carrying(std::move(repair), {},
                           s->label + "#" + std::to_string(idx) + ":reorg-repair", 0,
                           0.0, std::nullopt);
}

void TxPipeline::on_deadline(const std::shared_ptr<Seq>& s, std::uint64_t id) {
  if (s->finished || id != s->attempt_id) return;
  ++timeouts_total_;
  retry(s, RelayErrorKind::kTimeout, "no result within deadline");
}

void TxPipeline::retry(const std::shared_ptr<Seq>& s, RelayErrorKind kind,
                       std::string detail) {
  errors_.push(RelayError{kind, s->label + "#" + std::to_string(s->next),
                          std::move(detail), sim_.now(), s->attempt});

  ++s->attempt;
  s->outcome.retries += 1;
  ++retries_total_;

  const int limit = kind == RelayErrorKind::kExecFailed ? cfg_.max_exec_failures
                                                        : cfg_.max_attempts_per_tx;
  if (s->attempt >= limit || s->outcome.retries > cfg_.max_retries_per_sequence) {
    DeadLetter dl;
    dl.label = s->label;
    dl.failed_index = s->next;
    dl.total_txs = s->txs.size();
    dl.attempts = s->attempt;
    dl.last_error = RelayError{kind, s->label + "#" + std::to_string(s->next),
                               "retry budget exhausted", sim_.now(), s->attempt};
    dl.remaining.assign(s->txs.begin() + static_cast<std::ptrdiff_t>(s->next),
                        s->txs.end());
    dl.retries_spent = s->outcome.retries;
    dl.cost_usd = s->outcome.cost_usd;
    dl.started_at = s->outcome.started_at;
    dead_letters_.push_back(std::move(dl));
    errors_.push(RelayError{RelayErrorKind::kBudgetExhausted,
                            s->label + "#" + std::to_string(s->next),
                            "sequence dead-lettered", sim_.now(), s->attempt});
    finish(s, false);
    return;
  }

  // Bump the generation so a late result for the abandoned attempt
  // cannot race the resubmission.
  const std::uint64_t rid = ++s->attempt_id;
  const double delay = backoff_delay(cfg_, s->attempt, rng_.uniform());
  sim_.after(delay, [this, s, rid] {
    if (s->finished || s->attempt_id != rid) return;
    submit_current(s);
  });
}

void TxPipeline::finish(const std::shared_ptr<Seq>& s, bool ok) {
  s->finished = true;
  s->outcome.ok = ok;
  if (!ok || !s->outcome.started_at) s->outcome.finished_at = sim_.now();
  if (ok)
    ++sequences_ok_;
  else
    ++sequences_failed_;
  --in_flight_;
  if (s->done) s->done(s->outcome);
}

}  // namespace bmg::relayer
