#include "relayer/tx_pipeline.hpp"

#include <algorithm>
#include <cmath>

namespace bmg::relayer {

namespace {

/// Total resubmissions allowed across a whole sequence.
constexpr int kMaxRetriesPerSequence = 48;

}  // namespace

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
    : sim_(sim), host_(host), rng_(rng), cfg_(cfg) {}

void TxPipeline::submit_sequence(std::vector<host::Transaction> txs, SequenceDone done,
                                 std::string label) {
  auto s = std::make_shared<Seq>();
  s->label = std::move(label);
  s->txs = std::move(txs);
  s->incarnation = incarnation_;
  s->outcome.txs = static_cast<int>(s->txs.size());
  s->done = std::move(done);
  ++in_flight_;
  if (s->txs.empty()) {
    finish(s, true);
    return;
  }
  submit_current(s);
}

void TxPipeline::reset() {
  ++incarnation_;
  in_flight_ = 0;
}

std::uint64_t TxPipeline::retries_total() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t n : retries_) total += n;
  return total;
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
    s->deadline = sim_.after_cancellable(cfg_.tx_deadline_s, [this, s, id] {
      if (!stale(*s, id)) retry(s, RelayErrorKind::kTimeout);
    });
  }
  host_.submit(std::move(tx), [this, s, idx, id](const host::TxResult& res) {
    on_result(s, idx, id, res);
  });
}

void TxPipeline::on_result(const std::shared_ptr<Seq>& s, std::size_t idx,
                           std::uint64_t id, const host::TxResult& res) {
  // The process that submitted a dead incarnation's transactions is
  // gone; its restart resyncs from chain state instead.
  if (s->incarnation != incarnation_) return;
  // Reorged-out notifications refer to a *past* execution the pipeline
  // has usually already advanced past — they must bypass the stale
  // guard below.  A retracted *failure* had no effects to restore, and
  // its retry (if any) was already scheduled when the failure first
  // reported.
  if (res.reorged_out) {
    if (res.success) on_reorged_out(s, idx, id);
    return;
  }
  // Stale: a deadline or retry superseded this attempt, or the sequence
  // already finished.  Winning-fork re-executions of already delivered
  // transactions land here too and are idempotently ignored.
  if (stale(*s, id)) return;
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
    advance(s, res);
    return;
  }

  retry(s, res.executed ? RelayErrorKind::kExecFailed : RelayErrorKind::kDropped);
}

void TxPipeline::on_rooted(const std::shared_ptr<Seq>& s, std::uint64_t id) {
  if (stale(*s, id) || !s->holding) return;
  s->rooted_wait = 0;
  s->holding = false;
  advance(s, s->held);
}

void TxPipeline::advance(const std::shared_ptr<Seq>& s, const host::TxResult& res) {
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
}

void TxPipeline::on_reorged_out(const std::shared_ptr<Seq>& s, std::size_t idx,
                                std::uint64_t id) {
  ++reorged_out_total_;
  if (!stale(*s, id) && s->holding) {
    // Rooted mode: the held (not yet counted) tx died — retry in place,
    // carrying the sequence's retry/fee state across forks.
    host_.cancel_rooted(s->rooted_wait);
    s->rooted_wait = 0;
    s->holding = false;
    retry(s, RelayErrorKind::kReorgedOut);
    return;
  }

  // Optimistic mode: the pipeline already advanced past (or finished
  // after) this tx on the strength of a now-retracted execution.
  // Rewinding `next` would double-submit everything in between, so the
  // lost tx is repaired off-band as a fresh single-tx sequence.
  ++reorg_repairs_;
  submit_sequence({s->txs[idx]}, {});
}

void TxPipeline::retry(const std::shared_ptr<Seq>& s, RelayErrorKind kind) {
  ++retries_[static_cast<std::size_t>(kind)];
  ++s->attempt;
  s->outcome.retries += 1;

  const int limit = kind == RelayErrorKind::kExecFailed ? cfg_.max_exec_failures
                                                        : cfg_.max_attempts_per_tx;
  if (s->attempt >= limit || s->outcome.retries > kMaxRetriesPerSequence) {
    finish(s, false);
    return;
  }

  // Bump the generation so a late result for the abandoned attempt
  // cannot race the resubmission.
  const std::uint64_t rid = ++s->attempt_id;
  const double delay = backoff_delay(cfg_, s->attempt, rng_.uniform());
  sim_.after(delay, [this, s, rid] {
    if (!stale(*s, rid)) submit_current(s);
  });
}

void TxPipeline::finish(const std::shared_ptr<Seq>& s, bool ok) {
  s->finished = true;
  s->outcome.ok = ok;
  if (!ok || !s->outcome.started_at) s->outcome.finished_at = sim_.now();
  if (!ok) ++sequences_failed_;
  --in_flight_;
  if (s->done) s->done(s->outcome);
}

}  // namespace bmg::relayer
