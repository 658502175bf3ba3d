#include "relayer/tx_pipeline.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "host/chain.hpp"
#include "host/constants.hpp"

namespace bmg::relayer {
namespace {

using crypto::PrivateKey;
using crypto::PublicKey;

// --- backoff policy (pure) ---------------------------------------------------

TEST(BackoffDelay, GrowsExponentiallyAndCaps) {
  PipelineConfig cfg;
  cfg.backoff_base_s = 1.0;
  cfg.backoff_max_s = 8.0;
  cfg.backoff_jitter = 0.0;
  EXPECT_DOUBLE_EQ(backoff_delay(cfg, 1, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(backoff_delay(cfg, 2, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(backoff_delay(cfg, 3, 0.5), 4.0);
  EXPECT_DOUBLE_EQ(backoff_delay(cfg, 4, 0.5), 8.0);
  EXPECT_DOUBLE_EQ(backoff_delay(cfg, 10, 0.5), 8.0);  // capped
}

TEST(BackoffDelay, JitterIsBoundedAndDeterministic) {
  PipelineConfig cfg;
  cfg.backoff_base_s = 2.0;
  cfg.backoff_jitter = 0.2;
  // u = 0 -> -20%, u = 1 -> +20%, same u -> same delay.
  EXPECT_DOUBLE_EQ(backoff_delay(cfg, 1, 0.0), 1.6);
  EXPECT_DOUBLE_EQ(backoff_delay(cfg, 1, 1.0), 2.4);
  EXPECT_DOUBLE_EQ(backoff_delay(cfg, 1, 0.37), backoff_delay(cfg, 1, 0.37));
  for (double u = 0.0; u <= 1.0; u += 0.1) {
    const double d = backoff_delay(cfg, 3, u);
    EXPECT_GE(d, 8.0 * 0.8);
    EXPECT_LE(d, 8.0 * 1.2);
  }
}

TEST(BackoffDelay, SameSeedSameSchedule) {
  PipelineConfig cfg;
  Rng a(42), b(42);
  for (int attempt = 1; attempt <= 6; ++attempt)
    EXPECT_DOUBLE_EQ(backoff_delay(cfg, attempt, a.uniform()),
                     backoff_delay(cfg, attempt, b.uniform()));
}

// --- fee escalation (pure) ---------------------------------------------------

TEST(EscalateFee, ClimbsTheLadderFromBase) {
  const auto original = host::FeePolicy::base();
  EXPECT_EQ(escalate_fee(original, 0).kind, host::FeePolicy::Kind::kBase);
  const auto a1 = escalate_fee(original, 1);
  EXPECT_EQ(a1.kind, host::FeePolicy::Kind::kPriority);
  const auto a2 = escalate_fee(original, 2);
  EXPECT_EQ(a2.kind, host::FeePolicy::Kind::kBundle);
  const auto a3 = escalate_fee(original, 3);
  EXPECT_EQ(a3.kind, host::FeePolicy::Kind::kBundle);
  EXPECT_EQ(a3.tip_lamports, 2 * a2.tip_lamports);  // doubling bids
}

TEST(EscalateFee, PriorityQuadruplesThenBundles) {
  const auto original = host::FeePolicy::priority(100'000);
  const auto a1 = escalate_fee(original, 1);
  EXPECT_EQ(a1.kind, host::FeePolicy::Kind::kPriority);
  EXPECT_GE(a1.cu_price_microlamports, 4 * original.cu_price_microlamports);
  EXPECT_EQ(escalate_fee(original, 2).kind, host::FeePolicy::Kind::kBundle);
}

TEST(EscalateFee, BundleDoublingIsOverflowSafe) {
  const auto original = host::FeePolicy::bundle(1'000);
  std::uint64_t prev = 0;
  for (int attempt = 1; attempt < 40; ++attempt) {
    const auto f = escalate_fee(original, attempt);
    EXPECT_EQ(f.kind, host::FeePolicy::Kind::kBundle);
    EXPECT_GE(f.tip_lamports, prev);  // monotone, capped shift never wraps
    prev = f.tip_lamports;
  }
}

// --- TxPipeline against a faulty chain ---------------------------------------

/// Counts successful executions.  Fork-capable, so it also runs on a
/// fork-aware host, where a reorg unwinds `count` with the chain.
class FlakyProgram : public host::Program {
 public:
  void execute(host::TxContext& ctx, ByteView data) override {
    if (!data.empty() && data[0] == 1) throw host::TxError("deterministic failure");
    save(ctx.undo(), count);
    ++count;
  }
  [[nodiscard]] bool fork_supported() const override { return true; }
  int count = 0;
};

class PipelineTest : public ::testing::Test {
 protected:
  /// `fork_aware` arms the host's fork machinery (rooted lag 32), so
  /// reorg windows can be added after start().
  void make_chain(host::FaultPlan plan, bool fork_aware = false) {
    host::ChainConfig cfg;
    cfg.fault = std::move(plan);
    cfg.fork_aware = fork_aware;
    chain_ = std::make_unique<host::Chain>(sim_, Rng(77), cfg);
    chain_->register_program("flaky", std::make_unique<FlakyProgram>());
    chain_->airdrop(payer_, 100 * host::kLamportsPerSol);
    chain_->start();
  }

  [[nodiscard]] int flaky_count() { return chain_->program_as<FlakyProgram>("flaky").count; }

  host::Transaction make_tx(std::string label, bool fail = false) {
    host::Transaction tx;
    tx.payer = payer_;
    tx.label = std::move(label);
    tx.instructions.push_back(
        host::Instruction{"flaky", fail ? Bytes{1} : Bytes{}});
    return tx;
  }

  sim::Simulation sim_;
  std::unique_ptr<host::Chain> chain_;
  PublicKey payer_ = PrivateKey::from_label("payer").public_key();
};

TEST_F(PipelineTest, DroppedTxIsRetriedWithEscalatedFeeUntilSuccess) {
  host::FaultPlan plan;
  plan.congestion(0.0, 100.0, 0.0);  // nothing lands before t = 100
  make_chain(std::move(plan));
  TxPipeline pipe(sim_, *chain_, Rng(1));

  SequenceOutcome out;
  bool done = false;
  pipe.submit_sequence({make_tx("stubborn")}, [&](const SequenceOutcome& o) {
    out = o;
    done = true;
  });
  sim_.run_until(400.0);
  ASSERT_TRUE(done);
  EXPECT_TRUE(out.ok);
  EXPECT_GE(out.retries, 1);  // the base-fee attempt expired at ~60 s
  EXPECT_GE(pipe.retries_total(), 1u);
  EXPECT_GE(pipe.escalations_total(), 1u);
  EXPECT_GE(pipe.retries_of(RelayErrorKind::kDropped), 1u);
  EXPECT_EQ(pipe.in_flight(), 0u);
  ASSERT_TRUE(out.started_at.has_value());
  EXPECT_GE(*out.started_at, 100.0);
}

TEST_F(PipelineTest, BlackholeFiresDeadlineAndRetries) {
  host::FaultPlan plan;
  plan.blackhole(0.0, 10.0, 1.0);
  make_chain(std::move(plan));
  PipelineConfig cfg;
  cfg.tx_deadline_s = 5.0;
  cfg.backoff_base_s = 1.0;
  TxPipeline pipe(sim_, *chain_, Rng(2), cfg);

  SequenceOutcome out;
  bool done = false;
  pipe.submit_sequence({make_tx("ghosted")}, [&](const SequenceOutcome& o) {
    out = o;
    done = true;
  });
  sim_.run_until(200.0);
  ASSERT_TRUE(done);
  EXPECT_TRUE(out.ok);
  EXPECT_GE(pipe.retries_of(RelayErrorKind::kTimeout), 1u);
  EXPECT_GE(chain_->fault_counters().blackholed, 1u);
}

TEST_F(PipelineTest, BudgetExhaustionDeadLetters) {
  host::FaultPlan plan;
  plan.blackhole(0.0, 10'000.0, 1.0);  // swallows everything, forever
  make_chain(std::move(plan));
  PipelineConfig cfg;
  cfg.tx_deadline_s = 5.0;
  cfg.backoff_base_s = 1.0;
  cfg.max_attempts_per_tx = 3;
  TxPipeline pipe(sim_, *chain_, Rng(3), cfg);

  SequenceOutcome out;
  bool done = false;
  pipe.submit_sequence({make_tx("doomed")},
                       [&](const SequenceOutcome& o) {
                         out = o;
                         done = true;
                       },
                       "doomed-seq");
  sim_.run_until(200.0);
  ASSERT_TRUE(done);
  EXPECT_FALSE(out.ok);
  EXPECT_FALSE(out.started_at.has_value());  // nothing ever executed
  EXPECT_EQ(pipe.sequences_failed(), 1u);
  EXPECT_EQ(pipe.in_flight(), 0u);
}

TEST_F(PipelineTest, DeterministicExecFailureStopsAfterFewAttempts) {
  make_chain(host::FaultPlan{}.congestion(0.0, 0.1, 1.0));  // non-empty, neutral
  TxPipeline pipe(sim_, *chain_, Rng(4));

  SequenceOutcome out;
  bool done = false;
  pipe.submit_sequence({make_tx("ok"), make_tx("bad", /*fail=*/true)},
                       [&](const SequenceOutcome& o) {
                         out = o;
                         done = true;
                       });
  sim_.run_until(200.0);
  ASSERT_TRUE(done);
  EXPECT_FALSE(out.ok);
  // Deterministic failures are capped well below the drop budget.
  EXPECT_EQ(pipe.retries_of(RelayErrorKind::kExecFailed),
            static_cast<std::uint64_t>(pipe.config().max_exec_failures));
  EXPECT_EQ(flaky_count(), 1);  // tx #0 landed
}

TEST_F(PipelineTest, MidSequenceResumptionRetriesOnlyTheFailedTx) {
  host::FaultPlan plan;
  plan.blackhole(0.0, 30.0, 1.0, "mid");  // only the middle tx vanishes
  make_chain(std::move(plan));
  PipelineConfig cfg;
  cfg.tx_deadline_s = 5.0;
  cfg.backoff_base_s = 1.0;
  TxPipeline pipe(sim_, *chain_, Rng(5), cfg);

  SequenceOutcome out;
  bool done = false;
  pipe.submit_sequence({make_tx("head"), make_tx("mid"), make_tx("tail")},
                       [&](const SequenceOutcome& o) {
                         out = o;
                         done = true;
                       });
  sim_.run_until(400.0);
  ASSERT_TRUE(done);
  EXPECT_TRUE(out.ok);
  EXPECT_GE(out.retries, 1);
  // Each of the three transactions executed exactly once: the retries
  // resubmitted only the blackholed one, never the whole sequence.
  EXPECT_EQ(flaky_count(), 3);
  EXPECT_EQ(chain_->executed_count(), 3u);
}

TEST_F(PipelineTest, EmptySequenceCompletesImmediately) {
  make_chain(host::FaultPlan{});
  TxPipeline pipe(sim_, *chain_, Rng(6));
  SequenceOutcome out;
  bool done = false;
  pipe.submit_sequence({}, [&](const SequenceOutcome& o) {
    out = o;
    done = true;
  });
  EXPECT_TRUE(done);  // synchronous: no txs, nothing to wait for
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.txs, 0);
  EXPECT_FALSE(out.started_at.has_value());
  EXPECT_EQ(pipe.in_flight(), 0u);
}

// --- crash-restart surface: reset() -------------------------------------------

TEST_F(PipelineTest, ResetDropsInFlightWorkWithoutCallbacks) {
  host::FaultPlan plan;
  plan.blackhole(0.0, 1000.0, 1.0);  // nothing lands for a long while
  make_chain(std::move(plan));
  PipelineConfig cfg;
  cfg.tx_deadline_s = 5.0;
  cfg.backoff_base_s = 1.0;
  TxPipeline pipe(sim_, *chain_, Rng(8), cfg);

  bool done = false;
  pipe.submit_sequence({make_tx("orphaned")},
                       [&](const SequenceOutcome&) { done = true; }, "orphaned");
  sim_.run_until(7.0);
  EXPECT_EQ(pipe.in_flight(), 1u);

  pipe.reset();  // the "process" died mid-flight
  EXPECT_EQ(pipe.in_flight(), 0u);

  sim_.run_until(2000.0);
  // The dead incarnation's continuation must never fire, even after
  // the blackhole lifts and any straggler results come back.
  EXPECT_FALSE(done);
  EXPECT_EQ(pipe.sequences_failed(), 0u);

  // The pipeline is immediately reusable by the next incarnation.
  SequenceOutcome out;
  bool done2 = false;
  pipe.submit_sequence({make_tx("reborn")}, [&](const SequenceOutcome& o) {
    out = o;
    done2 = true;
  });
  sim_.run_until(2400.0);
  ASSERT_TRUE(done2);
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(pipe.in_flight(), 0u);
}

TEST_F(PipelineTest, ResetPipelineLaunchesNoRepairs) {
  make_chain(host::FaultPlan{}, /*fork_aware=*/true);
  // Submits one 1-tx sequence on a pipeline of its own and, from the
  // moment the tx executes, runs a 4 s reorg storm that retracts every
  // execution (survival 0).  With `crash` the pipeline is reset() in
  // between, as a crashed agent's is.  Each pipeline and its completion
  // flag outlive the runs after it, which could still deliver results.
  struct Run {
    std::uint64_t repairs, reorged_out, retries;
    bool done;
    int landed;  ///< executions of the tx left on the winning fork
  };
  std::deque<TxPipeline> pipes;
  std::deque<bool> dones;
  const auto storm = [&](host::Commitment commitment, bool crash) {
    PipelineConfig cfg;
    cfg.commitment = commitment;
    TxPipeline& pipe = pipes.emplace_back(sim_, *chain_, Rng(10 + pipes.size()), cfg);
    bool& done = dones.emplace_back(false);
    const int before = flaky_count();
    pipe.submit_sequence({make_tx("landed")},
                         [&done](const SequenceOutcome& o) { done = o.ok; });
    while (flaky_count() == before && sim_.step()) {
    }
    EXPECT_EQ(flaky_count(), before + 1) << "the tx never executed";
    if (crash) pipe.reset();
    const double now = sim_.now();
    chain_->fault_plan().reorg(now, now + 4.0, 8, 1.0, 0.0);
    sim_.run_until(now + 300.0);
    EXPECT_EQ(pipe.in_flight(), 0u);
    return Run{pipe.reorg_repairs(), pipe.reorged_out_total(), pipe.retries_total(), done,
               flaky_count() - before};
  };

  // Optimistic mode: the sequence finished before the storm.  A live
  // pipeline repairs the retracted tx off-band; a dead one must not.
  const Run live = storm(host::Commitment::kProcessed, false);
  EXPECT_TRUE(live.done);
  EXPECT_GE(live.repairs, 1u);
  EXPECT_EQ(live.landed, 1);
  const Run dead = storm(host::Commitment::kProcessed, true);
  EXPECT_TRUE(dead.done);
  EXPECT_EQ(dead.repairs, 0u);
  EXPECT_EQ(dead.reorged_out, 0u);
  EXPECT_EQ(dead.landed, 0);

  // Rooted mode: the executed tx is held when the storm (or the crash)
  // hits.  A live pipeline retries it in place; a dead one does nothing.
  const Run held = storm(host::Commitment::kRooted, false);
  EXPECT_TRUE(held.done);
  EXPECT_GE(held.retries, 1u);
  EXPECT_EQ(held.repairs, 0u);
  EXPECT_EQ(held.landed, 1);
  const Run dead_held = storm(host::Commitment::kRooted, true);
  EXPECT_FALSE(dead_held.done);
  EXPECT_EQ(dead_held.repairs, 0u);
  EXPECT_EQ(dead_held.retries, 0u);
  EXPECT_EQ(dead_held.landed, 0);
}

}  // namespace
}  // namespace bmg::relayer
