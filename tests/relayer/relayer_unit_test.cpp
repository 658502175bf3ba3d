// Unit-level tests of relayer building blocks: sequential transaction
// submission, chunked staging-buffer calls, light-client update
// batching/dedup and the crank agent.
#include <gtest/gtest.h>

#include <stdexcept>

#include "relayer/deployment.hpp"

namespace bmg::relayer {
namespace {

DeploymentConfig unit_config(std::uint64_t seed) {
  DeploymentConfig cfg;
  cfg.seed = seed;
  cfg.guest.delta_seconds = 60.0;
  for (int i = 0; i < 4; ++i) {
    ValidatorProfile p;
    p.name = "ru-val-" + std::to_string(i);
    p.stake = 100;
    p.latency = sim::LatencyProfile::from_quantiles(1.5, 2.5, 0.3);
    p.fee = host::FeePolicy::priority(1'000'000);
    cfg.validators.push_back(std::move(p));
  }
  cfg.counterparty.num_validators = 10;
  return cfg;
}

class RelayerUnit : public ::testing::Test {
 protected:
  RelayerUnit() : d_(unit_config(41)) { d_.start(); }

  host::Transaction noop_tx() {
    host::Transaction tx;
    tx.payer = d_.relayer().payer();
    tx.instructions.push_back(guest::ix::chunk_upload(999, 0, bytes_of("x")));
    return tx;
  }

  Deployment d_;
};

// With no signature per update transaction, building an update
// sequence stepped by zero and appended transactions until memory ran
// out; the relayer now refuses such a config up front.
TEST(RelayerConfigCheck, ZeroSigsPerUpdateTxThrows) {
  for (const int sigs : {0, -1}) {
    DeploymentConfig cfg = unit_config(41);
    cfg.relayer.sigs_per_update_tx = sigs;
    EXPECT_THROW(Deployment{cfg}, std::invalid_argument) << sigs;
  }
  DeploymentConfig cfg = unit_config(41);
  cfg.relayer.sigs_per_update_tx = 1;
  EXPECT_NO_THROW(Deployment{cfg});
}

TEST_F(RelayerUnit, SubmitSequenceRunsInOrderAndAggregates) {
  std::vector<host::Transaction> txs;
  for (int i = 0; i < 5; ++i) txs.push_back(noop_tx());
  RelayerAgent::SequenceOutcome outcome;
  bool done = false;
  d_.relayer().pipeline().submit_sequence(std::move(txs), [&](const auto& out) {
    outcome = out;
    done = true;
  });
  ASSERT_TRUE(d_.run_until([&] { return done; }, 120.0));
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.txs, 5);
  ASSERT_TRUE(outcome.started_at.has_value());
  EXPECT_GT(outcome.finished_at, *outcome.started_at);
  // 5 base-fee transactions at 0.1 cents each.
  EXPECT_NEAR(outcome.cost_usd, 0.005, 1e-9);
}

TEST_F(RelayerUnit, SubmitSequenceAbortsOnFailure) {
  std::vector<host::Transaction> txs;
  txs.push_back(noop_tx());
  // Second tx fails in the program (missing buffer).
  host::Transaction bad;
  bad.payer = d_.relayer().payer();
  bad.instructions.push_back(guest::ix::receive_packet(123456));
  txs.push_back(std::move(bad));
  txs.push_back(noop_tx());  // must never run

  const std::uint64_t executed_before = d_.host().executed_count();
  RelayerAgent::SequenceOutcome outcome;
  bool done = false;
  d_.relayer().pipeline().submit_sequence(std::move(txs), [&](const auto& out) {
    outcome = out;
    done = true;
  });
  ASSERT_TRUE(d_.run_until([&] { return done; }, 120.0));
  EXPECT_FALSE(outcome.ok);
  // Exactly one successful execution (the first); the third never ran.
  EXPECT_EQ(d_.host().executed_count(), executed_before + 1);
  EXPECT_EQ(d_.relayer().pipeline().sequences_failed(), 1u);
}

TEST_F(RelayerUnit, ChunkedCallSplitsLargePayloads) {
  const Bytes payload(3000, 0xAB);
  const auto txs = d_.relayer().staged_call(payload, guest::ix::receive_packet, "test");
  // Every transaction names one fresh buffer: [op][u64 buffer id]...
  const auto buffer_of = [](const host::Transaction& tx) {
    Decoder d(tx.instructions[0].data);
    (void)d.u8();
    return d.u64();
  };
  const std::uint64_t buffer_id = buffer_of(txs.back());
  EXPECT_GT(buffer_id, 0u);
  for (const auto& tx : txs) EXPECT_EQ(buffer_of(tx), buffer_id);
  EXPECT_EQ(txs.back().label, "test");
  EXPECT_EQ(txs.front().label, "test:chunk");
  const std::size_t chunks =
      (payload.size() + guest::ix::max_chunk_bytes() - 1) / guest::ix::max_chunk_bytes();
  EXPECT_GT(chunks, 1u);
  EXPECT_EQ(txs.size(), chunks + 1);  // chunk uploads + final call
  for (const auto& tx : txs) EXPECT_LE(tx.wire_size(), host::kMaxTransactionSize);
}

TEST_F(RelayerUnit, BuildUpdateSequenceBatchesSignatures) {
  d_.run_for(10.0);  // a couple of cp blocks
  const auto& sh = d_.cp().header_at(1);
  const auto txs = d_.relayer().build_update_sequence(sh);
  // chunks(header) + begin + ceil(sigs/4) + finish
  const std::size_t expected_sig_txs = (sh.signatures.size() + 3) / 4;
  EXPECT_EQ(txs.size(), 1 + 1 + expected_sig_txs + 1);
  for (const auto& tx : txs) {
    EXPECT_LE(tx.wire_size(), host::kMaxTransactionSize);
    EXPECT_LE(tx.sig_verifies.size(), 4u);
  }
}

TEST_F(RelayerUnit, UpdateGuestClientIsIdempotent) {
  d_.run_for(10.0);
  const ibc::Height target = d_.cp().height();
  int called = 0;
  d_.relayer().update_guest_client(target, [&] { ++called; });
  ASSERT_TRUE(d_.run_until([&] { return called == 1; }, 300.0));
  EXPECT_EQ(d_.guest().counterparty_client().latest_height(), target);
  const std::size_t updates_before = d_.relayer().update_tx_counts().count();
  // Asking again for the same height completes immediately, no txs.
  d_.relayer().update_guest_client(target, [&] { ++called; });
  d_.run_for(5.0);
  EXPECT_EQ(called, 2);
  EXPECT_EQ(d_.relayer().update_tx_counts().count(), updates_before);
}

TEST_F(RelayerUnit, ConcurrentUpdateRequestsSerialize) {
  d_.run_for(20.0);
  const ibc::Height h1 = d_.cp().height() - 1;
  const ibc::Height h2 = d_.cp().height();
  int done1 = 0, done2 = 0;
  d_.relayer().update_guest_client(h1, [&] { ++done1; });
  d_.relayer().update_guest_client(h2, [&] { ++done2; });  // queued behind
  ASSERT_TRUE(d_.run_until([&] { return done1 == 1 && done2 == 1; }, 600.0));
  EXPECT_GE(d_.guest().counterparty_client().latest_height(), h2);
}

TEST_F(RelayerUnit, CrankProducesEmptyBlocksAtDelta) {
  // No traffic: only Δ-driven empty blocks appear (Δ = 60 s).
  d_.run_for(200.0);
  EXPECT_GE(d_.guest().block_count(), 3u);
  EXPECT_GE(d_.crank().blocks_triggered(), 2u);
  for (ibc::Height h = 1; h < d_.guest().block_count(); ++h)
    EXPECT_TRUE(d_.guest().block_at(h).packets.empty());
}

TEST_F(RelayerUnit, ValidatorsSignOnlyWhenActive) {
  d_.run_for(200.0);
  for (const auto& v : d_.validators()) {
    EXPECT_GT(v->signatures_submitted(), 0u) << v->profile().name;
    EXPECT_GT(v->signing_latency().count(), 0u);
    // Latency includes the sampled delay floor.
    EXPECT_GE(v->signing_latency().min(), 0.3);
  }
}

}  // namespace
}  // namespace bmg::relayer
