// Full-stack integration: host chain + Guest Contract + validators +
// crank + relayer + counterparty chain, real handshake, real packets,
// real proofs, real Ed25519 everywhere.
#include "relayer/deployment.hpp"

#include <gtest/gtest.h>

#include "common/codec.hpp"
#include "guest/instructions.hpp"

namespace bmg::relayer {
namespace {

DeploymentConfig fast_config(std::uint64_t seed = 42) {
  DeploymentConfig cfg;
  cfg.seed = seed;
  cfg.guest.delta_seconds = 60.0;
  // Small validator roster keeps integration tests quick.
  for (int i = 0; i < 4; ++i) {
    ValidatorProfile p;
    p.name = "itest-val-" + std::to_string(i);
    p.stake = 100;
    p.latency = sim::LatencyProfile::from_quantiles(2.0, 3.0, 0.4);
    p.fee = host::FeePolicy::priority(1'000'000);
    cfg.validators.push_back(std::move(p));
  }
  cfg.counterparty.num_validators = 12;
  cfg.counterparty.block_interval_s = 6.0;
  return cfg;
}

TEST(Deployment, IbcHandshakeOpensBothEnds) {
  Deployment d(fast_config());
  d.open_ibc();
  const auto& guest_end = d.guest().ibc().channel("transfer", d.guest_channel());
  const auto& cp_end = d.cp().ibc().channel("transfer", d.cp_channel());
  EXPECT_EQ(guest_end.state, ibc::ChannelState::kOpen);
  EXPECT_EQ(cp_end.state, ibc::ChannelState::kOpen);
  EXPECT_EQ(guest_end.counterparty_channel, d.cp_channel());
  EXPECT_EQ(cp_end.counterparty_channel, d.guest_channel());

  // Every channel is unordered: a guest ChanOpenInit with order byte 2
  // fails its transaction and opens nothing.
  Encoder e;
  e.u8(static_cast<std::uint8_t>(guest::HandshakeOp::kChanOpenInit));
  e.str("transfer").str(guest_end.connection).str("transfer").u8(2);
  auto txs = d.relayer().staged_call(e.out(), guest::ix::handshake, "handshake");
  bool done = false;
  bool ok = true;
  d.relayer().pipeline().submit_sequence(std::move(txs), [&](const SequenceOutcome& out) {
    done = true;
    ok = out.ok;
  });
  ASSERT_TRUE(d.run_until([&] { return done; }, 300.0));
  EXPECT_FALSE(ok);
  EXPECT_EQ(d.guest().ibc().channels().size(), 1u);
}

TEST(Deployment, GuestToCounterpartyTransfer) {
  Deployment d(fast_config(1));
  d.open_ibc();

  const auto record = d.send_transfer_from_guest(2500, host::FeePolicy::priority(5'000'000));
  // Wait until the voucher lands on the counterparty.
  const std::string voucher = "transfer/" + d.cp_channel() + "/SOL";
  ASSERT_TRUE(d.run_until(
      [&] { return d.cp().bank().balance("bob", voucher) == 2500; }, 600.0));

  EXPECT_TRUE(record->executed);
  EXPECT_TRUE(record->finalised);
  EXPECT_GT(record->finalised_at, record->executed_at);
  EXPECT_EQ(d.guest().bank().balance("alice", "SOL"), 1'000'000u - 2500u);
  EXPECT_EQ(d.guest().bank().balance(ibc::TokenTransferApp::escrow_account(
                d.guest_channel()), "SOL"),
            2500u);

  // The ack eventually flows back and resolves the commitment.
  ASSERT_TRUE(d.run_until(
      [&] {
        return !d.guest().ibc().packet_pending("transfer", d.guest_channel(),
                                               record->sequence);
      },
      1200.0));
}

TEST(Deployment, CounterpartyToGuestTransfer) {
  Deployment d(fast_config(2));
  d.open_ibc();

  const ibc::Packet p = d.send_transfer_from_cp(777);
  const std::string voucher = "transfer/" + d.guest_channel() + "/PICA";
  ASSERT_TRUE(d.run_until(
      [&] { return d.guest().bank().balance("alice", voucher) == 777; }, 1200.0));

  // The relayer needed at least one light client update (~tens of
  // txs) and one multi-tx ReceivePacket delivery.
  EXPECT_GE(d.relayer().update_tx_counts().count(), 1u);
  EXPECT_GE(d.relayer().recv_tx_counts().count(), 1u);
  EXPECT_GE(d.relayer().recv_tx_counts().min(), 2.0);

  // Ack flows back to the counterparty and releases the commitment.
  ASSERT_TRUE(d.run_until(
      [&] {
        return !d.cp().ibc().packet_pending("transfer", d.cp_channel(), p.sequence);
      },
      1200.0));
  EXPECT_EQ(d.cp().bank().balance("bob", "PICA"), 1'000'000u - 777u);
}

// The guest's counterparty client takes its chain id from the
// counterparty itself, so a non-default id still opens IBC and relays.
TEST(Deployment, CounterpartyChainIdComesFromTheCounterparty) {
  DeploymentConfig cfg = fast_config(2);
  cfg.counterparty.chain_id = "osmosis-1";
  Deployment d(cfg);
  d.open_ibc();
  EXPECT_EQ(d.guest().counterparty_client().chain_id(), "osmosis-1");

  d.send_transfer_from_cp(777);
  const std::string voucher = "transfer/" + d.guest_channel() + "/PICA";
  ASSERT_TRUE(d.run_until(
      [&] { return d.guest().bank().balance("alice", voucher) == 777; }, 1200.0));
}

TEST(Deployment, RoundTripConservesSupply) {
  Deployment d(fast_config(3));
  d.open_ibc();

  (void)d.send_transfer_from_guest(1000, host::FeePolicy::priority(5'000'000));
  const std::string voucher = "transfer/" + d.cp_channel() + "/SOL";
  ASSERT_TRUE(d.run_until(
      [&] { return d.cp().bank().balance("bob", voucher) == 1000; }, 600.0));

  // Send 400 back home.
  d.cp().transfer().send_transfer(d.cp_channel(), voucher, 400, "bob", "alice", 0,
                                  d.sim().now() + 3600.0);
  ASSERT_TRUE(d.run_until(
      [&] { return d.guest().bank().balance("alice", "SOL") == 1'000'000u - 600u; },
      1200.0));

  // Escrow backs exactly the outstanding vouchers.
  EXPECT_EQ(d.cp().bank().total_supply(voucher), 600u);
  EXPECT_EQ(d.guest().bank().balance(
                ibc::TokenTransferApp::escrow_account(d.guest_channel()), "SOL"),
            600u);
  EXPECT_EQ(d.guest().bank().total_supply("SOL"), 1'000'000u);
}

TEST(Deployment, MultiplePacketsAndBoundedStorage) {
  Deployment d(fast_config(4));
  d.open_ibc();

  const std::string voucher = "transfer/" + d.cp_channel() + "/SOL";
  for (int i = 0; i < 10; ++i) {
    (void)d.send_transfer_from_guest(100, host::FeePolicy::priority(5'000'000));
    d.run_for(30.0);
  }
  ASSERT_TRUE(d.run_until(
      [&] { return d.cp().bank().balance("bob", voucher) == 1000; }, 1200.0));

  // Sealable trie: guest live state stays small despite traffic.
  EXPECT_LT(d.guest().store().stats().node_count(), 300u);
}

TEST(Deployment, SilentValidatorsStillReachQuorumWithFullRoster) {
  // Paper roster: 24 validators, 7 silent; quorum needs 17 of 24.
  DeploymentConfig cfg;
  cfg.seed = 5;
  cfg.guest.delta_seconds = 60.0;
  cfg.counterparty.num_validators = 12;
  cfg.validators = paper_validators();
  // Remove validator #1's heavy tail for test speed.
  cfg.validators[0].latency = sim::LatencyProfile::from_quantiles(5.6, 7.6, 0.8);

  Deployment d(std::move(cfg));
  d.start();
  d.run_for(2.0);
  // Force an empty block via Δ and watch it finalise.
  d.run_for(120.0);
  ASSERT_TRUE(d.run_until(
      [&] {
        return d.guest().head().header.height >= 1 && d.guest().head().finalised;
      },
      600.0));
  const auto& blk = d.guest().block_at(1);
  // Exactly the active validators can have signed.
  EXPECT_GE(blk.signers.size(), 17u);
}

TEST(Deployment, TimeoutRefundsOnGuestSide) {
  Deployment d(fast_config(6));
  d.open_ibc();

  // A transfer with a 30 s timeout that the relayer cannot meet: pause
  // relaying by sending while we simply never let the cp deliver...
  // Simplest honest approach: send with a timeout in the past relative
  // to the counterparty's clock so recv is rejected, then relay the
  // timeout proof manually.
  const double timeout_at = d.sim().now() + 1.0;
  host::Transaction tx;
  tx.payer = d.client_payer();
  tx.fee = host::FeePolicy::priority(5'000'000);
  tx.instructions.push_back(guest::ix::send_transfer(
      d.guest_channel(), "SOL", 5000, "alice", "bob", 0, timeout_at));
  bool sent = false;
  std::uint64_t seq = d.guest().ibc().next_send_sequence("transfer", d.guest_channel());
  d.host().submit(std::move(tx), [&](const host::TxResult& r) { sent = r.success; });
  ASSERT_TRUE(d.run_until([&] { return sent; }, 60.0));
  EXPECT_EQ(d.guest().bank().balance("alice", "SOL"), 1'000'000u - 5000u);

  // Let the counterparty advance past the timeout; its recv_packet
  // will reject the packet, so no receipt ever exists.
  d.run_for(30.0);

  // Manually relay the timeout (absence proof at the latest cp height).
  const ibc::Height cp_h = d.cp().height();
  bool updated = false;
  d.relayer().update_guest_client(cp_h, [&] { updated = true; });
  ASSERT_TRUE(d.run_until([&] { return updated; }, 600.0));

  const ibc::Packet packet = [&] {
    // Reconstruct the packet the contract committed.
    for (ibc::Height h = d.guest().head().header.height;; --h) {
      for (const auto& p : d.guest().block_at(h).packets)
        if (p.sequence == seq) return p;
      if (h == 0) break;
    }
    throw std::runtime_error("packet not found in any block");
  }();

  bool timed_out = false;
  d.relayer().deliver_timeout_to_guest(
      packet, cp_h, [&](const RelayerAgent::SequenceOutcome& out) {
        timed_out = out.ok;
      });
  ASSERT_TRUE(d.run_until([&] { return timed_out; }, 600.0));
  // Refund applied.
  EXPECT_EQ(d.guest().bank().balance("alice", "SOL"), 1'000'000u);
}

TEST(Deployment, DeterministicForSameSeed) {
  auto run = [](std::uint64_t seed) {
    Deployment d(fast_config(seed));
    d.open_ibc();
    (void)d.send_transfer_from_guest(123, host::FeePolicy::priority(5'000'000));
    d.run_for(120.0);
    return d.sim().events_processed();
  };
  EXPECT_EQ(run(77), run(77));
}

}  // namespace
}  // namespace bmg::relayer
