// Fisherman flow end to end (paper §III-C): a Byzantine validator
// equivocates over gossip, the fisherman detects it, submits chunked
// evidence through the host, and the Guest Contract slashes the
// offender and rewards the fisherman.
#include <gtest/gtest.h>

#include <limits>

#include "adversary/byzantine.hpp"
#include "relayer/deployment.hpp"
#include "relayer/fisherman_agent.hpp"

namespace bmg::relayer {
namespace {

DeploymentConfig fisher_config(std::uint64_t seed) {
  DeploymentConfig cfg;
  cfg.seed = seed;
  cfg.guest.delta_seconds = 30.0;
  for (int i = 0; i < 5; ++i) {
    ValidatorProfile p;
    p.name = "fi-val-" + std::to_string(i);
    p.stake = 100;
    p.latency = sim::LatencyProfile::from_quantiles(1.5, 2.5, 0.3);
    p.fee = host::FeePolicy::priority(1'000'000);
    cfg.validators.push_back(std::move(p));
  }
  cfg.counterparty.num_validators = 10;
  return cfg;
}

TEST(Fisherman, ByzantineValidatorGetsSlashed) {
  Deployment d(fisher_config(51));

  GossipBus bus;
  const crypto::PublicKey fisher_payer =
      crypto::PrivateKey::from_label("fisher-payer").public_key();
  d.host().airdrop(fisher_payer, 100 * host::kLamportsPerSol);
  FishermanAgent fisherman(d.sim(), d.host(), d.guest(), bus, fisher_payer);
  fisherman.start();

  // Validator 0 turns Byzantine: equivocates on every new block.
  const host::FaultPlan plan = host::FaultPlan().equivocate(
      0.0, std::numeric_limits<double>::infinity(), /*validators=*/1);
  adversary::AdversaryCounters counters;
  adversary::ByzantineValidatorAgent byzantine(d.sim(), d.host(), d.guest(), bus,
                                               d.validators()[0]->key(), plan,
                                               counters, /*index=*/0, /*seed=*/0);
  byzantine.start();

  d.start();
  const crypto::PublicKey offender = d.validators()[0]->pubkey();
  const std::uint64_t fisher_before = d.host().balance(fisher_payer);

  // Blocks appear every Δ = 30 s; the first one triggers the attack.
  ASSERT_TRUE(d.run_until([&] { return d.guest().is_banned(offender); }, 600.0));
  EXPECT_EQ(d.guest().stake_of(offender), 0u);
  EXPECT_GE(fisherman.evidence_submitted(), 1u);

  // The fisherman earned a reward (half of the slashed 100 stake),
  // net of the few base fees it paid.
  d.run_for(10.0);
  const auto& st = d.host().payer_stats(fisher_payer);
  EXPECT_EQ(d.host().balance(fisher_payer) + st.fees_lamports, fisher_before + 50);

  // The chain survives: the banned validator is out, but the remaining
  // four still reach quorum (400 of 500 stake > 334).
  const auto height = d.guest().head().header.height;
  d.run_for(120.0);
  EXPECT_GT(d.guest().head().header.height, height);
}

TEST(Fisherman, HonestGossipTriggersNothing) {
  Deployment d(fisher_config(52));
  GossipBus bus;
  const crypto::PublicKey fisher_payer =
      crypto::PrivateKey::from_label("fisher-payer2").public_key();
  d.host().airdrop(fisher_payer, 100 * host::kLamportsPerSol);
  FishermanAgent fisherman(d.sim(), d.host(), d.guest(), bus, fisher_payer);
  fisherman.start();
  d.start();
  d.run_for(40.0);

  // Honest validators gossip their real signatures.
  ASSERT_GE(d.guest().block_count(), 2u);
  const auto& blk = d.guest().block_at(1);
  for (int i = 0; i < 3; ++i) {
    const auto& key = d.validators()[static_cast<std::size_t>(i)]->key();
    bus.publish(SignatureGossip{key.public_key(), blk.header,
                                key.sign(blk.hash().view())});
  }
  d.run_for(30.0);
  EXPECT_EQ(fisherman.evidence_submitted(), 0u);
  for (const auto& v : d.validators()) EXPECT_FALSE(d.guest().is_banned(v->pubkey()));
}

TEST(Fisherman, FutureHeightSignatureProsecuted) {
  Deployment d(fisher_config(53));
  GossipBus bus;
  const crypto::PublicKey fisher_payer =
      crypto::PrivateKey::from_label("fisher-payer3").public_key();
  d.host().airdrop(fisher_payer, 100 * host::kLamportsPerSol);
  FishermanAgent fisherman(d.sim(), d.host(), d.guest(), bus, fisher_payer);
  fisherman.start();
  d.start();
  d.run_for(5.0);

  // Validator 1 signs a block far beyond the head (§III-C case 2).
  const auto& key = d.validators()[1]->key();
  guest::GuestBlock phantom = guest::GuestBlock::make(
      "guest-1", 999, d.sim().now(), Hash32{}, Hash32{}, 7,
      d.guest().epoch_validators());
  bus.publish(SignatureGossip{key.public_key(), phantom.header,
                              key.sign(phantom.hash().view())});

  ASSERT_TRUE(d.run_until([&] { return d.guest().is_banned(key.public_key()); }, 300.0));
  EXPECT_EQ(fisherman.evidence_accepted(), 1u);
}

}  // namespace
}  // namespace bmg::relayer
