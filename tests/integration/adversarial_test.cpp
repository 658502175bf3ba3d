// Safety against misbehaving relayers (paper §III-C: "Through the
// state proofs, both blockchains can verify each other's state
// ensuring safety even if Relayers misbehave") and a randomized soak
// run asserting system-wide invariants.
#include <gtest/gtest.h>

#include "relayer/deployment.hpp"

namespace bmg::relayer {
namespace {

DeploymentConfig adv_config(std::uint64_t seed) {
  DeploymentConfig cfg;
  cfg.seed = seed;
  cfg.guest.delta_seconds = 60.0;
  for (int i = 0; i < 4; ++i) {
    ValidatorProfile p;
    p.name = "adv-val-" + std::to_string(i);
    p.stake = 100;
    p.latency = sim::LatencyProfile::from_quantiles(1.5, 2.5, 0.3);
    p.fee = host::FeePolicy::priority(1'000'000);
    cfg.validators.push_back(std::move(p));
  }
  cfg.counterparty.num_validators = 10;
  return cfg;
}

class MaliciousRelayer : public ::testing::Test {
 protected:
  MaliciousRelayer() : d_(adv_config(71)) {
    d_.open_ibc();
    evil_ = crypto::PrivateKey::from_label("evil-relayer").public_key();
    d_.host().airdrop(evil_, 1000 * host::kLamportsPerSol);
  }

  Deployment d_;
  crypto::PublicKey evil_;
};

TEST_F(MaliciousRelayer, ForgedPacketRejectedByGuest) {
  // The evil relayer invents a packet that the counterparty never sent
  // and "proves" it with a proof for a different key.
  ibc::Packet forged;
  forged.sequence = 1;
  forged.source_port = "transfer";
  forged.source_channel = d_.cp_channel();
  forged.dest_port = "transfer";
  forged.dest_channel = d_.guest_channel();
  ibc::TokenPacketData data{"PICA", 1'000'000, "bob", "alice"};
  forged.data = data.encode();
  forged.timeout_timestamp = d_.sim().now() + 3600.0;

  // Bring the guest's client up to date (headers are genuine).
  d_.run_for(10.0);
  const ibc::Height h = d_.cp().height();
  bool updated = false;
  d_.relayer().update_guest_client(h, [&] { updated = true; });
  ASSERT_TRUE(d_.run_until([&] { return updated; }, 600.0));

  // A proof of some *other* key cannot satisfy the forged commitment.
  const auto wrong_key = ibc::channel_key("transfer", d_.cp_channel());
  const trie::Proof proof = d_.cp().prove_at(h, wrong_key);
  auto txs = d_.relayer().staged_call(
      guest::ix::packet_proof_payload(forged, nullptr, h, proof), guest::ix::receive_packet,
      "evil-recv");
  for (auto& tx : txs) tx.payer = evil_;

  bool done = false, ok = true;
  std::string error;
  d_.relayer().submit_sequence(std::move(txs),
                               [&](const RelayerAgent::SequenceOutcome& out) {
                                 done = true;
                                 ok = out.ok;
                               });
  ASSERT_TRUE(d_.run_until([&] { return done; }, 600.0));
  EXPECT_FALSE(ok);  // the ReceivePacket transaction failed
  EXPECT_EQ(d_.guest().bank().balance(
                "alice", "transfer/" + d_.guest_channel() + "/PICA"),
            0u);  // nothing minted
}

TEST_F(MaliciousRelayer, ForgedHeaderRejectedByUpdateMachinery) {
  // A forged counterparty header with no quorum behind it cannot pass
  // the chunked update flow: Begin accepts the bytes, but honest
  // signatures over the forged digest do not exist, so Finish fails.
  ibc::QuorumHeader forged;
  forged.chain_id = d_.cp().chain_id();
  forged.height = d_.cp().height() + 100;
  forged.timestamp = d_.sim().now();
  forged.state_root.bytes[0] = 0xEE;  // attacker-chosen state
  forged.validator_set_hash = d_.cp().validators().hash();

  ibc::SignedQuorumHeader unsigned_forged;
  unsigned_forged.header = forged;
  auto txs = d_.relayer().staged_call(guest::ix::client_update_payload(unsigned_forged),
                                      guest::ix::begin_client_update, "evil-update");
  // The attacker signs with its own key — not in the validator set.
  const crypto::PrivateKey evil_key = crypto::PrivateKey::from_label("evil-relayer");
  const Hash32 digest = forged.signing_digest();
  host::Transaction sig_tx;
  sig_tx.payer = evil_;
  sig_tx.instructions.push_back(guest::ix::verify_update_signatures());
  sig_tx.sig_verifies.push_back(host::SigVerify{
      evil_key.public_key(), digest,
      evil_key.sign(digest.view())});
  txs.push_back(std::move(sig_tx));
  host::Transaction fin;
  fin.payer = evil_;
  fin.instructions.push_back(guest::ix::finish_client_update());
  txs.push_back(std::move(fin));
  for (auto& tx : txs) tx.payer = evil_;

  bool done = false, ok = true;
  d_.relayer().submit_sequence(std::move(txs),
                               [&](const RelayerAgent::SequenceOutcome& out) {
                                 done = true;
                                 ok = out.ok;
                               });
  ASSERT_TRUE(d_.run_until([&] { return done; }, 600.0));
  EXPECT_FALSE(ok);
  EXPECT_LT(d_.guest().counterparty_client().latest_height(), forged.height);
}

TEST_F(MaliciousRelayer, ForgedGuestHeaderRejectedByCounterparty) {
  // The counterparty's guest light client verifies quorum signatures
  // itself; an unsigned forged header throws.
  guest::GuestBlock forged = guest::GuestBlock::make(
      "guest-1", d_.guest().head().header.height + 5, d_.sim().now(), Hash32{},
      Hash32{}, 1, d_.guest().epoch_validators());
  EXPECT_THROW(d_.cp().ibc().update_client(d_.guest_client_on_cp(),
                                           forged.to_signed_header().encode()),
               ibc::IbcError);
}

// --- randomized soak ---------------------------------------------------

class SoakTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SoakTest, InvariantsHoldUnderRandomTraffic) {
  Deployment d(adv_config(GetParam()));
  d.open_ibc();
  Rng rng(GetParam() ^ 0xABCD);

  const std::string voucher_cp = "transfer/" + d.cp_channel() + "/SOL";
  const std::string voucher_guest = "transfer/" + d.guest_channel() + "/PICA";
  int guest_sends = 0, cp_sends = 0;
  for (int i = 0; i < 30; ++i) {
    if (rng.chance(0.5)) {
      (void)d.send_transfer_from_guest(
          1 + rng.uniform_int(500),
          rng.chance(0.3) ? host::FeePolicy::bundle(host::usd_to_lamports(3.019))
                          : host::FeePolicy::priority(5'000'000));
      ++guest_sends;
    }
    if (rng.chance(0.3)) {
      (void)d.send_transfer_from_cp(1 + rng.uniform_int(100));
      ++cp_sends;
    }
    d.run_for(rng.exponential(60.0));
  }
  d.run_for(2400.0);  // drain

  // Invariant 1: escrow on each chain backs the counterpart's voucher
  // supply exactly.
  EXPECT_EQ(d.guest().bank().balance(
                ibc::TokenTransferApp::escrow_account(d.guest_channel()), "SOL"),
            d.cp().bank().total_supply(voucher_cp));
  EXPECT_EQ(d.cp().bank().balance(
                ibc::TokenTransferApp::escrow_account(d.cp_channel()), "PICA"),
            d.guest().bank().total_supply(voucher_guest));

  // Invariant 2: native supplies unchanged.
  EXPECT_EQ(d.guest().bank().total_supply("SOL"), 1'000'000u);
  EXPECT_EQ(d.cp().bank().total_supply("PICA"), 1'000'000u);

  // Invariant 3: every finalised guest block carries a stake quorum of
  // valid signatures.
  for (ibc::Height h = 1; h < d.guest().block_count(); ++h) {
    const auto& blk = d.guest().block_at(h);
    if (!blk.finalised) continue;
    EXPECT_GE(blk.signed_stake(), blk.signing_set->quorum_stake()) << h;
    const Hash32 digest = blk.hash();
    for (const auto& [key, sig] : blk.signers)
      EXPECT_TRUE(crypto::verify(key, digest.view(), sig)) << h;
  }

  // Invariant 4: guest live state stays bounded (sealing works).
  EXPECT_LT(d.guest().store().stats().node_count(), 400u);

  // Invariant 5: no transaction sequence was lost mid-flight forever.
  EXPECT_EQ(d.host().dropped_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoakTest, ::testing::Values(81, 82, 83));

}  // namespace
}  // namespace bmg::relayer
