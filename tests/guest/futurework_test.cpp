// Tests of the paper's §VI future-work features implemented here:
// light client misbehaviour freezing + rate limiting (§VI-C) and the
// self-destruct wind-down that mitigates the last-validator bank run
// (§VI-A).
#include <gtest/gtest.h>

#include "guest/contract.hpp"
#include "guest/instructions.hpp"
#include "host/chain.hpp"

namespace bmg::guest {
namespace {

using crypto::PrivateKey;
using crypto::PublicKey;

class FutureWorkTest : public ::testing::Test {
 protected:
  FutureWorkTest() : chain_(sim_, Rng(3), fast()) {
    for (int i = 0; i < 4; ++i) {
      validator_keys_.push_back(PrivateKey::from_label("fw-val-" + std::to_string(i)));
      genesis_.push_back({validator_keys_.back().public_key(), 100});
    }
    for (int i = 0; i < 4; ++i) {
      cp_keys_.push_back(PrivateKey::from_label("fw-cp-" + std::to_string(i)));
      cp_set_.add(cp_keys_.back().public_key(), 10);
    }
    payer_ = PrivateKey::from_label("fw-payer").public_key();
    chain_.airdrop(payer_, 1000 * host::kLamportsPerSol);
    chain_.start();
  }

  static host::ChainConfig fast() {
    host::ChainConfig cfg;
    cfg.p_include_base = 1.0;
    return cfg;
  }

  GuestContract* install(GuestConfig cfg, const std::string& name = "guest") {
    auto contract = std::make_unique<GuestContract>(cfg, genesis_, "picasso-1", cp_set_);
    GuestContract* ptr = contract.get();
    chain_.register_program(name, std::move(contract));
    chain_.airdrop(ptr->stake_vault(), 400);
    return ptr;
  }

  host::TxResult submit(host::Instruction ix, std::vector<host::SigVerify> sigs = {},
                        const std::string& program = "guest") {
    ix.program = program;
    host::Transaction tx;
    tx.payer = payer_;
    tx.instructions.push_back(std::move(ix));
    tx.sig_verifies = std::move(sigs);
    host::TxResult out;
    bool got = false;
    chain_.submit(std::move(tx), [&](const host::TxResult& r) {
      out = r;
      got = true;
    });
    sim_.run_until(sim_.now() + 30.0);
    EXPECT_TRUE(got);
    return out;
  }

  void upload(std::uint64_t id, ByteView blob, const std::string& program = "guest") {
    std::uint32_t offset = 0;
    for (const Bytes& chunk : ix::chunk_payload(blob)) {
      ASSERT_TRUE(submit(ix::chunk_upload(id, offset, chunk), {}, program).success);
      offset += static_cast<std::uint32_t>(chunk.size());
    }
  }

  ibc::SignedQuorumHeader cp_header(ibc::Height h, std::uint8_t tag,
                                    int signers = 4) const {
    ibc::QuorumHeader header;
    header.chain_id = "picasso-1";
    header.height = h;
    header.timestamp = static_cast<double>(h);
    header.state_root.bytes[0] = tag;
    header.validator_set_hash = cp_set_.hash();
    ibc::SignedQuorumHeader sh;
    sh.header = header;
    const Hash32 digest = header.signing_digest();
    for (int i = 0; i < signers; ++i)
      sh.signatures.emplace_back(cp_keys_[static_cast<std::size_t>(i)].public_key(),
                                 cp_keys_[static_cast<std::size_t>(i)].sign(digest.view()));
    return sh;
  }

  /// Runs the full chunked client-update flow for one header.
  host::TxResult apply_update(GuestContract* contract, const ibc::SignedQuorumHeader& sh,
                              std::uint64_t buffer_id) {
    Encoder payload;
    payload.bytes(sh.header.encode());
    payload.boolean(false);
    upload(buffer_id, payload.out());
    EXPECT_TRUE(submit(ix::begin_client_update(buffer_id)).success);
    const Hash32 digest = sh.header.signing_digest();
    std::vector<host::SigVerify> sigs;
    for (const auto& [k, s] : sh.signatures)
      sigs.push_back(host::SigVerify{k, digest, s});
    EXPECT_TRUE(submit(ix::verify_update_signatures(), sigs).success);
    (void)contract;
    return submit(ix::finish_client_update());
  }

  sim::Simulation sim_;
  host::Chain chain_;
  std::vector<PrivateKey> validator_keys_;
  std::vector<ibc::ValidatorInfo> genesis_;
  std::vector<PrivateKey> cp_keys_;
  ibc::ValidatorSet cp_set_;
  PublicKey payer_;
};

// --- §VI-C: light client misbehaviour freezing -------------------------

TEST_F(FutureWorkTest, ForkEvidenceFreezesClient) {
  GuestConfig cfg;
  GuestContract* contract = install(cfg);

  const auto ha = cp_header(10, 0xAA);
  const auto hb = cp_header(10, 0xBB);
  Encoder blob;
  blob.bytes(ha.encode());
  blob.bytes(hb.encode());
  upload(1, blob.out());
  const auto res = submit(ix::freeze_client(1));
  ASSERT_TRUE(res.success) << res.error;
  EXPECT_TRUE(contract->counterparty_client().frozen());

  // Frozen client: no more updates accepted.
  const auto upd = apply_update(contract, cp_header(11, 0x01), 2);
  EXPECT_FALSE(upd.success);
  // And no proofs verify (consensus states are withheld).
  EXPECT_FALSE(contract->counterparty_client().consensus_at(10).has_value());
}

TEST_F(FutureWorkTest, FreezeRejectsNonQuorumForks) {
  GuestConfig cfg;
  GuestContract* contract = install(cfg);
  const auto ha = cp_header(10, 0xAA, /*signers=*/1);  // below quorum
  const auto hb = cp_header(10, 0xBB, /*signers=*/1);
  Encoder blob;
  blob.bytes(ha.encode());
  blob.bytes(hb.encode());
  upload(1, blob.out());
  EXPECT_FALSE(submit(ix::freeze_client(1)).success);
  EXPECT_FALSE(contract->counterparty_client().frozen());
}

TEST_F(FutureWorkTest, FreezeRejectsIdenticalHeaders) {
  GuestConfig cfg;
  GuestContract* contract = install(cfg);
  const auto ha = cp_header(10, 0xAA);
  Encoder blob;
  blob.bytes(ha.encode());
  blob.bytes(ha.encode());
  upload(1, blob.out());
  EXPECT_FALSE(submit(ix::freeze_client(1)).success);
  EXPECT_FALSE(contract->counterparty_client().frozen());
}

// --- §VI-C: rate limiting ------------------------------------------------

TEST_F(FutureWorkTest, ClientUpdatesAreRateLimited) {
  GuestConfig cfg;
  cfg.client_update_min_interval_s = 10'000.0;
  GuestContract* contract = install(cfg);

  ASSERT_TRUE(apply_update(contract, cp_header(10, 0x01), 1).success);
  EXPECT_EQ(contract->counterparty_client().latest_height(), 10u);

  // A second update immediately after is rejected...
  const auto res = apply_update(contract, cp_header(11, 0x02), 2);
  EXPECT_FALSE(res.success);
  EXPECT_NE(res.error.find("rate limited"), std::string::npos);

  // ... but passes once the interval elapsed (same pending update —
  // the begin/verify state survived the rejected finish).
  sim_.run_until(sim_.now() + 12'000.0);
  EXPECT_TRUE(submit(ix::finish_client_update()).success);
  EXPECT_EQ(contract->counterparty_client().latest_height(), 11u);
}

TEST_F(FutureWorkTest, RateLimitDisabledByDefault) {
  GuestConfig cfg;
  GuestContract* contract = install(cfg);
  ASSERT_TRUE(apply_update(contract, cp_header(10, 0x01), 1).success);
  ASSERT_TRUE(apply_update(contract, cp_header(11, 0x02), 2).success);
  EXPECT_EQ(contract->counterparty_client().latest_height(), 11u);
}

// --- §V-C: signing rewards --------------------------------------------------

TEST_F(FutureWorkTest, SignersEarnFeeRewards) {
  GuestConfig cfg;
  cfg.delta_seconds = 50.0;
  cfg.signer_reward_fraction = 0.5;
  GuestContract* contract = install(cfg);
  // Fund the treasury as accumulated send fees would.
  chain_.airdrop(contract->treasury(), 1'000'000);

  // Let Δ elapse, generate a block and collect three signatures
  // (quorum for 4 equal stakes).
  sim_.run_until(60.0);
  ASSERT_TRUE(submit(ix::generate_block()).success);
  const ibc::Height h = contract->head().header.height;
  std::vector<std::uint64_t> before;
  for (int i = 0; i < 3; ++i)
    before.push_back(chain_.balance(validator_keys_[static_cast<std::size_t>(i)].public_key()));
  for (int i = 0; i < 3; ++i) {
    const PrivateKey& key = validator_keys_[static_cast<std::size_t>(i)];
    const Hash32 digest = contract->block_at(h).hash();
    ASSERT_TRUE(submit(ix::sign_block(h, key.public_key()),
                       {host::SigVerify{key.public_key(),
                                        digest,
                                        key.sign(digest.view())}})
                    .success);
  }
  ASSERT_TRUE(contract->block_at(h).finalised);

  // Half the treasury split equally across the three quorum signers,
  // net of each signer's two-signature transaction fee.
  EXPECT_GT(contract->rewards_paid(), 0u);
  for (int i = 0; i < 3; ++i) {
    const auto& key = validator_keys_[static_cast<std::size_t>(i)].public_key();
    const std::uint64_t fees = chain_.payer_stats(key).fees_lamports;
    EXPECT_EQ(chain_.balance(key) + fees,
              before[static_cast<std::size_t>(i)] + 500'000 / 3)
        << i;
  }
  // The late fourth signature earns nothing.
  const PrivateKey& late = validator_keys_[3];
  const std::uint64_t late_before = chain_.balance(late.public_key());
  const Hash32 digest = contract->block_at(h).hash();
  ASSERT_TRUE(submit(ix::sign_block(h, late.public_key()),
                     {host::SigVerify{late.public_key(),
                                      digest,
                                      late.sign(digest.view())}})
                  .success);
  EXPECT_LE(chain_.balance(late.public_key()), late_before);  // only fees moved
}

TEST_F(FutureWorkTest, RewardsDisabledByDefault) {
  GuestConfig cfg;
  cfg.delta_seconds = 50.0;
  GuestContract* contract = install(cfg);
  chain_.airdrop(contract->treasury(), 1'000'000);
  sim_.run_until(60.0);
  ASSERT_TRUE(submit(ix::generate_block()).success);
  const ibc::Height h = contract->head().header.height;
  for (int i = 0; i < 3; ++i) {
    const PrivateKey& key = validator_keys_[static_cast<std::size_t>(i)];
    const Hash32 digest = contract->block_at(h).hash();
    ASSERT_TRUE(submit(ix::sign_block(h, key.public_key()),
                       {host::SigVerify{key.public_key(),
                                        digest,
                                        key.sign(digest.view())}})
                    .success);
  }
  EXPECT_EQ(contract->rewards_paid(), 0u);
  EXPECT_EQ(chain_.balance(contract->treasury()), 1'000'000u);
}

// --- §VI-A: self-destruction ----------------------------------------------

TEST_F(FutureWorkTest, SelfDestructReleasesStakesAfterStall) {
  GuestConfig cfg;
  cfg.self_destruct_after_s = 500.0;
  cfg.delta_seconds = 1e9;  // ensure no blocks are generated
  GuestContract* contract = install(cfg);

  // Too early: rejected.
  EXPECT_FALSE(submit(ix::self_destruct()).success);
  EXPECT_FALSE(contract->terminated());

  sim_.run_until(600.0);
  const std::uint64_t v0_before = chain_.balance(validator_keys_[0].public_key());
  const auto res = submit(ix::self_destruct());
  ASSERT_TRUE(res.success) << res.error;
  EXPECT_TRUE(contract->terminated());

  // Each genesis validator got its pro-rata share (equal stakes: 100).
  EXPECT_EQ(chain_.balance(validator_keys_[0].public_key()), v0_before + 100);
  EXPECT_EQ(contract->stake_of(validator_keys_[0].public_key()), 0u);

  // The chain is dead: nothing executes any more.
  const auto dead = submit(ix::generate_block());
  EXPECT_FALSE(dead.success);
  EXPECT_NE(dead.error.find("self-destructed"), std::string::npos);
}

TEST_F(FutureWorkTest, SelfDestructDisabledByDefault) {
  GuestConfig cfg;
  cfg.delta_seconds = 1e9;
  GuestContract* contract = install(cfg);
  sim_.run_until(100000.0);
  EXPECT_FALSE(submit(ix::self_destruct()).success);
  EXPECT_FALSE(contract->terminated());
}

TEST_F(FutureWorkTest, SelfDestructIncludesQueuedWithdrawals) {
  GuestConfig cfg;
  cfg.self_destruct_after_s = 500.0;
  cfg.delta_seconds = 1e9;
  cfg.unstake_hold_seconds = 1e9;  // withdrawal would never unlock normally
  GuestContract* contract = install(cfg);
  (void)contract;

  // A staker exits; funds are stuck in the hold queue.
  const PrivateKey staker = PrivateKey::from_label("fw-staker");
  chain_.airdrop(staker.public_key(), 10 * host::kLamportsPerSol);
  {
    host::Instruction stake_ix = ix::stake(400);
    stake_ix.program = "guest";
    host::Transaction tx;
    tx.payer = staker.public_key();
    tx.instructions.push_back(std::move(stake_ix));
    bool ok = false;
    chain_.submit(std::move(tx), [&](const host::TxResult& r) { ok = r.success; });
    sim_.run_until(sim_.now() + 10.0);
    ASSERT_TRUE(ok);
  }
  {
    host::Instruction unstake_ix = ix::unstake(400);
    unstake_ix.program = "guest";
    host::Transaction tx;
    tx.payer = staker.public_key();
    tx.instructions.push_back(std::move(unstake_ix));
    bool ok = false;
    chain_.submit(std::move(tx), [&](const host::TxResult& r) { ok = r.success; });
    sim_.run_until(sim_.now() + 10.0);
    ASSERT_TRUE(ok);
  }

  sim_.run_until(600.0);
  const std::uint64_t before = chain_.balance(staker.public_key());
  ASSERT_TRUE(submit(ix::self_destruct()).success);
  // The queued withdrawal was released by the wind-down.
  EXPECT_GE(chain_.balance(staker.public_key()), before + 390);
}

}  // namespace
}  // namespace bmg::guest
