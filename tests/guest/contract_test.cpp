// Unit tests of the Guest Contract (Alg. 1) driven through the host
// runtime: block production, quorum finalisation, staking, slashing,
// staging buffers and the chunked light-client-update machinery.
#include "guest/contract.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "audit/auditor.hpp"
#include "guest/instructions.hpp"
#include "host/chain.hpp"
#include "relayer/deployment.hpp"

namespace bmg::guest {
namespace {

using crypto::PrivateKey;
using crypto::PublicKey;

class GuestContractTest : public ::testing::Test {
 protected:
  static constexpr int kNumValidators = 4;  // quorum = 3 (equal stake)
  static constexpr int kNumCpValidators = 5;

  GuestContractTest() : chain_(sim_, Rng(7), fast_inclusion()) {
    for (int i = 0; i < kNumValidators; ++i) {
      validator_keys_.push_back(PrivateKey::from_label("val-" + std::to_string(i)));
      genesis_.push_back({validator_keys_.back().public_key(), 100});
    }
    for (int i = 0; i < kNumCpValidators; ++i) {
      cp_keys_.push_back(PrivateKey::from_label("cpval-" + std::to_string(i)));
      cp_set_.add(cp_keys_.back().public_key(), 10);
    }
    GuestConfig cfg;
    cfg.delta_seconds = 100.0;
    cfg.epoch_length_host_slots = 1'000'000;  // no rotation unless a test wants it
    cfg.unstake_hold_seconds = 50.0;
    auto contract = std::make_unique<GuestContract>(cfg, genesis_, "picasso-1", cp_set_);
    contract_ = contract.get();
    chain_.register_program(kProgramName, std::move(contract));

    payer_ = PrivateKey::from_label("gc-payer").public_key();
    chain_.airdrop(payer_, 1000 * host::kLamportsPerSol);
    // Back the genesis validators' stake with real lamports so that
    // slashing has something to move.
    chain_.airdrop(contract_->stake_vault(), 100 * kNumValidators);
    for (const auto& k : validator_keys_)
      chain_.airdrop(k.public_key(), 1000 * host::kLamportsPerSol);
    chain_.start();
  }

  static host::ChainConfig fast_inclusion() {
    host::ChainConfig cfg;
    cfg.p_include_base = 1.0;  // deterministic unit tests
    return cfg;
  }

  host::TxResult submit(host::Instruction ix, const PublicKey& payer,
                        std::vector<host::SigVerify> sigs = {}) {
    host::Transaction tx;
    tx.payer = payer;
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

  host::TxResult submit(host::Instruction ix) { return submit(std::move(ix), payer_); }

  /// Uploads `blob` into a staging buffer owned by `payer`.
  void upload(std::uint64_t buffer_id, ByteView blob, const PublicKey& payer) {
    std::uint32_t offset = 0;
    for (const Bytes& chunk : ix::chunk_payload(blob)) {
      const auto res = submit(ix::chunk_upload(buffer_id, offset, chunk), payer);
      ASSERT_TRUE(res.success) << res.error;
      offset += static_cast<std::uint32_t>(chunk.size());
    }
  }

  /// Touches the trie so GenerateBlock has something to commit.
  void dirty_state() {
    Encoder e;
    e.u8(static_cast<std::uint8_t>(HandshakeOp::kConnOpenInit));
    e.str(contract_->counterparty_client_id()).str("remote-client");
    upload(999, e.out(), payer_);
    const auto res = submit(ix::handshake(999));
    ASSERT_TRUE(res.success) << res.error;
  }

  host::TxResult sign_block(ibc::Height h, int validator) {
    const PrivateKey& key = validator_keys_[static_cast<std::size_t>(validator)];
    const Hash32 digest = contract_->block_at(h).hash();
    return submit(
        ix::sign_block(h, key.public_key()), key.public_key(),
        {host::SigVerify{key.public_key(),
                         digest,
                         key.sign(digest.view())}});
  }

  void finalise_head() {
    const ibc::Height h = contract_->head().header.height;
    for (int i = 0; i < kNumValidators; ++i) {
      if (contract_->block_at(h).finalised) break;
      ASSERT_TRUE(sign_block(h, i).success);
    }
    ASSERT_TRUE(contract_->block_at(h).finalised);
  }

  sim::Simulation sim_;
  host::Chain chain_;
  GuestContract* contract_ = nullptr;
  std::vector<PrivateKey> validator_keys_;
  std::vector<ibc::ValidatorInfo> genesis_;
  std::vector<PrivateKey> cp_keys_;
  ibc::ValidatorSet cp_set_;
  PublicKey payer_;
};

TEST_F(GuestContractTest, GenesisIsFinalised) {
  EXPECT_EQ(contract_->head().header.height, 0u);
  EXPECT_TRUE(contract_->head().finalised);
  EXPECT_EQ(contract_->epoch_validators().size(),
            static_cast<std::size_t>(kNumValidators));
}

TEST_F(GuestContractTest, GenerateBlockNeedsStateChangeOrAge) {
  const auto res = submit(ix::generate_block());
  EXPECT_FALSE(res.success);
  EXPECT_NE(res.error.find("nothing to commit"), std::string::npos);
}

TEST_F(GuestContractTest, GenerateBlockAfterStateChange) {
  dirty_state();
  const auto res = submit(ix::generate_block());
  ASSERT_TRUE(res.success) << res.error;
  EXPECT_EQ(contract_->head().header.height, 1u);
  EXPECT_FALSE(contract_->head().finalised);
  EXPECT_EQ(contract_->head().prev_hash, contract_->block_at(0).hash());
}

TEST_F(GuestContractTest, GenerateBlockAfterDelta) {
  sim_.run_until(150.0);  // Δ = 100 s
  const auto res = submit(ix::generate_block());
  ASSERT_TRUE(res.success) << res.error;
  EXPECT_TRUE(contract_->head().packets.empty());  // empty block
}

TEST_F(GuestContractTest, GenerateBlockBlockedWhileHeadUnfinalised) {
  dirty_state();
  ASSERT_TRUE(submit(ix::generate_block()).success);
  sim_.run_until(300.0);  // well past Δ
  const auto res = submit(ix::generate_block());
  EXPECT_FALSE(res.success);
  EXPECT_NE(res.error.find("not finalised"), std::string::npos);
}

TEST_F(GuestContractTest, QuorumFinalisesBlock) {
  dirty_state();
  ASSERT_TRUE(submit(ix::generate_block()).success);
  ASSERT_TRUE(sign_block(1, 0).success);
  EXPECT_FALSE(contract_->block_at(1).finalised);
  ASSERT_TRUE(sign_block(1, 1).success);
  EXPECT_FALSE(contract_->block_at(1).finalised);
  ASSERT_TRUE(sign_block(1, 2).success);  // 300/400 >= 267
  EXPECT_TRUE(contract_->block_at(1).finalised);
}

TEST_F(GuestContractTest, SignRejectsInvalidHeight) {
  const auto res = sign_block(0, 0);  // genesis exists; height 5 doesn't
  (void)res;                          // signing genesis again is fine to attempt
  const PrivateKey& key = validator_keys_[0];
  const Hash32 digest = contract_->block_at(0).hash();
  const auto bad = submit(
      ix::sign_block(5, key.public_key()), key.public_key(),
      {host::SigVerify{key.public_key(), digest,
                       key.sign(digest.view())}});
  EXPECT_FALSE(bad.success);
  EXPECT_NE(bad.error.find("invalid height"), std::string::npos);
}

TEST_F(GuestContractTest, SignRejectsNonValidator) {
  dirty_state();
  ASSERT_TRUE(submit(ix::generate_block()).success);
  const PrivateKey outsider = PrivateKey::from_label("outsider");
  chain_.airdrop(outsider.public_key(), host::kLamportsPerSol);
  const Hash32 digest = contract_->block_at(1).hash();
  const auto res = submit(
      ix::sign_block(1, outsider.public_key()), outsider.public_key(),
      {host::SigVerify{outsider.public_key(),
                       digest,
                       outsider.sign(digest.view())}});
  EXPECT_FALSE(res.success);
  EXPECT_NE(res.error.find("not an active validator"), std::string::npos);
}

TEST_F(GuestContractTest, SignRejectsDuplicate) {
  dirty_state();
  ASSERT_TRUE(submit(ix::generate_block()).success);
  ASSERT_TRUE(sign_block(1, 0).success);
  const auto res = sign_block(1, 0);
  EXPECT_FALSE(res.success);
  EXPECT_NE(res.error.find("already signed"), std::string::npos);
}

TEST_F(GuestContractTest, SignRequiresPrecompileSignature) {
  dirty_state();
  ASSERT_TRUE(submit(ix::generate_block()).success);
  // No sig_verifies attached.
  const auto res = submit(ix::sign_block(1, validator_keys_[0].public_key()),
                          validator_keys_[0].public_key());
  EXPECT_FALSE(res.success);
  EXPECT_NE(res.error.find("no verified signature"), std::string::npos);
}

TEST_F(GuestContractTest, SignRejectsSignatureOverWrongBlock) {
  dirty_state();
  ASSERT_TRUE(submit(ix::generate_block()).success);
  const PrivateKey& key = validator_keys_[0];
  const Hash32 wrong = contract_->block_at(0).hash();  // signed genesis, claims block 1
  const auto res = submit(
      ix::sign_block(1, key.public_key()), key.public_key(),
      {host::SigVerify{key.public_key(), wrong,
                       key.sign(wrong.view())}});
  EXPECT_FALSE(res.success);
}

TEST_F(GuestContractTest, StakeUnstakeWithdrawLifecycle) {
  const PrivateKey staker = PrivateKey::from_label("staker");
  chain_.airdrop(staker.public_key(), 10 * host::kLamportsPerSol);
  ASSERT_TRUE(submit(ix::stake(500'000'000), staker.public_key()).success);
  EXPECT_EQ(contract_->stake_of(staker.public_key()), 500'000'000u);

  ASSERT_TRUE(submit(ix::unstake(200'000'000), staker.public_key()).success);
  EXPECT_EQ(contract_->stake_of(staker.public_key()), 300'000'000u);

  // Hold period (50 s) not over yet.
  const auto early = submit(ix::withdraw_stake(), staker.public_key());
  EXPECT_FALSE(early.success);

  sim_.run_until(sim_.now() + 60.0);
  const std::uint64_t before = chain_.balance(staker.public_key());
  ASSERT_TRUE(submit(ix::withdraw_stake(), staker.public_key()).success);
  EXPECT_GT(chain_.balance(staker.public_key()), before);
}

TEST_F(GuestContractTest, UnstakeMoreThanStakedFails) {
  const PrivateKey staker = PrivateKey::from_label("staker2");
  chain_.airdrop(staker.public_key(), 10 * host::kLamportsPerSol);
  ASSERT_TRUE(submit(ix::stake(100), staker.public_key()).success);
  EXPECT_FALSE(submit(ix::unstake(101), staker.public_key()).success);
}

TEST_F(GuestContractTest, EpochRotationSelectsTopStake) {
  // Shrink the epoch so rotation triggers, then out-stake validator 3.
  GuestConfig cfg;
  cfg.delta_seconds = 100.0;
  cfg.epoch_length_host_slots = 10;
  cfg.max_validators = 4;
  auto fresh = std::make_unique<GuestContract>(cfg, genesis_, "picasso-1", cp_set_);
  GuestContract* contract = fresh.get();
  chain_.register_program("guest2", std::move(fresh));

  const PrivateKey whale = PrivateKey::from_label("whale");
  chain_.airdrop(whale.public_key(), 10 * host::kLamportsPerSol);
  {
    host::Instruction ix = ix::stake(10'000);
    ix.program = "guest2";
    ASSERT_TRUE(submit(std::move(ix), whale.public_key()).success);
  }
  sim_.run_until(sim_.now() + 10.0);  // > 10 slots

  {
    host::Instruction ix = ix::generate_block();
    ix.program = "guest2";
    ASSERT_TRUE(submit(std::move(ix), payer_).success);
  }
  const GuestBlock& blk = contract->head();
  ASSERT_TRUE(blk.next_validators.has_value());
  EXPECT_TRUE(blk.last_in_epoch());
  EXPECT_TRUE(blk.next_validators->contains(whale.public_key()));

  // Finalise: epoch switches to the new set.
  for (int i = 0; i < kNumValidators && !contract->head().finalised; ++i) {
    const PrivateKey& key = validator_keys_[static_cast<std::size_t>(i)];
    const Hash32 digest = contract->block_at(1).hash();
    host::Instruction ix = ix::sign_block(1, key.public_key());
    ix.program = "guest2";
    ASSERT_TRUE(submit(std::move(ix), key.public_key(),
                       {host::SigVerify{key.public_key(),
                                        digest,
                                        key.sign(digest.view())}})
                    .success);
  }
  EXPECT_TRUE(contract->epoch_validators().contains(whale.public_key()));
}

TEST_F(GuestContractTest, EvidenceForkedBlockSlashes) {
  dirty_state();
  ASSERT_TRUE(submit(ix::generate_block()).success);
  finalise_head();

  // Validator 0 signs a forged alternative to block 1.
  const PrivateKey& offender = validator_keys_[0];
  GuestBlock forged = GuestBlock::make("guest-1", 1, 99.0, Hash32{},
                                       contract_->block_at(0).hash(), 3,
                                       contract_->epoch_validators());
  ASSERT_NE(forged.hash(), contract_->block_at(1).hash());
  const Hash32 digest = forged.hash();

  Encoder ev;
  ev.raw(offender.public_key().view());
  ev.u8(1);
  ev.bytes(forged.header.encode());

  const PrivateKey reporter = PrivateKey::from_label("fisherman");
  chain_.airdrop(reporter.public_key(), 10 * host::kLamportsPerSol);
  upload(7, ev.out(), reporter.public_key());

  const std::uint64_t reporter_before = chain_.balance(reporter.public_key());
  const auto res = submit(
      ix::submit_evidence(7), reporter.public_key(),
      {host::SigVerify{offender.public_key(),
                       digest,
                       offender.sign(digest.view())}});
  ASSERT_TRUE(res.success) << res.error;
  EXPECT_TRUE(contract_->is_banned(offender.public_key()));
  EXPECT_EQ(contract_->stake_of(offender.public_key()), 0u);
  // Reporter got a reward (minus the tx fee they paid).
  EXPECT_GT(chain_.balance(reporter.public_key()) + res.fee.total(), reporter_before);

  // A banned validator can no longer sign.
  dirty_state();
  ASSERT_TRUE(submit(ix::generate_block()).success);
  const auto sign_res = sign_block(contract_->head().header.height, 0);
  EXPECT_FALSE(sign_res.success);
}

TEST_F(GuestContractTest, EvidenceDoubleSignSlashes) {
  const PrivateKey& offender = validator_keys_[1];
  // Two distinct headers at the same (future) height.
  GuestBlock a = GuestBlock::make("guest-1", 9, 1.0, Hash32{}, Hash32{}, 1,
                                  contract_->epoch_validators());
  GuestBlock b = GuestBlock::make("guest-1", 9, 2.0, Hash32{}, Hash32{}, 1,
                                  contract_->epoch_validators());
  ASSERT_NE(a.hash(), b.hash());

  Encoder ev;
  ev.raw(offender.public_key().view());
  ev.u8(2);
  ev.bytes(a.header.encode());
  ev.bytes(b.header.encode());
  upload(8, ev.out(), payer_);

  const Hash32 da = a.hash();
  const Hash32 db = b.hash();
  const auto res = submit(
      ix::submit_evidence(8), payer_,
      {host::SigVerify{offender.public_key(), da,
                       offender.sign(da.view())},
       host::SigVerify{offender.public_key(), db,
                       offender.sign(db.view())}});
  ASSERT_TRUE(res.success) << res.error;
  EXPECT_TRUE(contract_->is_banned(offender.public_key()));
}

TEST_F(GuestContractTest, EvidenceAgainstCanonicalBlockFails) {
  // Signing the *canonical* block is not misbehaviour.
  const PrivateKey& honest = validator_keys_[2];
  const GuestBlock& genesis = contract_->block_at(0);
  Encoder ev;
  ev.raw(honest.public_key().view());
  ev.u8(1);
  ev.bytes(genesis.header.encode());
  upload(9, ev.out(), payer_);
  const Hash32 digest = genesis.hash();
  const auto res = submit(
      ix::submit_evidence(9), payer_,
      {host::SigVerify{honest.public_key(),
                       digest,
                       honest.sign(digest.view())}});
  EXPECT_FALSE(res.success);
  EXPECT_FALSE(contract_->is_banned(honest.public_key()));
}

TEST_F(GuestContractTest, EvidenceRequiresRealSignature) {
  const PrivateKey& framed = validator_keys_[3];
  GuestBlock forged = GuestBlock::make("guest-1", 42, 1.0, Hash32{}, Hash32{}, 1,
                                       contract_->epoch_validators());
  Encoder ev;
  ev.raw(framed.public_key().view());
  ev.u8(1);
  ev.bytes(forged.header.encode());
  upload(10, ev.out(), payer_);
  // No pre-compile signature by `framed` over the forged digest.
  const auto res = submit(ix::submit_evidence(10), payer_);
  EXPECT_FALSE(res.success);
  EXPECT_FALSE(contract_->is_banned(framed.public_key()));
}

TEST_F(GuestContractTest, ChunkedClientUpdateReachesQuorum) {
  // Build a counterparty header signed by 4 of 5 validators.
  ibc::QuorumHeader header;
  header.chain_id = "picasso-1";
  header.height = 10;
  header.timestamp = 60.0;
  header.state_root.bytes[1] = 0xAA;
  header.validator_set_hash = cp_set_.hash();
  const Hash32 digest = header.signing_digest();

  Encoder payload;
  payload.bytes(header.encode());
  payload.boolean(false);
  upload(1, payload.out(), payer_);
  ASSERT_TRUE(submit(ix::begin_client_update(1)).success);

  // Signatures across two transactions (2 + 2).
  for (int batch = 0; batch < 2; ++batch) {
    std::vector<host::SigVerify> sigs;
    for (int j = batch * 2; j < batch * 2 + 2; ++j) {
      const PrivateKey& k = cp_keys_[static_cast<std::size_t>(j)];
      sigs.push_back(host::SigVerify{k.public_key(),
                                     digest,
                                     k.sign(digest.view())});
    }
    ASSERT_TRUE(submit(ix::verify_update_signatures(), payer_, sigs).success);
  }
  ASSERT_TRUE(submit(ix::finish_client_update()).success);
  EXPECT_EQ(contract_->counterparty_client().latest_height(), 10u);
  const auto cs = contract_->counterparty_client().consensus_at(10);
  ASSERT_TRUE(cs.has_value());
  EXPECT_EQ(cs->state_root.bytes[1], 0xAA);
}

TEST_F(GuestContractTest, FinishUpdateBeforeQuorumFails) {
  ibc::QuorumHeader header;
  header.chain_id = "picasso-1";
  header.height = 10;
  header.validator_set_hash = cp_set_.hash();
  const Hash32 digest = header.signing_digest();

  Encoder payload;
  payload.bytes(header.encode());
  payload.boolean(false);
  upload(2, payload.out(), payer_);
  ASSERT_TRUE(submit(ix::begin_client_update(2)).success);

  // Only 2 of 5 (quorum needs 4: 34 of 50 stake -> 4 validators).
  std::vector<host::SigVerify> sigs;
  for (int j = 0; j < 2; ++j) {
    const PrivateKey& k = cp_keys_[static_cast<std::size_t>(j)];
    sigs.push_back(host::SigVerify{k.public_key(),
                                   digest,
                                   k.sign(digest.view())});
  }
  ASSERT_TRUE(submit(ix::verify_update_signatures(), payer_, sigs).success);
  const auto res = submit(ix::finish_client_update());
  EXPECT_FALSE(res.success);
  EXPECT_NE(res.error.find("quorum"), std::string::npos);
  EXPECT_EQ(contract_->counterparty_client().latest_height(), 0u);
}

TEST_F(GuestContractTest, DuplicateUpdateSignaturesNotDoubleCounted) {
  ibc::QuorumHeader header;
  header.chain_id = "picasso-1";
  header.height = 11;
  header.validator_set_hash = cp_set_.hash();
  const Hash32 digest = header.signing_digest();

  Encoder payload;
  payload.bytes(header.encode());
  payload.boolean(false);
  upload(3, payload.out(), payer_);
  ASSERT_TRUE(submit(ix::begin_client_update(3)).success);

  // The same validator's signature four times: only 10 stake counted.
  const PrivateKey& k = cp_keys_[0];
  for (int i = 0; i < 2; ++i) {
    std::vector<host::SigVerify> sigs(2, host::SigVerify{
        k.public_key(), digest,
        k.sign(digest.view())});
    const auto res = submit(ix::verify_update_signatures(), payer_, sigs);
    if (i == 1) {
      EXPECT_FALSE(res.success);  // nothing new to count
    }
  }
  EXPECT_FALSE(submit(ix::finish_client_update()).success);
}

TEST_F(GuestContractTest, BeginUpdateRejectsStaleOrForeignHeaders) {
  ibc::QuorumHeader header;
  header.chain_id = "not-picasso";
  header.height = 10;
  header.validator_set_hash = cp_set_.hash();
  Encoder payload;
  payload.bytes(header.encode());
  payload.boolean(false);
  upload(4, payload.out(), payer_);
  EXPECT_FALSE(submit(ix::begin_client_update(4)).success);

  ibc::QuorumHeader stale;
  stale.chain_id = "picasso-1";
  stale.height = 0;
  stale.validator_set_hash = cp_set_.hash();
  Encoder p2;
  p2.bytes(stale.encode());
  p2.boolean(false);
  upload(5, p2.out(), payer_);
  EXPECT_FALSE(submit(ix::begin_client_update(5)).success);
}

TEST_F(GuestContractTest, MissingBufferFails) {
  const auto res = submit(ix::receive_packet(12345));
  EXPECT_FALSE(res.success);
  EXPECT_NE(res.error.find("no such staging buffer"), std::string::npos);
}

TEST_F(GuestContractTest, BuffersArePerPayer) {
  upload(42, bytes_of("data"), payer_);
  // Another payer referencing the same id sees nothing.
  const PrivateKey other = PrivateKey::from_label("other-payer");
  chain_.airdrop(other.public_key(), host::kLamportsPerSol);
  const auto res = submit(ix::receive_packet(42), other.public_key());
  EXPECT_FALSE(res.success);
  EXPECT_NE(res.error.find("no such staging buffer"), std::string::npos);
}

TEST_F(GuestContractTest, SendPacketCollectsFee) {
  // No channel open: the send fails, but fee collection is attempted
  // first — verify the error comes from IBC, not fee logic.
  const auto res = submit(ix::send_packet("transfer", "channel-0", bytes_of("x"), 0,
                                          sim_.now() + 100));
  EXPECT_FALSE(res.success);
  EXPECT_NE(res.error.find("unknown channel"), std::string::npos);
}

TEST_F(GuestContractTest, AccountBytesGrowWithState) {
  const std::size_t before = contract_->account_bytes();
  dirty_state();
  ASSERT_TRUE(submit(ix::generate_block()).success);
  EXPECT_GT(contract_->account_bytes(), before);
}

TEST_F(GuestContractTest, OldBlockRecordsArePruned) {
  GuestConfig cfg;
  cfg.delta_seconds = 100.0;
  cfg.epoch_length_host_slots = 1'000'000;
  cfg.block_history_window = 3;
  auto fresh = std::make_unique<GuestContract>(cfg, genesis_, "picasso-1", cp_set_);
  GuestContract* contract = fresh.get();
  chain_.register_program("pruned", std::move(fresh));

  auto generate_and_finalise = [&] {
    sim_.run_until(sim_.now() + 110.0);  // pass Δ
    host::Instruction gen = ix::generate_block();
    gen.program = "pruned";
    ASSERT_TRUE(submit(std::move(gen), payer_).success);
    const ibc::Height h = contract->head().header.height;
    for (int i = 0; i < 3; ++i) {
      const PrivateKey& key = validator_keys_[static_cast<std::size_t>(i)];
      const Hash32 digest = contract->block_at(h).hash();
      host::Instruction s = ix::sign_block(h, key.public_key());
      s.program = "pruned";
      ASSERT_TRUE(submit(std::move(s), key.public_key(),
                         {host::SigVerify{key.public_key(),
                                          digest,
                                          key.sign(digest.view())}})
                      .success);
    }
  };
  for (int i = 0; i < 6; ++i) generate_and_finalise();

  // Early blocks keep headers (hashes/timestamps) but lose signer sets.
  EXPECT_TRUE(contract->block_at(1).signers.empty());
  EXPECT_TRUE(contract->block_at(1).finalised);  // finality flag is kept
  EXPECT_FALSE(contract->head().signers.empty());

  // A late Sign for a pruned height is rejected.
  const PrivateKey& key = validator_keys_[3];
  const Hash32 digest = contract->block_at(1).hash();
  host::Instruction s = ix::sign_block(1, key.public_key());
  s.program = "pruned";
  const auto res = submit(std::move(s), key.public_key(),
                          {host::SigVerify{key.public_key(),
                                           digest,
                                           key.sign(digest.view())}});
  EXPECT_FALSE(res.success);
  EXPECT_NE(res.error.find("pruned"), std::string::npos);
}

TEST_F(GuestContractTest, BannedValidatorCannotStake) {
  // Ban validator 0 via fork evidence, then try to re-stake.
  dirty_state();
  ASSERT_TRUE(submit(ix::generate_block()).success);
  finalise_head();
  const PrivateKey& offender = validator_keys_[0];
  GuestBlock forged = GuestBlock::make("guest-1", 1, 77.0, Hash32{},
                                       contract_->block_at(0).hash(), 2,
                                       contract_->epoch_validators());
  Encoder ev;
  ev.raw(offender.public_key().view());
  ev.u8(1);
  ev.bytes(forged.header.encode());
  upload(11, ev.out(), payer_);
  const Hash32 digest = forged.hash();
  ASSERT_TRUE(submit(ix::submit_evidence(11), payer_,
                     {host::SigVerify{offender.public_key(),
                                      digest,
                                      offender.sign(digest.view())}})
                  .success);
  const auto res = submit(ix::stake(100), offender.public_key());
  EXPECT_FALSE(res.success);
}

// --- fork checkpoint round trip ---------------------------------------------

/// Every off-chain read surface of the contract, one line each.
std::string read_surfaces(relayer::Deployment& d, const std::vector<PublicKey>& accounts,
                          ibc::Height max_height) {
  GuestContract& g = d.guest();
  std::ostringstream out;
  out << "root " << g.store().root_hash().hex() << "\nhead " << g.head().hash().hex()
      << "\nfinalised " << g.last_finalised_height() << "\n";
  for (ibc::Height h = 0; h < g.block_count(); ++h)
    out << "block " << h << " finalised " << g.block_at(h).finalised << " signers "
        << g.block_at(h).signers.size() << "\n";
  if (const auto upd = g.pending_update_info()) {
    out << "update " << upd->height << " power " << upd->verified_power;
    for (const PublicKey& k : upd->seen) out << " " << k.hex();
    out << "\n";
  }
  for (const PublicKey& who : accounts) {
    out << "account " << who.hex() << " stake " << g.stake_of(who) << " buffers";
    for (const std::uint64_t id : g.staging_buffers_of(who))
      out << " " << id << ":" << g.staging_buffer_size(who, id).value_or(0);
    out << "\n";
  }
  out << "fees " << g.fees_collected() << " rewards " << g.rewards_paid() << "\nbank "
      << audit::token_state_digest(g.bank()) << "\nclient "
      << g.counterparty_client().latest_height() << "\n";
  const auto seq = g.ibc().sequences("transfer", d.guest_channel());
  out << "seq " << seq.next_send << " " << seq.resolved_watermark
      << " " << seq.receipts_watermark << " " << seq.acks_watermark << "\n";
  const ibc::IbcModule& m = g.ibc();
  for (std::uint64_t n = 1; n <= 16; ++n) {
    if (const auto ack = m.ack_for("transfer", d.guest_channel(), n))
      out << "module ack " << n << " " << to_hex(ack->encode()) << "\n";
    out << "packet " << n << " received " << m.packet_received("transfer", d.guest_channel(), n)
        << " pending " << m.packet_pending("transfer", d.guest_channel(), n) << " sent "
        << (m.sent_packet("transfer", d.guest_channel(), n) != nullptr) << "\n";
  }
  for (ibc::Height h = 0; h <= max_height; ++h)
    if (const auto r = g.snapshot_root_at(h)) out << "snapshot " << h << " " << r->hex() << "\n";
  return out.str();
}

TEST(GuestCheckpoint, RollbackRestoresEveryReadSurface) {
  // Traffic, then a checkpoint taken mid light-client update, then a
  // send, a receive, client-update chunks, staking, staging uploads and
  // block generation and signing.  fork_rollback() must put every read
  // surface back.  The host's replay self-check compares only success
  // and CU per transaction, so this is what catches a member the
  // checkpoint forgets.
  relayer::DeploymentConfig cfg;
  cfg.seed = 31;
  cfg.guest.delta_seconds = 60.0;
  for (int i = 0; i < 4; ++i) {
    relayer::ValidatorProfile p;
    p.name = "ckpt-val-" + std::to_string(i);
    p.stake = 100;
    // The last validator signs well after the other three reach
    // quorum, so finalised blocks keep taking late signatures.
    p.latency = i < 3 ? sim::LatencyProfile::from_quantiles(2.0, 3.0, 0.4)
                      : sim::LatencyProfile::from_quantiles(200.0, 250.0, 100.0);
    p.fee = host::FeePolicy::priority(1'000'000);
    cfg.validators.push_back(std::move(p));
  }
  cfg.counterparty.num_validators = 10;
  cfg.counterparty.block_interval_s = 6.0;
  relayer::Deployment d(cfg);
  d.open_ibc();
  GuestContract& g = d.guest();

  const PrivateKey staker = PrivateKey::from_label("ckpt-staker");
  d.host().airdrop(staker.public_key(), 10 * host::kLamportsPerSol);
  const auto submit = [&](host::Instruction ix) {
    host::Transaction tx;
    tx.payer = staker.public_key();
    tx.instructions.push_back(std::move(ix));
    tx.fee = host::FeePolicy::bundle(host::usd_to_lamports(1.0));
    d.host().submit(std::move(tx));
  };
  submit(ix::stake(1'000));
  submit(ix::chunk_upload(1, 0, bytes_of("staged before")));
  (void)d.send_transfer_from_guest(20, host::FeePolicy::priority(5'000'000));
  (void)d.send_transfer_from_cp(10);
  d.run_for(60.0);
  (void)d.send_transfer_from_cp(11);
  // Checkpoint while a client update is half done and the head block
  // still waits for signatures, so both change afterwards.
  ASSERT_TRUE(d.run_until(
      [&] {
        return g.pending_update_info().has_value() &&
               g.head().signers.size() < cfg.validators.size();
      },
      600.0));

  std::vector<PublicKey> accounts{staker.public_key(), d.relayer().payer()};
  for (const auto& v : d.validators()) accounts.push_back(v->pubkey());
  const ibc::Height horizon = g.block_count() + 64;
  const std::string at_checkpoint = read_surfaces(d, accounts, horizon);
  const auto seq = g.ibc().sequences("transfer", d.guest_channel());
  const std::size_t blocks = g.block_count();
  const ibc::Height client = g.counterparty_client().latest_height();
  const ibc::Height head = g.head().header.height;
  g.fork_checkpoint();

  submit(ix::stake(2'000));
  submit(ix::chunk_upload(2, 0, bytes_of("staged after")));
  (void)d.send_transfer_from_guest(30, host::FeePolicy::priority(5'000'000));
  ASSERT_TRUE(d.run_until(
      [&] {
        const auto now = g.ibc().sequences("transfer", d.guest_channel());
        return now.next_send > seq.next_send &&
               now.receipts_watermark > seq.receipts_watermark &&
               g.counterparty_client().latest_height() > client &&
               g.last_finalised_height() > blocks &&
               g.block_at(head).signers.size() == cfg.validators.size() &&
               g.stake_of(staker.public_key()) > 1'000 &&
               g.staging_buffers_of(staker.public_key()).size() == 2 &&
               !g.pending_update_info().has_value();
      },
      3000.0));
  ASSERT_NE(read_surfaces(d, accounts, horizon), at_checkpoint);

  g.fork_rollback();
  EXPECT_EQ(read_surfaces(d, accounts, horizon), at_checkpoint);
}

}  // namespace
}  // namespace bmg::guest
