// Unit tests of the Guest Contract (Alg. 1) driven through the host
// runtime: block production, quorum finalisation, staking, slashing,
// staging buffers and the chunked light-client-update machinery.
#include "guest/contract.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <sstream>
#include <string>

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

// --- reorg unwinding ---------------------------------------------------------

/// Every off-chain read surface of the contract, and the host ledger of
/// `accounts`, one line each.  Block records, snapshots and consensus
/// states are read for the newest 300 heights only.
std::string read_surfaces(relayer::Deployment& d, const std::vector<PublicKey>& accounts) {
  GuestContract& g = d.guest();
  const host::Chain& host = d.host();
  std::ostringstream out;
  out << "root " << g.store().root_hash().hex() << "\nhead " << g.head().hash().hex()
      << "\nfinalised " << g.last_finalised_height() << " pruned " << g.pruned_below()
      << " epoch " << g.epoch_validators().hash().hex() << " from " << g.epoch_start_slot()
      << "\nbytes " << g.account_bytes() << " " << g.block_bytes() << "\nupdated "
      << std::hexfloat << g.last_client_update_time() << std::defaultfloat << "\npending";
  for (const ibc::Packet& p : g.pending_packets()) out << " " << p.commitment().hex();
  out << "\n";
  const ibc::Height recent = g.block_count() > 300 ? g.block_count() - 300 : 0;
  for (ibc::Height h = recent; h < g.block_count(); ++h)
    out << "block " << h << " " << g.block_at(h).hash().hex() << " finalised "
        << g.block_at(h).finalised << " signers " << g.block_at(h).signers.size()
        << " packets " << g.block_at(h).packets.size() << "\n";
  if (const auto upd = g.pending_update_info()) {
    out << "update " << upd->height << " power " << upd->verified_power;
    for (const PublicKey& k : upd->seen) out << " " << k.hex();
    out << "\n";
  }
  for (const PublicKey& who : accounts) {
    const auto& stats = host.payer_stats(who);
    out << "account " << who.hex() << " lamports " << host.balance(who) << " fees "
        << stats.fees_lamports << " txs " << stats.tx_count << " sigs " << stats.sig_count
        << " stake " << g.stake_of(who) << " banned " << g.is_banned(who) << " buffers";
    for (const std::uint64_t id : g.staging_buffers_of(who))
      out << " " << id << ":" << to_hex(*g.staging_buffer_bytes(who, id));
    out << "\n";
  }
  out << "host " << host.executed_count() << " " << host.failed_count() << " spiked "
      << host.fault_counters().fee_spiked << "\nfees "
      << g.fees_collected() << " rewards " << g.rewards_paid() << "\nbank "
      << audit::token_state_digest(g.bank()) << "\n";
  const ibc::QuorumLightClient& client = g.counterparty_client();
  out << "client " << client.latest_height() << " " << client.frozen() << " "
      << client.validators().hash().hex() << " states";
  for (ibc::Height h = client.latest_height() > 300 ? client.latest_height() - 300 : 0;
       h <= client.latest_height() + 64; ++h)
    if (const auto cs = client.consensus_at(h)) out << " " << h << ":" << cs->state_root.hex();
  out << "\n";
  const ibc::IbcModule& m = g.ibc();
  const auto seq = m.sequences("transfer", d.guest_channel());
  out << "seq " << seq.next_send << " " << seq.resolved_watermark
      << " " << seq.receipts_watermark << " " << seq.acks_watermark << "\n";
  for (std::uint64_t n = 1; n <= 256; ++n) {
    if (const auto ack = m.ack_for("transfer", d.guest_channel(), n))
      out << "module ack " << n << " " << to_hex(ack->encode()) << "\n";
    out << "packet " << n << " received " << m.packet_received("transfer", d.guest_channel(), n)
        << " pending " << m.packet_pending("transfer", d.guest_channel(), n) << " sent "
        << (m.sent_packet("transfer", d.guest_channel(), n) != nullptr) << "\n";
  }
  for (ibc::Height h = recent; h <= g.block_count() + 8; ++h)
    if (const auto r = g.snapshot_root_at(h)) out << "snapshot " << h << " " << r->hex() << "\n";
  return out.str();
}

/// An armed deployment that first grows past the 256 snapshots the
/// contract keeps, then runs a storm, under a fee spike, in which every
/// retracted transaction dies but the signatures of validators other
/// than unwind-val-6, which survive: a validator never signs a block
/// twice, so more lost signatures would stall the guest.  unwind-val-6
/// usually signs seventh, the signature that finalises a block.  Over
/// the storm it sends both ways (receives, acks and client updates
/// follow), returns vouchers (a burn), generates and signs blocks,
/// prunes old block records, rotates the epoch at every block with
/// changing stake, pays signer rewards, stakes, unstakes and withdraws,
/// and uploads staging chunks that append and that overwrite.
/// `on_slot_end` runs at the end of every slot of the storm, `on_event`
/// at every guest event.
struct UnwindStorm {
  relayer::Deployment d;
  PrivateKey staker = PrivateKey::from_label("unwind-staker");
  std::vector<PublicKey> accounts;

  UnwindStorm() : d(config()) {
    d.host().airdrop(staker.public_key(), 10 * host::kLamportsPerSol);
    d.open_ibc();
    accounts = {staker.public_key(), d.relayer().payer(), d.guest().treasury(),
                d.guest().stake_vault()};
    for (const auto& v : d.validators()) accounts.push_back(v->pubkey());
  }

  static relayer::DeploymentConfig config() {
    relayer::DeploymentConfig cfg;
    cfg.seed = 31;
    cfg.host.fork_aware = true;
    cfg.guest.delta_seconds = 3.0;
    cfg.guest.epoch_length_host_slots = 100;
    cfg.guest.block_history_window = 4;
    cfg.guest.signer_reward_fraction = 0.01;
    cfg.guest.unstake_hold_seconds = 15.0;
    // Ten validators: a quorum survives the signatures the storm kills.
    for (int i = 0; i < 10; ++i) {
      relayer::ValidatorProfile p;
      p.name = "unwind-val-" + std::to_string(i);
      p.stake = 100;
      p.latency = i < 6    ? sim::LatencyProfile::from_quantiles(4.0, 6.0, 0.4)
                  : i == 6 ? sim::LatencyProfile::from_quantiles(12.0, 13.0, 10.0)
                           : sim::LatencyProfile::from_quantiles(30.0, 40.0, 20.0);
      p.fee = host::FeePolicy::priority(1'000'000);
      cfg.validators.push_back(std::move(p));
    }
    cfg.counterparty.num_validators = 10;
    cfg.counterparty.block_interval_s = 6.0;
    return cfg;
  }

  void submit(host::Instruction ix) {
    host::Transaction tx;
    tx.payer = staker.public_key();
    tx.label = "staker";
    tx.instructions.push_back(std::move(ix));
    tx.fee = host::FeePolicy::bundle(host::usd_to_lamports(1.0));
    d.host().submit(std::move(tx));
  }

  void run(const std::function<void()>& on_slot_end,
           const std::function<void()>& on_event) {
    constexpr double kStormS = 1800.0;
    ASSERT_TRUE(d.run_until([&] { return d.guest().block_count() > 270; }, 20'000.0));
    const double start = d.sim().now();
    host::FaultPlan& plan = d.host().fault_plan();
    plan.reorg(start, start + kStormS, /*max_depth=*/4, /*probability=*/0.12);
    plan.fee_spike(start, start + kStormS, 1.5);
    for (const char* label : {"staker", "send-transfer", "generate-block", "lc-update",
                              "recv-packet", "ack-packet", "timeout-packet",
                              "sign:unwind-val-6"})
      plan.reorg(start, start + kStormS, 4, /*probability=*/0.0, /*survival=*/0.0, label);
    d.host().on_slot_end(on_slot_end);
    d.host().subscribe(kProgramName, [&](const host::Event&) { on_event(); });
    for (int i = 0; i < 180; ++i) {
      d.sim().at(start + 10.0 * i, [this, i] {
        if (i % 3 == 0) {
          (void)d.send_transfer_from_guest(10 + i, host::FeePolicy::priority(5'000'000));
          (void)d.send_transfer_from_cp(20 + i);
        }
        switch (i % 6) {
          case 0:
            submit(ix::stake(1 + i));
            break;
          case 1:
            submit(ix::unstake(1));
            break;
          case 2:
            submit(ix::chunk_upload(i, 0, bytes_of("staged " + std::to_string(i))));
            break;
          case 3:  // the unstake's hold has passed
            submit(ix::withdraw_stake());
            break;
          case 4:  // overwrites the tail of buffer i - 2 and appends
            submit(ix::chunk_upload(i - 2, 4, bytes_of("rewritten " + std::to_string(i))));
            break;
          default:
            submit(ix::send_transfer(d.guest_channel(),
                                     "transfer/" + d.guest_channel() + "/PICA", 1, "alice",
                                     "bob", 0, d.sim().now() + 3600.0));
            break;
        }
      });
    }
    d.run_for(kStormS + 60.0);
  }
};

TEST(GuestUnwind, ReorgRestoresEveryReadSurface) {
  // At the end of a slot k that reorged the slots from F onward, where
  // no retracted transaction survived and k executed nothing itself,
  // every read surface must be what it was at the end of F - 1:
  // whatever differs is a write no record put back.
  UnwindStorm s;
  GuestContract& g = s.d.guest();
  const host::Chain& host = s.d.host();
  struct Surfaces {
    std::string text;
    std::uint64_t txs = 0;  ///< transactions executed on the current fork
  };
  std::map<std::uint64_t, Surfaces> at_slot;  // end-of-slot surfaces on the current fork
  std::uint64_t epoch = host.fork_epoch();
  std::uint64_t rolled = host.fault_counters().slots_rolled_back;
  std::uint64_t reorged_out = host.fault_counters().txs_reorged_out;
  std::uint64_t replayed = host.fault_counters().txs_replayed;
  int checked = 0, checked_with_deaths = 0;
  s.run(
      [&] {
        const std::uint64_t k = host.slot();
        Surfaces now{read_surfaces(s.d, s.accounts),
                     host.executed_count() + host.failed_count()};
        const auto& fc = host.fault_counters();
        if (host.fork_epoch() != epoch) {
          const std::uint64_t first = k - (fc.slots_rolled_back - rolled);
          const auto base = at_slot.find(first - 1);
          if (fc.txs_replayed == replayed && base != at_slot.end()) {
            // With no survivor, the slots [first, k - 1] of the winning
            // fork end as first - 1 did.
            for (std::uint64_t r = first; r < k; ++r) at_slot[r] = base->second;
            if (now.txs == base->second.txs) {
              ++checked;
              if (fc.txs_reorged_out > reorged_out) ++checked_with_deaths;
              EXPECT_EQ(now.text, base->second.text)
                  << "slot " << k << " reorged from " << first;
            }
          } else {
            // Survivors re-executed: what those slots hold now is not
            // recorded, so no later reorg compares against them.
            at_slot.erase(at_slot.lower_bound(first), at_slot.end());
          }
        }
        epoch = host.fork_epoch();
        rolled = fc.slots_rolled_back;
        reorged_out = fc.txs_reorged_out;
        replayed = fc.txs_replayed;
        at_slot[k] = std::move(now);
        at_slot.erase(at_slot.begin(), at_slot.lower_bound(host.rooted_slot()));
      },
      [] {});
  EXPECT_GT(checked, 100);
  EXPECT_GT(checked_with_deaths, 30);
  // Sends resolved on the guest, so acks and receipts went through it.
  const auto& m = g.ibc();
  EXPECT_GT(m.next_send_sequence("transfer", s.d.guest_channel()) -
                m.pending_send_sequences("transfer", s.d.guest_channel()).size(),
            10u);
}

TEST(GuestUnwind, BlockBytesMatchFullSum) {
  // The running total of block-record bytes equals the full sum at
  // every guest event and at the end of every slot, unwinds included.
  UnwindStorm s;
  GuestContract& g = s.d.guest();
  const auto check = [&] {
    std::size_t sum = 0;
    for (ibc::Height h = 0; h < g.block_count(); ++h) sum += g.block_at(h).byte_size();
    ASSERT_EQ(g.block_bytes(), sum) << "at slot " << s.d.host().slot();
  };
  s.run(check, check);
  EXPECT_GT(s.d.host().fault_counters().txs_reorged_out, 0u);
}

}  // namespace
}  // namespace bmg::guest
