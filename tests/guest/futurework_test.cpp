// Tests of the paper's §VI future-work features implemented here:
// light client misbehaviour freezing + rate limiting (§VI-C) and the
// self-destruct wind-down that mitigates the last-validator bank run
// (§VI-A).
#include <gtest/gtest.h>

#include <optional>
#include <sstream>

#include "guest/contract.hpp"
#include "guest/instructions.hpp"
#include "host/chain.hpp"

namespace bmg::guest {
namespace {

using crypto::PrivateKey;
using crypto::PublicKey;

class FutureWorkTest : public ::testing::Test {
 protected:
  explicit FutureWorkTest(bool fork_aware = false) : chain_(sim_, Rng(3), fast(fork_aware)) {
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

  static host::ChainConfig fast(bool fork_aware) {
    host::ChainConfig cfg;
    cfg.p_include_base = 1.0;
    cfg.fork_aware = fork_aware;
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

// --- reorgs unwind the §VI instructions ------------------------------------

/// The same fixture on a fork-aware host.
class ArmedFutureWorkTest : public FutureWorkTest {
 protected:
  ArmedFutureWorkTest() : FutureWorkTest(/*fork_aware=*/true) {}

  /// Executes `ix` alone in one slot, then reorgs that slot away with
  /// no survivor; returns the execution's result.
  host::TxResult execute_then_retract(host::Instruction ix,
                                      std::vector<host::SigVerify> sigs = {}) {
    ix.program = "guest";
    host::Transaction tx;
    tx.payer = payer_;
    tx.instructions.push_back(std::move(ix));
    tx.sig_verifies = std::move(sigs);
    std::optional<host::TxResult> out;
    chain_.submit(std::move(tx), [&](const host::TxResult& r) {
      if (!out) out = r;
    });
    while (!out && sim_.step()) {
    }
    const std::uint64_t dead = chain_.fault_counters().txs_reorged_out;
    // The next slot boundary is 0.4 s on: it forks one slot deep.
    chain_.fault_plan().reorg(sim_.now() + 0.2, sim_.now() + 0.6, /*max_depth=*/1,
                              /*probability=*/1.0, /*survival=*/0.0);
    sim_.run_until(sim_.now() + 1.0);
    EXPECT_EQ(chain_.fault_counters().txs_reorged_out, dead + 1);
    return out.value_or(host::TxResult{});
  }

  /// Every read surface these instructions change.
  std::string surfaces(const GuestContract& c) const {
    std::ostringstream out;
    out << c.counterparty_client().frozen() << " " << c.counterparty_client().latest_height()
        << " " << c.terminated() << " " << c.account_bytes() << " " << c.fees_collected()
        << " " << c.rewards_paid() << " epoch " << c.epoch_validators().hash().hex() << " "
        << c.epoch_start_slot() << " head " << c.head().hash().hex() << " "
        << c.head().finalised << " " << c.head().signers.size() << " " << c.block_bytes()
        << " buffers";
    for (const std::uint64_t id : c.staging_buffers_of(payer_)) out << " " << id;
    for (const auto& k : validator_keys_)
      out << "\n" << k.public_key().hex() << " " << c.stake_of(k.public_key()) << " "
          << c.is_banned(k.public_key()) << " " << chain_.balance(k.public_key());
    out << "\nvault " << chain_.balance(c.stake_vault()) << " payer " << chain_.balance(payer_);
    return out.str();
  }
};

TEST_F(ArmedFutureWorkTest, ReorgUnwindsFreezeSlashAndSelfDestruct) {
  // Each instruction, retracted with its slot, leaves every read
  // surface as it was before it executed.
  GuestConfig cfg;
  cfg.self_destruct_after_s = 500.0;
  cfg.delta_seconds = 1e9;
  GuestContract* c = install(cfg);

  Encoder fork;
  fork.bytes(cp_header(10, 0xAA).encode());
  fork.bytes(cp_header(10, 0xBB).encode());
  upload(1, fork.out());
  std::string before = surfaces(*c);
  ASSERT_TRUE(execute_then_retract(ix::freeze_client(1)).success);
  EXPECT_EQ(surfaces(*c), before);

  const PrivateKey& offender = validator_keys_[1];
  const GuestBlock a = GuestBlock::make("guest-1", 9, 1.0, Hash32{}, Hash32{}, 1,
                                        c->epoch_validators());
  const GuestBlock b = GuestBlock::make("guest-1", 9, 2.0, Hash32{}, Hash32{}, 1,
                                        c->epoch_validators());
  Encoder ev;
  ev.raw(offender.public_key().view());
  ev.u8(2);
  ev.bytes(a.header.encode());
  ev.bytes(b.header.encode());
  upload(2, ev.out());
  before = surfaces(*c);
  const Hash32 da = a.hash(), db = b.hash();
  ASSERT_TRUE(execute_then_retract(
                  ix::submit_evidence(2),
                  {host::SigVerify{offender.public_key(), da, offender.sign(da.view())},
                   host::SigVerify{offender.public_key(), db, offender.sign(db.view())}})
                  .success);
  EXPECT_EQ(surfaces(*c), before);

  sim_.run_until(600.0);
  before = surfaces(*c);
  ASSERT_TRUE(execute_then_retract(ix::self_destruct()).success);
  EXPECT_EQ(surfaces(*c), before);
  EXPECT_FALSE(c->terminated());
}

TEST_F(ArmedFutureWorkTest, ReorgUnwindsAFinalisingSignature) {
  // The signature that reaches quorum finalises the last block of an
  // epoch, rotating the set (a new staker joins it) and paying signer
  // rewards.  Retracted with its slot, it leaves every surface as it
  // was.
  GuestConfig cfg;
  cfg.delta_seconds = 50.0;
  cfg.signer_reward_fraction = 0.5;
  cfg.epoch_length_host_slots = 10;
  GuestContract* c = install(cfg);
  chain_.airdrop(c->treasury(), 1'000'000);
  ASSERT_TRUE(submit(ix::stake(50)).success);
  sim_.run_until(60.0);
  ASSERT_TRUE(submit(ix::generate_block()).success);
  const ibc::Height h = c->head().header.height;
  ASSERT_TRUE(c->head().last_in_epoch());
  const auto sign = [&](int i) {
    const PrivateKey& key = validator_keys_[static_cast<std::size_t>(i)];
    const Hash32 digest = c->block_at(h).hash();
    return std::make_pair(ix::sign_block(h, key.public_key()),
                          std::vector<host::SigVerify>{
                              {key.public_key(), digest, key.sign(digest.view())}});
  };
  for (int i = 0; i < 2; ++i) {
    auto [ix, sigs] = sign(i);
    ASSERT_TRUE(submit(std::move(ix), std::move(sigs)).success);
  }
  ASSERT_FALSE(c->head().finalised);
  const std::string before = surfaces(*c);
  auto [ix, sigs] = sign(2);
  ASSERT_TRUE(execute_then_retract(std::move(ix), std::move(sigs)).success);
  EXPECT_EQ(surfaces(*c), before);
  EXPECT_FALSE(c->head().finalised);
  EXPECT_EQ(c->rewards_paid(), 0u);
}

TEST_F(ArmedFutureWorkTest, ReorgUnwindsStakingAndWithdrawal) {
  // A stake, an unstake and a withdrawal, each retracted with its slot.
  GuestConfig cfg;
  cfg.delta_seconds = 1e9;
  cfg.unstake_hold_seconds = 50.0;
  GuestContract* c = install(cfg);
  std::string before = surfaces(*c) + std::to_string(c->stake_of(payer_));
  ASSERT_TRUE(execute_then_retract(ix::stake(400)).success);
  EXPECT_EQ(surfaces(*c) + std::to_string(c->stake_of(payer_)), before);
  ASSERT_TRUE(submit(ix::stake(400)).success);
  before = surfaces(*c) + std::to_string(c->stake_of(payer_));
  ASSERT_TRUE(execute_then_retract(ix::unstake(400)).success);
  EXPECT_EQ(surfaces(*c) + std::to_string(c->stake_of(payer_)), before);
  ASSERT_TRUE(submit(ix::unstake(400)).success);
  sim_.run_until(sim_.now() + 60.0);
  before = surfaces(*c);
  ASSERT_TRUE(execute_then_retract(ix::withdraw_stake()).success);
  EXPECT_EQ(surfaces(*c), before);
}

}  // namespace
}  // namespace bmg::guest
