#include "host/chain.hpp"

#include <gtest/gtest.h>

#include "common/codec.hpp"
#include "crypto/sha256.hpp"
#include "host/constants.hpp"

namespace bmg::host {
namespace {

using crypto::PrivateKey;
using crypto::PublicKey;

/// Minimal program for runtime tests: counts calls, can burn CU, grow
/// its account, emit events, transfer lamports or abort.
class TestProgram : public Program {
 public:
  void execute(TxContext& ctx, ByteView data) override {
    Decoder d(data);
    const std::uint8_t op = d.u8();
    switch (op) {
      case 0:  // bump counter
        ++counter;
        break;
      case 1:  // burn CU
        ctx.consume_cu(d.u64());
        break;
      case 2:  // abort
        throw TxError("requested abort");
      case 3:  // emit event then maybe abort
        ctx.emit_event("ping", bytes_of("pong"));
        if (d.u8() == 1) throw TxError("abort after event");
        break;
      case 4:  // grow account
        bytes_used = d.u64();
        break;
      case 5: {  // transfer then maybe abort
        const std::uint64_t amount = d.u64();
        ctx.transfer_from_payer(sink, amount);
        if (d.u8() == 1) throw TxError("abort after transfer");
        break;
      }
      case 6:  // count verified signatures
        sigs_seen += ctx.verified_signatures().size();
        break;
      default:
        throw TxError("bad op");
    }
  }
  [[nodiscard]] std::size_t account_bytes() const override { return bytes_used; }

  int counter = 0;
  std::size_t bytes_used = 0;
  std::size_t sigs_seen = 0;
  PublicKey sink = PrivateKey::from_label("sink").public_key();
};

class ChainTest : public ::testing::Test {
 protected:
  ChainTest() : chain_(sim_, Rng(1234)) {
    chain_.register_program("test", std::make_unique<TestProgram>());
    chain_.airdrop(payer_, 100 * kLamportsPerSol);
    chain_.start();
  }

  Transaction make_tx(Bytes data, FeePolicy fee = FeePolicy::base()) {
    Transaction tx;
    tx.payer = payer_;
    tx.instructions.push_back(Instruction{"test", std::move(data)});
    tx.fee = fee;
    return tx;
  }

  TxResult run_to_result(Transaction tx) {
    TxResult out;
    bool got = false;
    chain_.submit(std::move(tx), [&](const TxResult& r) {
      out = r;
      got = true;
    });
    sim_.run_until(sim_.now() + 120.0);
    EXPECT_TRUE(got);
    return out;
  }

  TestProgram& prog() { return chain_.program_as<TestProgram>("test"); }

  sim::Simulation sim_;
  Chain chain_;
  PublicKey payer_ = PrivateKey::from_label("payer").public_key();
};

Bytes op_bump() {
  Encoder e;
  e.u8(0);
  return e.take();
}

TEST_F(ChainTest, SlotsAdvanceWithTime) {
  sim_.run_until(4.0);
  EXPECT_EQ(chain_.slot(), 10u);  // 4.0s / 0.4s
}

TEST_F(ChainTest, ExecutesSimpleTransaction) {
  const TxResult res = run_to_result(make_tx(op_bump()));
  EXPECT_TRUE(res.executed);
  EXPECT_TRUE(res.success) << res.error;
  EXPECT_EQ(prog().counter, 1);
  EXPECT_GT(res.slot, 0u);
}

TEST_F(ChainTest, BaseFeeIsOneSignature) {
  const TxResult res = run_to_result(make_tx(op_bump()));
  EXPECT_EQ(res.fee.base_lamports, kLamportsPerSignature);
  EXPECT_EQ(res.fee.priority_lamports, 0u);
  EXPECT_EQ(res.fee.tip_lamports, 0u);
  // 5000 lamports at 200 USD/SOL = 0.1 cents.
  EXPECT_NEAR(res.fee.usd(), 0.001, 1e-9);
}

TEST_F(ChainTest, PriorityFeeScalesWithComputeUnits) {
  Encoder e;
  e.u8(1).u64(1'000'000);  // burn 1M CU
  const TxResult res = run_to_result(make_tx(e.take(), FeePolicy::priority(2'000'000)));
  EXPECT_TRUE(res.success) << res.error;
  EXPECT_GE(res.cu_used, 1'000'000u);
  // 2e6 micro-lamports/CU * ~1e6 CU = ~2e6 lamports.
  EXPECT_NEAR(static_cast<double>(res.fee.priority_lamports), 2.0e6, 0.1e6);
}

TEST_F(ChainTest, BundleTipCharged) {
  const std::uint64_t tip = usd_to_lamports(3.02);
  const TxResult res = run_to_result(make_tx(op_bump(), FeePolicy::bundle(tip)));
  EXPECT_EQ(res.fee.tip_lamports, tip);
  EXPECT_NEAR(res.fee.usd(), 3.02 + 0.001, 1e-6);
}

TEST_F(ChainTest, FeesDeductedFromPayer) {
  const std::uint64_t before = chain_.balance(payer_);
  const TxResult res = run_to_result(make_tx(op_bump()));
  EXPECT_EQ(chain_.balance(payer_), before - res.fee.total());
}

TEST_F(ChainTest, OversizedTransactionRejected) {
  Transaction tx = make_tx(op_bump());
  tx.instructions[0].data.resize(kMaxTransactionSize + 1);
  const TxResult res = run_to_result(std::move(tx));
  EXPECT_FALSE(res.executed);
  EXPECT_NE(res.error.find("too large"), std::string::npos);
}

TEST_F(ChainTest, MaxSizeTransactionAccepted) {
  Transaction tx = make_tx(op_bump());
  // Pad instruction data to exactly the size limit.
  tx.instructions[0].data.resize(kMaxTransactionSize - kTxEnvelopeBytes - 8);
  ASSERT_EQ(tx.wire_size(), kMaxTransactionSize);
  // Padding trailing bytes is ignored by the decoder-based program.
  const TxResult res = run_to_result(std::move(tx));
  EXPECT_TRUE(res.executed);
}

TEST_F(ChainTest, ComputeBudgetEnforced) {
  Encoder e;
  e.u8(1).u64(kMaxComputeUnits + 1);
  const TxResult res = run_to_result(make_tx(e.take()));
  EXPECT_TRUE(res.executed);
  EXPECT_FALSE(res.success);
  EXPECT_NE(res.error.find("compute budget"), std::string::npos);
}

TEST_F(ChainTest, FailedTxStillPaysFees) {
  const std::uint64_t before = chain_.balance(payer_);
  Encoder e;
  e.u8(2);  // abort
  const TxResult res = run_to_result(make_tx(e.take()));
  EXPECT_FALSE(res.success);
  EXPECT_LT(chain_.balance(payer_), before);
  EXPECT_EQ(res.fee.base_lamports, kLamportsPerSignature);
}

TEST_F(ChainTest, EventsDeliveredOnSuccess) {
  std::vector<Event> seen;
  chain_.subscribe("test", [&](const Event& ev) { seen.push_back(ev); });
  Encoder e;
  e.u8(3).u8(0);  // emit, no abort
  const TxResult res = run_to_result(make_tx(e.take()));
  ASSERT_TRUE(res.success);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].name, "ping");
  EXPECT_EQ(seen[0].data, bytes_of("pong"));
  EXPECT_EQ(seen[0].program, "test");
}

TEST_F(ChainTest, EventsDiscardedOnFailure) {
  std::vector<Event> seen;
  chain_.subscribe("test", [&](const Event& ev) { seen.push_back(ev); });
  Encoder e;
  e.u8(3).u8(1);  // emit then abort
  const TxResult res = run_to_result(make_tx(e.take()));
  EXPECT_FALSE(res.success);
  EXPECT_TRUE(seen.empty());
}

TEST_F(ChainTest, TransfersAppliedOnSuccess) {
  Encoder e;
  e.u8(5).u64(1000).u8(0);
  const TxResult res = run_to_result(make_tx(e.take()));
  ASSERT_TRUE(res.success) << res.error;
  EXPECT_EQ(chain_.balance(prog().sink), 1000u);
}

TEST_F(ChainTest, TransfersRolledBackOnFailure) {
  Encoder e;
  e.u8(5).u64(1000).u8(1);  // transfer then abort
  const TxResult res = run_to_result(make_tx(e.take()));
  EXPECT_FALSE(res.success);
  EXPECT_EQ(chain_.balance(prog().sink), 0u);
}

TEST_F(ChainTest, AccountSizeCapEnforced) {
  Encoder ok;
  ok.u8(4).u64(kMaxAccountSize);
  EXPECT_TRUE(run_to_result(make_tx(ok.take())).success);
  Encoder big;
  big.u8(4).u64(kMaxAccountSize + 1);
  const TxResult res = run_to_result(make_tx(big.take()));
  EXPECT_FALSE(res.success);
  EXPECT_NE(res.error.find("account size"), std::string::npos);
}

TEST_F(ChainTest, SigVerifyPrecompileAcceptsValid) {
  const PrivateKey signer = PrivateKey::from_label("sig-signer");
  // Pre-compile messages are 32-byte digests (SigVerify::message).
  const Hash32 msg = crypto::Sha256::digest(bytes_of("block 7"));
  Transaction tx = make_tx([] {
    Encoder e;
    e.u8(6);
    return e.take();
  }());
  tx.sig_verifies.push_back(
      SigVerify{signer.public_key(), msg, signer.sign(msg.view())});
  const TxResult res = run_to_result(std::move(tx));
  EXPECT_TRUE(res.success) << res.error;
  EXPECT_EQ(prog().sigs_seen, 1u);
  // Base fee covers the tx signature plus one pre-compile signature.
  EXPECT_EQ(res.fee.base_lamports, 2 * kLamportsPerSignature);
}

TEST_F(ChainTest, SigVerifyPrecompileRejectsInvalid) {
  const PrivateKey signer = PrivateKey::from_label("sig-signer");
  const Hash32 msg = crypto::Sha256::digest(bytes_of("block 7"));
  crypto::Signature bad = signer.sign(msg.view());
  auto raw = bad.raw();
  raw[0] ^= 1;
  Transaction tx = make_tx([] {
    Encoder e;
    e.u8(6);
    return e.take();
  }());
  tx.sig_verifies.push_back(
      SigVerify{signer.public_key(), msg, crypto::Signature(raw)});
  const TxResult res = run_to_result(std::move(tx));
  EXPECT_FALSE(res.success);
  EXPECT_EQ(prog().sigs_seen, 0u);
}

TEST_F(ChainTest, PayerStatsAccumulate) {
  (void)run_to_result(make_tx(op_bump()));
  (void)run_to_result(make_tx(op_bump()));
  const auto& st = chain_.payer_stats(payer_);
  EXPECT_EQ(st.tx_count, 2u);
  EXPECT_EQ(st.sig_count, 2u);
  EXPECT_EQ(st.fees_lamports, 2 * kLamportsPerSignature);
}

TEST(HostConstants, MaxAccountRentDepositIsThePapers) {
  // Paper §V-D: the rent-exempt deposit of a 10 MiB account is about
  // 14.6 k$ (storage_costs prints it from these two constants).
  EXPECT_NEAR(lamports_to_usd(kRentLamportsPerByte * kMaxAccountSize), 14600.0, 200.0);
}

TEST_F(ChainTest, UnknownProgramFailsTx) {
  Transaction tx;
  tx.payer = payer_;
  tx.instructions.push_back(Instruction{"nope", op_bump()});
  const TxResult res = run_to_result(std::move(tx));
  EXPECT_TRUE(res.executed);
  EXPECT_FALSE(res.success);
}

TEST(ChainInclusion, FullBlocksSpillToLaterSlots) {
  // More transactions than a block's compute budget admits must spread
  // across multiple slots instead of being dropped.
  sim::Simulation sim;
  ChainConfig cfg;
  cfg.p_include_base = 1.0;  // all eligible for the same slot
  Chain chain(sim, Rng(5), cfg);
  chain.register_program("test", std::make_unique<TestProgram>());
  const PublicKey payer = PrivateKey::from_label("p").public_key();
  chain.airdrop(payer, 1000 * kLamportsPerSol);
  chain.start();

  const int n = 100;  // > 48M / 1.4M = 34 per block
  std::vector<std::uint64_t> slots;
  for (int i = 0; i < n; ++i) {
    Transaction tx;
    tx.payer = payer;
    Encoder e;
    e.u8(0);
    tx.instructions.push_back(Instruction{"test", e.take()});
    chain.submit(std::move(tx), [&](const TxResult& r) {
      if (r.executed) slots.push_back(r.slot);
    });
  }
  sim.run_until(120.0);
  ASSERT_EQ(slots.size(), static_cast<std::size_t>(n));
  const auto [min_slot, max_slot] = std::minmax_element(slots.begin(), slots.end());
  EXPECT_GT(*max_slot, *min_slot);  // spilled across slots
  // Per-slot counts bounded by the block compute budget.
  std::map<std::uint64_t, int> per_slot;
  for (auto s : slots) ++per_slot[s];
  for (const auto& [slot, count] : per_slot)
    EXPECT_LE(count, static_cast<int>(kBlockComputeUnits / kMaxComputeUnits) + 1);
  EXPECT_EQ(chain.program_as<TestProgram>("test").counter, n);
}

TEST(ChainInclusion, NeverIncludedTxIsDropped) {
  sim::Simulation sim;
  ChainConfig cfg;
  cfg.p_include_base = 0.0;  // base-fee txs never picked up
  Chain chain(sim, Rng(9), cfg);
  chain.register_program("test", std::make_unique<TestProgram>());
  const PublicKey payer = PrivateKey::from_label("p").public_key();
  chain.airdrop(payer, kLamportsPerSol);
  chain.start();

  Transaction tx;
  tx.payer = payer;
  tx.instructions.push_back(Instruction{"test", op_bump()});
  TxResult out;
  bool got = false;
  chain.submit(std::move(tx), [&](const TxResult& r) {
    out = r;
    got = true;
  });
  sim.run_until(200.0);
  ASSERT_TRUE(got);
  EXPECT_FALSE(out.executed);
  EXPECT_NE(out.error.find("expired"), std::string::npos);
}

TEST(ChainInclusion, PriorityLandsFasterThanBaseOnAverage) {
  sim::Simulation sim;
  ChainConfig cfg;
  cfg.p_include_base = 0.25;
  cfg.p_include_priority = 0.95;
  Chain chain(sim, Rng(77), cfg);
  chain.register_program("test", std::make_unique<TestProgram>());
  const PublicKey payer = PrivateKey::from_label("p").public_key();
  chain.airdrop(payer, 100 * kLamportsPerSol);
  chain.start();

  double base_total = 0, prio_total = 0;
  int base_n = 0, prio_n = 0;
  for (int i = 0; i < 200; ++i) {
    const double submit_time = sim.now();
    Transaction tx;
    tx.payer = payer;
    tx.instructions.push_back(Instruction{"test", op_bump()});
    tx.fee = (i % 2 == 0) ? FeePolicy::base() : FeePolicy::priority(1000);
    const bool is_base = (i % 2 == 0);
    chain.submit(std::move(tx), [&, submit_time, is_base](const TxResult& r) {
      if (!r.executed) return;
      if (is_base) {
        base_total += r.time - submit_time;
        ++base_n;
      } else {
        prio_total += r.time - submit_time;
        ++prio_n;
      }
    });
    sim.run_until(sim.now() + 2.0);
  }
  sim.run_until(sim.now() + 120.0);
  ASSERT_GT(base_n, 50);
  ASSERT_GT(prio_n, 90);
  EXPECT_GT(base_total / base_n, prio_total / prio_n);
}

}  // namespace
}  // namespace bmg::host
