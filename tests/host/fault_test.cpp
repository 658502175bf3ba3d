#include "host/fault.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "common/codec.hpp"
#include "crypto/sha256.hpp"
#include "host/chain.hpp"
#include "host/constants.hpp"

namespace bmg::host {
namespace {

using crypto::PrivateKey;
using crypto::PublicKey;

// --- FaultPlan query semantics (pure, no chain) ------------------------------

TEST(FaultPlan, EmptyPlanIsNeutral) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_DOUBLE_EQ(plan.congestion_multiplier(1.0, "x"), 1.0);
  EXPECT_FALSE(plan.in_outage(1.0));
  EXPECT_DOUBLE_EQ(plan.blackhole_probability(1.0, "x"), 0.0);
  EXPECT_DOUBLE_EQ(plan.duplicate_probability(1.0, "x"), 0.0);
  EXPECT_DOUBLE_EQ(plan.fee_multiplier(1.0), 1.0);
}

TEST(FaultPlan, WindowsAreHalfOpen) {
  FaultPlan plan;
  plan.outage(2.0, 5.0);
  EXPECT_FALSE(plan.in_outage(1.999));
  EXPECT_TRUE(plan.in_outage(2.0));
  EXPECT_TRUE(plan.in_outage(4.999));
  EXPECT_FALSE(plan.in_outage(5.0));
}

TEST(FaultPlan, CongestionSeveritiesMultiply) {
  FaultPlan plan;
  plan.congestion(0.0, 10.0, 0.5).congestion(5.0, 20.0, 0.4);
  EXPECT_DOUBLE_EQ(plan.congestion_multiplier(1.0, ""), 0.5);
  EXPECT_DOUBLE_EQ(plan.congestion_multiplier(7.0, ""), 0.2);
  EXPECT_DOUBLE_EQ(plan.congestion_multiplier(15.0, ""), 0.4);
  EXPECT_DOUBLE_EQ(plan.congestion_multiplier(25.0, ""), 1.0);
}

TEST(FaultPlan, BlackholeProbabilitiesCombineIndependently) {
  FaultPlan plan;
  plan.blackhole(0.0, 10.0, 0.5).blackhole(0.0, 10.0, 0.5);
  // 1 - (1 - 0.5)(1 - 0.5) = 0.75
  EXPECT_DOUBLE_EQ(plan.blackhole_probability(3.0, ""), 0.75);
}

TEST(FaultPlan, LabelPrefixFilters) {
  FaultPlan plan;
  plan.blackhole(0.0, 10.0, 1.0, "relay");
  EXPECT_DOUBLE_EQ(plan.blackhole_probability(1.0, "relay:update"), 1.0);
  EXPECT_DOUBLE_EQ(plan.blackhole_probability(1.0, "relay"), 1.0);
  EXPECT_DOUBLE_EQ(plan.blackhole_probability(1.0, "fisherman"), 0.0);
  EXPECT_DOUBLE_EQ(plan.blackhole_probability(1.0, ""), 0.0);
}

// --- crash windows (agent-level, never chain-level) --------------------------

TEST(FaultPlan, CrashWindowsAreNotChainFaults) {
  FaultPlan plan;
  plan.crash(10.0, 20.0, "relayer");
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.size(), 1u);
  EXPECT_FALSE(plan.has_chain_faults());
  ASSERT_EQ(plan.crash_windows().size(), 1u);
  EXPECT_EQ(plan.crash_windows()[0].label_prefix, "relayer");
  // Chain-level queries ignore crash windows entirely.
  EXPECT_DOUBLE_EQ(plan.congestion_multiplier(15.0, "relayer"), 1.0);
  EXPECT_FALSE(plan.in_outage(15.0));
  EXPECT_DOUBLE_EQ(plan.blackhole_probability(15.0, "relayer"), 0.0);
  EXPECT_DOUBLE_EQ(plan.duplicate_probability(15.0, "relayer"), 0.0);
  EXPECT_DOUBLE_EQ(plan.fee_multiplier(15.0), 1.0);
}

TEST(FaultPlan, MixedPlanSeparatesCrashFromChainWindows) {
  FaultPlan plan;
  plan.crash(0.0, 5.0).congestion(0.0, 10.0, 0.5).crash(20.0, 30.0, "crank");
  EXPECT_TRUE(plan.has_chain_faults());
  EXPECT_EQ(plan.size(), 3u);
  ASSERT_EQ(plan.crash_windows().size(), 2u);
  EXPECT_EQ(plan.crash_windows()[1].label_prefix, "crank");
  plan.clear();
  EXPECT_TRUE(plan.empty());
  EXPECT_FALSE(plan.has_chain_faults());
}

// --- participant windows (read by adversary agents, never by the chain) -------

TEST(FaultPlan, ParticipantWindowsAreNotChainFaults) {
  FaultPlan plan;
  plan.equivocate(0.0, 10.0, 2)
      .fork_sign(0.0, 10.0, 1)
      .collude(0.0, 10.0, 3)
      .update_clobber(0.0, 10.0)
      .ack_withhold(0.0, 10.0, 60.0)
      .stale_replay(0.0, 10.0, 0.5)
      .crash(0.0, 10.0, "fisherman");
  EXPECT_EQ(plan.size(), 7u);
  EXPECT_FALSE(plan.has_chain_faults());
  EXPECT_FALSE(plan.has_reorg_windows());
  // Chain-level queries ignore them entirely.
  EXPECT_DOUBLE_EQ(plan.congestion_multiplier(5.0, ""), 1.0);
  EXPECT_DOUBLE_EQ(plan.blackhole_probability(5.0, ""), 0.0);
  EXPECT_DOUBLE_EQ(plan.fee_multiplier(5.0), 1.0);
  EXPECT_DOUBLE_EQ(plan.reorg_probability(5.0), 0.0);
}

TEST(FaultPlan, FeeSpamCongestsOnlyBelowFullInclusion) {
  FaultPlan plan;
  plan.fee_spam(0.0, 10.0, 3.0, 1.0, 5.0);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan.windows()[0].kind, FaultKind::kFeeSpam);
  EXPECT_EQ(plan.windows()[1].kind, FaultKind::kFeeSpike);
  EXPECT_TRUE(plan.has_chain_faults());
  EXPECT_DOUBLE_EQ(plan.fee_multiplier(5.0), 3.0);
  EXPECT_DOUBLE_EQ(plan.congestion_multiplier(5.0, ""), 1.0);

  plan.fee_spam(5.0, 15.0, 2.0, 0.5, 5.0);
  ASSERT_EQ(plan.size(), 5u);
  EXPECT_EQ(plan.windows()[2].kind, FaultKind::kFeeSpam);
  EXPECT_EQ(plan.windows()[3].kind, FaultKind::kFeeSpike);
  EXPECT_EQ(plan.windows()[4].kind, FaultKind::kCongestion);
  EXPECT_DOUBLE_EQ(plan.fee_multiplier(7.0), 6.0);  // overlapping spikes multiply
  EXPECT_DOUBLE_EQ(plan.congestion_multiplier(7.0, ""), 0.5);
  EXPECT_DOUBLE_EQ(plan.congestion_multiplier(15.0, ""), 1.0);
  // The first open spam window answers the agent's query.
  ASSERT_NE(plan.open_window(FaultKind::kFeeSpam, 7.0), nullptr);
  EXPECT_DOUBLE_EQ(plan.open_window(FaultKind::kFeeSpam, 7.0)->severity, 3.0);
  EXPECT_DOUBLE_EQ(plan.open_window(FaultKind::kFeeSpam, 12.0)->severity, 2.0);
}

// --- Chain behaviour under faults --------------------------------------------

class CounterProgram : public Program {
 public:
  void execute(TxContext&, ByteView) override { ++count; }
  int count = 0;
};

class FaultChainTest : public ::testing::Test {
 protected:
  void make_chain(FaultPlan plan) {
    ChainConfig cfg;
    cfg.fault = std::move(plan);
    chain_ = std::make_unique<Chain>(sim_, Rng(1234), cfg);
    chain_->register_program("test", std::make_unique<CounterProgram>());
    chain_->airdrop(payer_, 100 * kLamportsPerSol);
    chain_->start();
  }

  Transaction make_tx(std::string label, FeePolicy fee = FeePolicy::base()) {
    Transaction tx;
    tx.payer = payer_;
    tx.label = std::move(label);
    tx.instructions.push_back(Instruction{"test", Bytes{}});
    tx.fee = fee;
    return tx;
  }

  sim::Simulation sim_;
  std::unique_ptr<Chain> chain_;
  PublicKey payer_ = PrivateKey::from_label("payer").public_key();
};

TEST_F(FaultChainTest, BlackholeSwallowsResultHandler) {
  FaultPlan plan;
  plan.blackhole(0.0, 10.0, 1.0);
  make_chain(std::move(plan));
  bool fired = false;
  chain_->submit(make_tx("doomed"), [&](const TxResult&) { fired = true; });
  sim_.run_until(300.0);
  EXPECT_FALSE(fired);
  EXPECT_EQ(chain_->fault_counters().blackholed, 1u);
  EXPECT_EQ(chain_->executed_count(), 0u);
}

TEST_F(FaultChainTest, BlackholeRespectsLabelFilter) {
  FaultPlan plan;
  plan.blackhole(0.0, 10.0, 1.0, "relay");
  make_chain(std::move(plan));
  bool relay_fired = false, other_fired = false;
  chain_->submit(make_tx("relay:update"), [&](const TxResult&) { relay_fired = true; });
  chain_->submit(make_tx("fisherman"), [&](const TxResult& r) {
    other_fired = true;
    EXPECT_TRUE(r.executed);
  });
  sim_.run_until(300.0);
  EXPECT_FALSE(relay_fired);
  EXPECT_TRUE(other_fired);
}

TEST_F(FaultChainTest, OutageDefersInclusionUntilWindowEnds) {
  FaultPlan plan;
  plan.outage(0.0, 20.0);
  make_chain(std::move(plan));
  TxResult res;
  bool fired = false;
  chain_->submit(make_tx("patient", FeePolicy::bundle(10'000)), [&](const TxResult& r) {
    res = r;
    fired = true;
  });
  sim_.run_until(300.0);
  ASSERT_TRUE(fired);
  EXPECT_TRUE(res.executed);
  EXPECT_GE(res.time, 20.0);  // nothing lands inside the outage
  EXPECT_GT(chain_->fault_counters().outage_deferred, 0u);
}

TEST_F(FaultChainTest, OutageLongerThanExpiryDropsTx) {
  FaultPlan plan;
  // kTxExpirySlots * kSlotSeconds ~ 60s; a 90s outage outlives it.
  plan.outage(0.0, 90.0);
  make_chain(std::move(plan));
  TxResult res;
  bool fired = false;
  chain_->submit(make_tx("expired", FeePolicy::bundle(10'000)), [&](const TxResult& r) {
    res = r;
    fired = true;
  });
  sim_.run_until(300.0);
  ASSERT_TRUE(fired);
  EXPECT_FALSE(res.executed);  // dropped, not executed
  EXPECT_GT(chain_->fault_counters().outage_expired, 0u);
}

TEST_F(FaultChainTest, TotalCongestionDropsBaseFeeTx) {
  FaultPlan plan;
  plan.congestion(0.0, 300.0, 0.0);  // severity 0: inclusion impossible
  make_chain(std::move(plan));
  TxResult res;
  bool fired = false;
  chain_->submit(make_tx("squeezed"), [&](const TxResult& r) {
    res = r;
    fired = true;
  });
  sim_.run_until(300.0);
  ASSERT_TRUE(fired);
  EXPECT_FALSE(res.executed);
  EXPECT_GT(chain_->fault_counters().congestion_delayed, 0u);
}

TEST_F(FaultChainTest, DuplicateWindowReplaysExecution) {
  FaultPlan plan;
  plan.duplicate(0.0, 30.0, 1.0);
  make_chain(std::move(plan));
  int results = 0;
  chain_->submit(make_tx("replayed", FeePolicy::bundle(10'000)),
                 [&](const TxResult&) { ++results; });
  sim_.run_until(300.0);
  EXPECT_EQ(results, 1);  // submitter hears exactly one result
  EXPECT_EQ(chain_->fault_counters().duplicated, 1u);
  // ...but the program ran twice (ghost replay).
  EXPECT_EQ(chain_->program_as<CounterProgram>("test").count, 2);
}

TEST_F(FaultChainTest, FeeSpikeInflatesMarketComponents) {
  FaultPlan plan;
  plan.fee_spike(0.0, 300.0, 10.0);
  make_chain(std::move(plan));
  TxResult res;
  bool fired = false;
  chain_->submit(make_tx("gouged", FeePolicy::bundle(10'000)), [&](const TxResult& r) {
    res = r;
    fired = true;
  });
  sim_.run_until(300.0);
  ASSERT_TRUE(fired);
  ASSERT_TRUE(res.executed);
  EXPECT_EQ(res.fee.tip_lamports, 100'000u);  // 10'000 * 10
  EXPECT_EQ(chain_->fault_counters().fee_spiked, 1u);
}

TEST_F(FaultChainTest, SameSeedReproducesIdenticalTrace) {
  const auto run_once = [] {
    sim::Simulation sim;
    ChainConfig cfg;
    cfg.fault.congestion(0.0, 60.0, 0.3).blackhole(10.0, 30.0, 0.5).outage(40.0, 50.0);
    Chain chain(sim, Rng(99), cfg);
    chain.register_program("test", std::make_unique<CounterProgram>());
    const PublicKey payer = PrivateKey::from_label("payer").public_key();
    chain.airdrop(payer, 100 * kLamportsPerSol);
    chain.start();
    std::vector<double> times;
    for (int i = 0; i < 20; ++i) {
      sim.after(i * 3.0, [&, i] {
        Transaction tx;
        tx.payer = payer;
        tx.label = "t" + std::to_string(i);
        tx.instructions.push_back(Instruction{"test", Bytes{}});
        chain.submit(std::move(tx), [&](const TxResult& r) { times.push_back(r.time); });
      });
    }
    sim.run_until(400.0);
    return std::make_pair(times, sim.events_processed());
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST_F(FaultChainTest, CrashOnlyPlanLeavesChainByteIdentical) {
  // A plan holding nothing but crash windows must not flip the chain
  // into its fault path (which draws from the fault RNG and would
  // perturb every subsequent timing decision).
  const auto run_once = [](bool with_crash_windows) {
    sim::Simulation sim;
    ChainConfig cfg;
    if (with_crash_windows)
      cfg.fault.crash(5.0, 15.0, "relayer").crash(20.0, 25.0);
    Chain chain(sim, Rng(99), cfg);
    chain.register_program("test", std::make_unique<CounterProgram>());
    const PublicKey payer = PrivateKey::from_label("payer").public_key();
    chain.airdrop(payer, 100 * kLamportsPerSol);
    chain.start();
    std::vector<double> times;
    for (int i = 0; i < 20; ++i) {
      sim.after(i * 3.0, [&, i] {
        Transaction tx;
        tx.payer = payer;
        tx.label = "t" + std::to_string(i);
        tx.instructions.push_back(Instruction{"test", Bytes{}});
        chain.submit(std::move(tx), [&](const TxResult& r) { times.push_back(r.time); });
      });
    }
    sim.run_until(400.0);
    return std::make_pair(times, sim.events_processed());
  };
  const auto with = run_once(true);
  const auto without = run_once(false);
  EXPECT_EQ(with.first, without.first);
  EXPECT_EQ(with.second, without.second);
}

// --- Pinned host transcript --------------------------------------------------

/// Refuses an instruction whose first byte is 1, accepts any other.
class RefusingProgram : public Program {
 public:
  void execute(TxContext&, ByteView data) override {
    if (!data.empty() && data[0] == 1) throw TxError("refused");
  }
};

struct Transcript {
  std::string digest;  ///< first 16 hex digits of the SHA-256
  FaultCounters counters;
  std::uint64_t events = 0;  ///< scheduler events, pinned apart from the digest
};

/// 300 submissions under `cfg` — mixed fees and labels, a burst of 40
/// bundles at 140 s that overfills a block, every 37th transaction
/// oversize and every 11th refused by the program — hashed with every
/// result in arrival order (label, executed, success, slot, time, fee,
/// error), the executed/failed/dropped counts and every fault counter.
/// The scheduler's event count is returned beside the digest: it
/// measures how the chain is driven, not what it does.  `appended_at_100s` joins the plan mid-run,
/// so transactions already waiting meet it in their slot.
Transcript host_transcript(ChainConfig cfg, const FaultPlan& appended_at_100s = {}) {
  sim::Simulation sim;
  Chain chain(sim, Rng(4242), std::move(cfg));
  chain.register_program("test", std::make_unique<RefusingProgram>());
  const PublicKey payer = PrivateKey::from_label("payer").public_key();
  chain.airdrop(payer, 100 * kLamportsPerSol);
  chain.start();
  if (!appended_at_100s.empty())
    sim.at(100.0, [&] { chain.fault_plan().append(appended_at_100s); });

  Encoder out;
  for (int i = 0; i < 300; ++i) {
    const bool burst = i >= 200 && i < 240;
    sim.at(burst ? 140.0 : 0.7 * i, [&, i, burst] {
      Transaction tx;
      tx.payer = payer;
      tx.label = (i % 3 == 0 ? "relay:" : "client:") + std::to_string(i);
      Bytes data{static_cast<std::uint8_t>(i % 11 == 3 ? 1 : 0)};
      if (i % 37 == 5) data.resize(kMaxTransactionSize);
      tx.instructions.push_back(Instruction{"test", std::move(data)});
      tx.fee = burst || i % 4 == 3 ? FeePolicy::bundle(5'000)
               : i % 4 == 2        ? FeePolicy::priority(2'000'000)
                                   : FeePolicy::base();
      chain.submit(std::move(tx), [&](const TxResult& r) {
        out.str(r.label).boolean(r.executed).boolean(r.success).u64(r.slot);
        out.u64(std::bit_cast<std::uint64_t>(r.time));
        out.u64(r.fee.base_lamports).u64(r.fee.priority_lamports).u64(r.fee.tip_lamports);
        out.str(r.error);
      });
    });
  }
  sim.run_until(400.0);

  const FaultCounters& fc = chain.fault_counters();
  for (const std::uint64_t v :
       {chain.executed_count(), chain.failed_count(), chain.dropped_count(),
        fc.congestion_delayed, fc.outage_deferred,
        fc.outage_expired, fc.blackholed, fc.duplicated, fc.fee_spiked,
        fc.reorgs_triggered, fc.slots_rolled_back, fc.txs_replayed, fc.txs_reorged_out})
    out.u64(v);
  return {crypto::Sha256::digest(out.out()).hex().substr(0, 16), fc, sim.events_processed()};
}

TEST_F(FaultChainTest, TranscriptIsPinned) {
  // The fault tests above check each kind's effect; this pins the exact
  // draws of both RNG streams: which slot every transaction lands in,
  // which expire, and which are blackholed or replayed.
  ChainConfig fault_free;
  fault_free.p_include_base = 0.02;  // a few base-fee transactions expire
  const Transcript f = host_transcript(fault_free);
  EXPECT_EQ(f.digest, "e7d06a5476b853f7");
  EXPECT_EQ(f.events, 694u);

  ChainConfig mixed;
  mixed.fault.congestion(0.0, 120.0, 0.25, "relay")
      .congestion(150.0, 175.0, 0.0)
      .blackhole(20.0, 100.0, 0.15)
      .outage(60.0, 150.0)
      .duplicate(0.0, 250.0, 0.1)
      .fee_spike(100.0, 250.0, 3.0);
  const Transcript m = host_transcript(mixed);
  EXPECT_EQ(m.digest, "afd208751df5dc1e");
  EXPECT_EQ(m.events, 577u);
  EXPECT_GT(m.counters.congestion_delayed, 0u);
  EXPECT_GT(m.counters.outage_deferred, 0u);
  EXPECT_GT(m.counters.outage_expired, 0u);
  EXPECT_GT(m.counters.blackholed, 0u);
  EXPECT_GT(m.counters.duplicated, 0u);
  EXPECT_GT(m.counters.fee_spiked, 0u);

  // A 70 s outage scripted mid-run under congestion: transactions
  // already bound for its slots wait it out in the slot loop, and
  // those whose blockhash ages out meanwhile expire there.
  ChainConfig congested;
  congested.fault.congestion(0.0, 400.0, 0.5);
  FaultPlan outage;
  outage.outage(100.0, 170.0);
  const Transcript c = host_transcript(congested, outage);
  EXPECT_EQ(c.digest, "493b49432b553751");
  EXPECT_EQ(c.events, 765u);
  EXPECT_GT(c.counters.outage_deferred, 0u);
  EXPECT_GT(c.counters.outage_expired, 0u);
}

}  // namespace
}  // namespace bmg::host
