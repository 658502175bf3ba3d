// Fork/reorg machinery unit tests: arming rules, rollback to the
// rolling rooted checkpoint with journal-verified replay, the linear
// replay bound of long storms, depth clamping against the rooted slot,
// rooted delivery, rooted waits and the survival draw.  A depth-0
// window or an untouched plan must leave the chain byte-identical to
// the linear seed behaviour.
#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "common/codec.hpp"
#include "crypto/sha256.hpp"
#include "host/chain.hpp"
#include "host/constants.hpp"

namespace bmg::host {
namespace {

using crypto::PrivateKey;
using crypto::PublicKey;

/// Rollback-capable counter program: op 0 bumps the counter, folds the
/// bump's slot into an order-sensitive hash chain and emits a "bump"
/// event; op 1 burns CU.  The checkpoint holds the counter and the hash
/// chain; `executions` counts every execute() call, live or replayed,
/// and survives rollbacks on purpose.
class ForkProgram : public Program {
 public:
  void execute(TxContext& ctx, ByteView data) override {
    ++executions;
    Decoder d(data);
    switch (d.u8()) {
      case 0: {
        ++counter;
        Encoder link;
        link.raw(chain.view());
        link.u64(ctx.slot());
        chain = crypto::Sha256::digest(link.out());
        ctx.emit_event("bump", bytes_of("x"));
        break;
      }
      case 1:
        ctx.consume_cu(d.u64());
        break;
      default:
        throw TxError("bad op");
    }
  }
  [[nodiscard]] bool fork_supported() const override { return true; }
  void fork_checkpoint() override { saved_ = {counter, chain}; }
  void fork_rollback() override { std::tie(counter, chain) = saved_; }

  int counter = 0;
  Hash32 chain{};
  std::uint64_t executions = 0;

 private:
  std::pair<int, Hash32> saved_;
};

/// Linear-only program, for the arming guard test.
class LinearProgram : public Program {
 public:
  void execute(TxContext&, ByteView) override {}
};

Bytes op_bump() {
  Encoder e;
  e.u8(0);
  return e.take();
}

struct Harness {
  explicit Harness(ChainConfig cfg = {}, std::uint64_t rng_seed = 1234)
      : chain(sim, Rng(rng_seed), cfg) {
    chain.register_program("fork", std::make_unique<ForkProgram>());
    chain.airdrop(payer, 100 * kLamportsPerSol);
  }

  void submit_bump(const std::string& label = {}) {
    Transaction tx;
    tx.payer = payer;
    tx.label = label;
    tx.instructions.push_back(Instruction{"fork", op_bump()});
    tx.fee = FeePolicy::bundle(usd_to_lamports(3.0));  // near-certain inclusion
    chain.submit(std::move(tx), [this](const TxResult& r) { results.push_back(r); });
  }

  ForkProgram& prog() { return chain.program_as<ForkProgram>("fork"); }

  sim::Simulation sim;
  Chain chain;
  PublicKey payer = PrivateKey::from_label("fork-payer").public_key();
  std::vector<TxResult> results;
};

ChainConfig armed_config(std::uint64_t rooted_lag = 8) {
  ChainConfig cfg;
  cfg.fork_aware = true;
  cfg.rooted_lag_slots = rooted_lag;
  return cfg;
}

TEST(Reorg, StartThrowsWhenProgramCannotFork) {
  sim::Simulation sim;
  Chain chain(sim, Rng(1), armed_config());
  chain.register_program("linear", std::make_unique<LinearProgram>());
  EXPECT_THROW(chain.start(), std::runtime_error);
}

TEST(Reorg, UnarmedChainDeliversEveryCommitmentInline) {
  Harness h;
  std::vector<Event> processed, rooted;
  h.chain.subscribe("fork", [&](const Event& ev) { processed.push_back(ev); });
  h.chain.subscribe_rooted("fork", [&](const Event& ev) { rooted.push_back(ev); });
  h.chain.start();
  h.submit_bump();
  h.sim.run_until(30.0);

  ASSERT_EQ(h.results.size(), 1u);
  EXPECT_TRUE(h.results[0].success);
  // Linear chains are final at execution: both subscribers saw the
  // event at the same instant and nothing was deferred.
  ASSERT_EQ(processed.size(), 1u);
  ASSERT_EQ(rooted.size(), 1u);
  EXPECT_EQ(processed[0].slot, rooted[0].slot);

  // when_rooted fires inline and reports the sentinel id.
  bool fired = false;
  EXPECT_EQ(h.chain.when_rooted(h.chain.slot(), [&] { fired = true; }), 0u);
  EXPECT_TRUE(fired);
  EXPECT_FALSE(h.chain.fork_mode());
}

TEST(Reorg, DepthZeroWindowIsByteIdenticalToSeed) {
  // A scripted reorg window with max_depth == 0 must not arm the fork
  // machinery, perturb any RNG stream, or change a single observable.
  const auto run_trace = [](bool with_window) {
    ChainConfig cfg;
    if (with_window) cfg.fault.reorg(0.0, 1e9, /*max_depth=*/0, /*probability=*/1.0);
    Harness h(cfg);
    EXPECT_FALSE(h.chain.fork_mode());
    h.chain.start();
    EXPECT_FALSE(h.chain.fork_mode());
    for (int i = 0; i < 5; ++i) {
      h.submit_bump();
      h.sim.run_until(h.sim.now() + 2.0);
    }
    h.sim.run_until(h.sim.now() + 30.0);
    std::vector<std::tuple<std::uint64_t, double, bool>> trace;
    for (const auto& r : h.results) trace.emplace_back(r.slot, r.time, r.success);
    return std::make_tuple(trace, h.chain.balance(h.payer), h.prog().counter,
                           h.sim.events_processed(),
                           h.chain.fault_counters().reorgs_triggered);
  };
  EXPECT_EQ(run_trace(false), run_trace(true));
}

TEST(Reorg, StormRollsBackAndReplaysToConvergence) {
  Harness h(armed_config(/*rooted_lag=*/8));
  h.chain.start();
  // Forks every slot for 40 s, full survival: every retracted tx is
  // re-executed on the winning fork.
  h.chain.fault_plan().reorg(2.0, 42.0, /*max_depth=*/4, /*probability=*/1.0);

  const int n = 10;
  for (int i = 0; i < n; ++i) {
    h.submit_bump();
    h.sim.run_until(h.sim.now() + 3.0);
  }
  h.sim.run_until(h.sim.now() + 60.0);

  const FaultCounters& fc = h.chain.fault_counters();
  ASSERT_GT(fc.reorgs_triggered, 0u);
  EXPECT_GT(fc.slots_rolled_back, 0u);
  EXPECT_GT(fc.txs_replayed, 0u);
  EXPECT_EQ(fc.txs_reorged_out, 0u);  // survival defaults to 1.0

  // Every transaction executed (possibly several times across forks),
  // yet the replayed program state holds exactly one logical bump per
  // transaction: rollback + checkpoint replay converged.
  EXPECT_EQ(h.prog().counter, n);
  // Epoch counter moved in lockstep with the reorgs.
  EXPECT_EQ(h.chain.fork_epoch(), fc.reorgs_triggered);
}

TEST(Reorg, LongStormReplaysOnlyTheUnrootedSuffix) {
  // One bump per slot for 1,200 slots under a storm that forks nearly
  // every slot.  A rollback restores the rooted checkpoint and replays
  // only the slots rooted since the previous reorg plus the unrooted
  // suffix, so every execution fits a bound linear in the run.  A
  // rollback that replays from genesis re-executes the whole journal on
  // every reorg and overshoots this bound by more than 10x.
  constexpr std::uint64_t kLag = 8;
  constexpr std::uint64_t kMaxDepth = 4;
  constexpr int kBumps = 1200;
  struct Outcome {
    Hash32 chain;
    int counter = 0;
    std::uint64_t executions = 0;
    std::uint64_t reorgs = 0;
    std::uint64_t slots = 0;
  };
  const auto run = [&](bool storm) {
    ChainConfig cfg = armed_config(kLag);
    cfg.p_include_bundle = 1.0;  // each bump lands in the next slot
    Harness h(cfg);
    h.chain.start();
    if (storm)
      h.chain.fault_plan().reorg(1.0, kBumps * kSlotSeconds, kMaxDepth,
                                 /*probability=*/0.9, /*survival=*/1.0);
    for (int i = 0; i < kBumps; ++i) {
      h.submit_bump();
      h.sim.run_until(h.sim.now() + kSlotSeconds);
    }
    h.sim.run_until(h.sim.now() + 10.0);
    return Outcome{h.prog().chain, h.prog().counter, h.prog().executions,
                   h.chain.fault_counters().reorgs_triggered, h.chain.slot()};
  };
  const Outcome calm = run(false);
  const Outcome storm = run(true);

  ASSERT_EQ(calm.counter, kBumps);
  ASSERT_EQ(calm.reorgs, 0u);
  EXPECT_EQ(calm.executions, static_cast<std::uint64_t>(kBumps));
  ASSERT_GT(storm.reorgs, static_cast<std::uint64_t>(kBumps) / 2);
  EXPECT_EQ(storm.counter, kBumps);
  EXPECT_EQ(storm.chain, calm.chain);

  // Per reorg: the slots rooted since the previous one (summing to at
  // most the run's slots), fewer than kLag unrooted slots, and at most
  // kMaxDepth re-executed on the winning fork — one bump each.
  const std::uint64_t bound =
      calm.executions + storm.reorgs * (kLag + kMaxDepth) + storm.slots;
  EXPECT_LE(storm.executions, bound)
      << "executions " << storm.executions << " vs linear bound " << bound << " ("
      << static_cast<double>(storm.executions) / static_cast<double>(bound) << "x)";
}

TEST(Reorg, DepthClampedByRootedSlot) {
  // Ask for absurd depths: every reorg must stay within the unrooted
  // suffix [rooted+1, tip-1], i.e. at most rooted_lag - 1 slots.
  const std::uint64_t lag = 6;
  Harness h(armed_config(lag));
  h.chain.start();
  h.chain.fault_plan().reorg(1.0, 60.0, /*max_depth=*/1000, /*probability=*/0.5);
  h.submit_bump();
  h.sim.run_until(90.0);

  const FaultCounters& fc = h.chain.fault_counters();
  ASSERT_GT(fc.reorgs_triggered, 0u);
  EXPECT_LE(fc.slots_rolled_back, fc.reorgs_triggered * (lag - 1));
  EXPECT_EQ(h.prog().counter, 1);
}

TEST(Reorg, RootedSubscriberNeverSeesRetractions) {
  Harness h(armed_config(/*rooted_lag=*/8));
  std::vector<Event> rooted_seen;
  h.chain.subscribe_rooted("fork", [&](const Event& ev) { rooted_seen.push_back(ev); });
  h.chain.start();
  h.chain.fault_plan().reorg(2.0, 42.0, /*max_depth=*/4, /*probability=*/1.0);

  const int n = 8;
  for (int i = 0; i < n; ++i) {
    h.submit_bump();
    h.sim.run_until(h.sim.now() + 3.0);
  }
  h.sim.run_until(h.sim.now() + 60.0);

  ASSERT_GT(h.chain.fault_counters().reorgs_triggered, 0u);
  // Rooted delivery trails every possible reorg: exactly one delivery
  // per event, in slot order.
  EXPECT_EQ(rooted_seen.size(), static_cast<std::size_t>(n));
  for (std::size_t i = 1; i < rooted_seen.size(); ++i)
    EXPECT_GE(rooted_seen[i].slot, rooted_seen[i - 1].slot);
}

TEST(Reorg, WhenRootedFiresAtLagAndCancelHolds) {
  const std::uint64_t lag = 8;
  Harness h(armed_config(lag));
  h.chain.start();
  h.submit_bump();
  h.sim.run_until(2.0);  // tip is now past slot 1

  const std::uint64_t target = h.chain.slot();
  std::uint64_t fired_at_slot = 0;
  const auto id = h.chain.when_rooted(target, [&] { fired_at_slot = h.chain.slot(); });
  EXPECT_NE(id, 0u);

  bool cancelled_fired = false;
  const auto cancel_id = h.chain.when_rooted(target, [&] { cancelled_fired = true; });
  h.chain.cancel_rooted(cancel_id);

  h.sim.run_until(h.sim.now() + 30.0);
  EXPECT_EQ(fired_at_slot, target + lag);  // first boundary that roots it
  EXPECT_FALSE(cancelled_fired);

  // Already-rooted slots fire inline even on an armed chain.
  bool inline_fired = false;
  EXPECT_EQ(h.chain.when_rooted(h.chain.rooted_slot(), [&] { inline_fired = true; }),
            0u);
  EXPECT_TRUE(inline_fired);
}

TEST(Reorg, SurvivalZeroKillsEveryRetractedTx) {
  Harness h(armed_config(/*rooted_lag=*/8));
  h.chain.start();
  h.chain.fault_plan().reorg(2.0, 30.0, /*max_depth=*/4, /*probability=*/1.0,
                             /*survival=*/0.0);
  const int n = 6;
  for (int i = 0; i < n; ++i) {
    h.submit_bump();
    h.sim.run_until(h.sim.now() + 3.0);
  }
  h.sim.run_until(h.sim.now() + 40.0);

  const FaultCounters& fc = h.chain.fault_counters();
  ASSERT_GT(fc.reorgs_triggered, 0u);
  ASSERT_GT(fc.txs_reorged_out, 0u);
  EXPECT_EQ(fc.txs_replayed, 0u);  // nothing survives a 0.0 draw

  // Each death re-notified its submitter exactly once with the flag
  // set, and the killed work is gone from program state.
  std::size_t deaths = 0;
  for (const auto& r : h.results) deaths += r.reorged_out ? 1 : 0;
  EXPECT_EQ(deaths, fc.txs_reorged_out);
  EXPECT_EQ(h.prog().counter,
            static_cast<int>(static_cast<std::uint64_t>(n) - fc.txs_reorged_out));
}

TEST(Reorg, SameSeedReproducesIdenticalStorm) {
  const auto run_once = [] {
    Harness h(armed_config(/*rooted_lag=*/8), /*rng_seed=*/777);
    h.chain.start();
    h.chain.fault_plan().reorg(2.0, 40.0, /*max_depth=*/3, /*probability=*/0.6,
                               /*survival=*/0.8);
    for (int i = 0; i < 8; ++i) {
      h.submit_bump();
      h.sim.run_until(h.sim.now() + 3.0);
    }
    h.sim.run_until(h.sim.now() + 40.0);
    const FaultCounters& fc = h.chain.fault_counters();
    return std::make_tuple(h.sim.events_processed(), h.prog().counter,
                           h.chain.balance(h.payer), fc.reorgs_triggered,
                           fc.slots_rolled_back, fc.txs_replayed, fc.txs_reorged_out,
                           h.chain.fork_epoch());
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace bmg::host
