// Slot production tests: an unarmed chain produces only the slots
// with work, yet every result and event lands at the slot and time, to
// the bit, where a chain producing every slot puts it.
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "crypto/sha256.hpp"
#include "host/chain.hpp"
#include "host/constants.hpp"

namespace bmg::host {
namespace {

using crypto::PrivateKey;
using crypto::PublicKey;

/// Fork-capable counter: every call emits a "tick" event, and a
/// payload of 1 is refused.
class SlotProgram : public Program {
 public:
  void execute(TxContext& ctx, ByteView data) override {
    if (!data.empty() && data[0] == 1) throw TxError("refused");
    save(ctx.undo(), counter_);
    ++counter_;
    ctx.emit_event("tick", bytes_of("x"));
  }
  [[nodiscard]] bool fork_supported() const override { return true; }

 private:
  int counter_ = 0;
};

/// One scripted run of a bare chain, hashed: every result (each
/// TxResult field, times as their bits) and every processed and rooted
/// event in arrival order, then every counter except the scheduler's
/// event count, and the slot the run ends on.  The script submits on
/// slot boundaries (built by the chain's own accumulation) and between
/// them, overfills a block, and leaves hour-long idle gaps.
std::string slot_transcript(ChainConfig cfg) {
  const double slot_s = cfg.slot_seconds;
  sim::Simulation sim;
  Chain chain(sim, Rng(2024), std::move(cfg));
  chain.register_program("slot", std::make_unique<SlotProgram>());
  const PublicKey payer = PrivateKey::from_label("slot-payer").public_key();
  chain.airdrop(payer, 1000 * kLamportsPerSol);

  Encoder out;
  const auto log_events = [&out](const char* tag) {
    return [&out, tag](const Event& ev) {
      out.str(tag).u64(ev.slot).u64(std::bit_cast<std::uint64_t>(ev.time)).str(ev.name);
    };
  };
  chain.subscribe("slot", log_events("processed"));
  chain.subscribe_rooted("slot", log_events("rooted"));
  chain.start();

  std::vector<double> boundary{0.0};
  while (boundary.size() <= 30'000) boundary.push_back(boundary.back() + slot_s);
  int submitted = 0;
  const auto submit_at = [&](double t, FeePolicy fee) {
    const int i = submitted++;
    sim.at(t, [&, i, fee] {
      Transaction tx;
      tx.payer = payer;
      tx.label = "tx:" + std::to_string(i);
      tx.fee = fee;
      tx.instructions.push_back(
          Instruction{"slot", Bytes{static_cast<std::uint8_t>(i % 7 == 3 ? 1 : 0)}});
      chain.submit(std::move(tx), [&out](const TxResult& r) {
        out.str(r.label).boolean(r.executed).boolean(r.success).boolean(r.reorged_out);
        out.u64(r.slot).u64(std::bit_cast<std::uint64_t>(r.time)).u64(r.cu_used);
        out.u64(r.fee.base_lamports).u64(r.fee.priority_lamports).u64(r.fee.tip_lamports);
        out.str(r.error);
      });
    });
  };
  for (const std::size_t k : {1, 2, 3, 45, 46, 47, 100})
    submit_at(boundary[k], FeePolicy::base());
  for (const std::size_t k : {5, 45, 99})
    submit_at(boundary[k] + 0.3 * slot_s, FeePolicy::priority(1'000'000));
  // 40 bundles at once: a block holds 34.
  for (int i = 0; i < 40; ++i) submit_at(boundary[150] + 0.05, FeePolicy::bundle(5'000));
  for (const double gap : {3600.0, 7200.0, 10'800.0}) {
    submit_at(boundary[200] + gap, FeePolicy::base());
    submit_at(boundary[200] + gap, FeePolicy::priority(1'000'000));
  }
  sim.run_until(boundary[30'000]);

  const FaultCounters& fc = chain.fault_counters();
  for (const std::uint64_t v :
       {chain.executed_count(), chain.failed_count(), chain.dropped_count(),
        chain.balance(payer), chain.payer_stats(payer).fees_lamports,
        chain.payer_stats(payer).tx_count, fc.congestion_delayed, fc.outage_deferred,
        fc.outage_expired, fc.blackholed, fc.duplicated, fc.fee_spiked,
        fc.reorgs_triggered, fc.slots_rolled_back, fc.txs_replayed, fc.txs_reorged_out,
        chain.fork_epoch(), chain.slot()})
    out.u64(v);
  return crypto::Sha256::digest(out.out()).hex().substr(0, 16);
}

TEST(HostSlots, TranscriptMatchesPerSlotChain) {
  // The constants were computed on the chain that produced every slot.
  EXPECT_EQ(slot_transcript({}), "bbd37e95cc3d3ac0");

  ChainConfig faults;
  faults.fault.duplicate(0.0, 20'000.0, 0.3).outage(3670.0, 3760.0);
  EXPECT_EQ(slot_transcript(faults), "7f9b550dfa544c33");

  ChainConfig forks;
  forks.fork_aware = true;
  forks.fault.reorg(30.0, 12'000.0, /*max_depth=*/4, /*probability=*/0.05,
                    /*survival=*/0.8);
  EXPECT_EQ(slot_transcript(forks), "caeaf29e2cf245a4");
}

TEST(HostSlots, IdleChainProcessesNoEvents) {
  sim::Simulation sim;
  Chain chain(sim, Rng(1));
  chain.start();
  sim.run_until(3600.0);
  EXPECT_EQ(sim.events_processed(), 0u);
  std::uint64_t passed = 0;
  for (double t = kSlotSeconds; t <= 3600.0; t += kSlotSeconds) ++passed;
  EXPECT_EQ(chain.slot(), passed);
}

TEST(HostSlots, WakeProducesTheFirstSlotAtOrAfterItsTime) {
  sim::Simulation sim;
  Chain chain(sim, Rng(1));
  std::vector<double> ends;
  chain.on_slot_end([&] { ends.push_back(sim.now()); });
  chain.start();
  sim.run_until(10.0);
  const double next = chain.boundary_at_or_after(10.0);
  chain.wake_at(100.0);
  chain.wake_at(100.0);  // the same slot: produced once
  chain.wake_at(5.0);    // in the past: the next slot
  sim.run_until(200.0);
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_EQ(ends[0], next);
  EXPECT_GE(ends[1], 100.0);
  EXPECT_LT(ends[1], 100.0 + kSlotSeconds);
}

TEST(HostSlots, ArmedChainRunsItsHooksInsideEachSlot) {
  // An armed chain produces every slot, idle or not; its slot-end hooks
  // add no event of their own.
  sim::Simulation sim;
  ChainConfig cfg;
  cfg.fork_aware = true;
  Chain chain(sim, Rng(1), cfg);
  std::uint64_t ends = 0;
  chain.on_slot_end([&] { ++ends; });
  chain.start();
  sim.run_until(3600.0);
  ASSERT_GT(chain.slot(), 8'000u);
  EXPECT_EQ(ends, chain.slot());
  EXPECT_EQ(sim.events_processed(), chain.slot());
}

}  // namespace
}  // namespace bmg::host
