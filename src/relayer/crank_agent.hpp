// Block-production crank.
//
// GenerateBlock "can be invoked by anyone (e.g. whenever a host block
// is produced)" (paper §III-A).  This agent polls the contract state
// each host slot and submits a GenerateBlock transaction when the head
// is finalised and either there are pending state changes or the head
// aged past Δ.  The contract also accepts GenerateBlock once an epoch
// rotation is due, but the crank does not check for that: an epoch
// rotates only with the next block one of the two triggers produces.
#pragma once

#include <string>

#include "guest/contract.hpp"
#include "host/chain.hpp"
#include "sim/agent.hpp"
#include "sim/scheduler.hpp"

namespace bmg::relayer {

class CrankAgent final : public sim::CrashableAgent {
 public:
  CrankAgent(sim::Simulation& sim, host::Chain& host, guest::GuestContract& contract,
             crypto::PublicKey payer)
      : CrashableAgent(sim, "crank"),
        host_(host),
        contract_(contract),
        payer_(std::move(payer)) {}

  void start() { schedule_poll(); }

  [[nodiscard]] std::uint64_t blocks_triggered() const { return triggered_; }

 private:
  /// The crank is stateless beyond its poll loop: restart just starts
  /// polling again.  A pre-crash submission may still land, so the
  /// worst case is one duplicate GenerateBlock the contract rejects.
  void on_restart() override {
    in_flight_ = false;
    schedule_poll();
  }

  void schedule_poll() {
    sim_.after_cancellable(
        host::kSlotSeconds,
        [this] {
          poll();
          schedule_poll();
        },
        timer_owner());
  }

  void poll() {
    if (in_flight_) return;
    const auto& head = contract_.head();
    if (!head.finalised) return;
    const bool root_changed =
        head.header.state_root != contract_.store().root_hash();
    const bool aged = sim_.now() - head.header.timestamp >= contract_.delta_seconds();
    if (!root_changed && !aged) return;

    in_flight_ = true;
    host::Transaction tx;
    tx.payer = payer_;
    tx.label = "generate-block";
    tx.instructions.push_back(guest::ix::generate_block());
    const std::uint64_t life = crash_count();
    host_.submit(std::move(tx), [this, life](const host::TxResult& res) {
      if (life != crash_count()) return;  // process died meanwhile
      in_flight_ = false;
      if (res.executed && res.success) ++triggered_;
    });
  }

  host::Chain& host_;
  guest::GuestContract& contract_;
  crypto::PublicKey payer_;
  bool in_flight_ = false;
  std::uint64_t triggered_ = 0;
};

}  // namespace bmg::relayer
