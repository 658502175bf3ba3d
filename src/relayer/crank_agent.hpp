// Block-production crank.
//
// GenerateBlock "can be invoked by anyone (e.g. whenever a host block
// is produced)" (paper §III-A).  This agent checks the contract state
// at the end of every host slot the chain produces and submits a
// GenerateBlock transaction when the head is finalised and there are
// pending state changes, the head aged past Δ, or the epoch is due to
// rotate.  It keeps no timer: state changes only inside a produced
// slot, and for the three things that happen outside one — the head
// ageing, the epoch's end and a GenerateBlock that never executed — it
// asks the host to produce the slot where it must look again
// (DESIGN §10).
#pragma once

#include <algorithm>
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
        payer_(std::move(payer)) {
    // Before the host starts, so that its first slot carries the check.
    host_.on_slot_end([this] {
      if (started_ && running()) check();
    });
  }

  /// Checks at every slot the host produces from its next one on.
  void start() {
    started_ = true;
    host_.wake_at(sim_.now());
  }

  [[nodiscard]] std::uint64_t blocks_triggered() const { return triggered_; }

 private:
  /// The crank is stateless beyond its in-flight flag: a restarted
  /// process checks at the next slot boundary.  A pre-crash submission
  /// may still land, so the worst case is one duplicate GenerateBlock
  /// the contract rejects.
  void on_restart() override {
    in_flight_ = false;
    host_.wake_at(sim_.now());
  }

  void check() {
    if (in_flight_) return;
    const auto& head = contract_.head();
    if (!head.finalised) return;
    const bool root_changed =
        head.header.state_root != contract_.store().root_hash();
    const bool aged = sim_.now() - head.header.timestamp >= contract_.delta_seconds();
    const bool epoch_due = host_.slot() >= contract_.epoch_end_slot();
    if (!root_changed && !aged && !epoch_due) {
      wake_when_due(head.header.timestamp);
      return;
    }

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
      // An expiry is reported outside any slot: look at the next one.
      if (!res.executed) host_.wake_at(sim_.now());
    });
  }

  /// Wakes at the slot where the head ages past Δ, or at the epoch's
  /// end slot if that comes first.  In doubles, `now - ts >= Δ` can
  /// hold one slot before `now >= ts + Δ` does, so the crank wakes a
  /// slot early and then checks every slot until the head ages.  The
  /// early wake is asked for once per head: its slot stays pending
  /// until produced.  The epoch's end never wakes the crank later than
  /// that: an epoch can be 10^9 slots long, and a wake walks every
  /// boundary up to its time.
  void wake_when_due(double head_timestamp) {
    const double slot_s = host_.slot_seconds();
    const double aged = head_timestamp + contract_.delta_seconds() - slot_s;
    // Half a slot early: the slot times are accumulated sums.
    const double epoch_end =
        sim_.now() +
        (static_cast<double>(contract_.epoch_end_slot() - host_.slot()) - 0.5) * slot_s;
    const double due = std::min(aged, epoch_end);
    if (sim_.now() >= due) {
      host_.wake_at(sim_.now());
    } else if (due != due_wake_) {
      due_wake_ = due;
      host_.wake_at(due);
    }
  }

  host::Chain& host_;
  guest::GuestContract& contract_;
  crypto::PublicKey payer_;
  bool started_ = false;
  bool in_flight_ = false;
  double due_wake_ = -1;
  std::uint64_t triggered_ = 0;
};

}  // namespace bmg::relayer
