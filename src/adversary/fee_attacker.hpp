// Host fee-market attacker.
//
// Sustains priority-fee pressure on the host chain so every honest
// submitter's TxPipeline is forced up its escalation ladder
// (base → priority → bundle).  The market-wide effects — spiked fee
// floor, squeezed base-fee inclusion — are chain properties:
// host::FaultPlan::fee_spam writes them into the plan as fee-spike and
// congestion windows next to its kFeeSpam window.  This agent
// contributes the attacker's own side of the ledger: a stream of
// bundle-tipped spam transactions, one per kFeeSpam interval, whose
// fees are measurable via Chain::payer_stats, so the campaign can
// report attack cost against damage done.
#pragma once

#include "adversary/counters.hpp"
#include "host/chain.hpp"
#include "host/fault.hpp"
#include "sim/agent.hpp"
#include "sim/scheduler.hpp"

namespace bmg::adversary {

class FeeAttackerAgent final : public sim::CrashableAgent {
 public:
  FeeAttackerAgent(sim::Simulation& sim, host::Chain& host, crypto::PublicKey payer,
                   const host::FaultPlan& plan, AdversaryCounters& counters);

  void start();

  [[nodiscard]] const crypto::PublicKey& payer() const noexcept { return payer_; }

 private:
  void on_restart() override { schedule_next(); }
  void tick();
  void schedule_next();

  host::Chain& host_;
  crypto::PublicKey payer_;
  const host::FaultPlan& plan_;
  AdversaryCounters& counters_;
};

}  // namespace bmg::adversary
