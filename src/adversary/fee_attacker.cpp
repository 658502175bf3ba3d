#include "adversary/fee_attacker.hpp"

#include "guest/instructions.hpp"
#include "host/constants.hpp"

namespace bmg::adversary {

FeeAttackerAgent::FeeAttackerAgent(sim::Simulation& sim, host::Chain& host,
                                   crypto::PublicKey payer,
                                   const host::FaultPlan& plan,
                                   AdversaryCounters& counters)
    : CrashableAgent(sim, "fee-attacker"),
      host_(host),
      payer_(std::move(payer)),
      plan_(plan),
      counters_(counters) {}

void FeeAttackerAgent::start() { schedule_next(); }

void FeeAttackerAgent::schedule_next() {
  const double t = sim_.now();
  double delay;
  if (const host::FaultWindow* w = plan_.open_window(host::FaultKind::kFeeSpam, t)) {
    delay = w->interval;
  } else if (const auto next = plan_.next_window_start(host::FaultKind::kFeeSpam, t)) {
    delay = *next - t;
  } else {
    return;  // no further fee-spam windows: the agent goes quiet
  }
  sim_.after_cancellable(
      delay,
      [this] {
        if (!running()) return;
        tick();
        schedule_next();
      },
      timer_owner());
}

void FeeAttackerAgent::tick() {
  const host::FaultWindow* w = plan_.open_window(host::FaultKind::kFeeSpam, sim_.now());
  if (w == nullptr) return;
  // A bundle-tipped no-op burns top-of-block priority the honest
  // pipelines would otherwise win cheaply.  The instruction fails on
  // execution (nothing staked to withdraw) — attacker spend with no
  // state effect, sized by the window's fee multiplier.
  host::Transaction tx;
  tx.payer = payer_;
  tx.label = "fee-attacker:spam";
  tx.fee = host::FeePolicy::bundle(
      host::usd_to_lamports(0.005 * w->severity));
  tx.instructions.push_back(guest::ix::withdraw_stake());
  host_.submit(std::move(tx));
  ++counters_.spam_txs;
}

}  // namespace bmg::adversary
