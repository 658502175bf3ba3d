#include "adversary/scenarios.hpp"

namespace bmg::adversary {

std::vector<ScenarioSpec> campaign_scenarios(double attack_start, double attack_end) {
  const double t0 = attack_start;
  const double t1 = attack_end;
  const double mid = t0 + 0.5 * (t1 - t0);
  std::vector<ScenarioSpec> all;
  const auto add = [&all](const char* name) -> host::FaultPlan& {
    return all.emplace_back(ScenarioSpec{name, {}}).plan;
  };

  // Baseline: the damage denominator every attacked cell is compared
  // against (same seed, no adversary).
  add("none");
  add("equivocate").equivocate(t0, t1, 2, 0.8);
  add("fork-sign").fork_sign(t0, t1, 2, 0.6);
  // 7 colluders out of the paper roster's 24×1000 stake: 7000 stake
  // against a quorum of 16001 — the just-below-quorum regime where the
  // light client must reject every forged push.
  add("collude-subquorum").collude(t0, t1, 7, 0.35);
  add("grief-clobber").update_clobber(t0, t1);
  add("grief-ack-withhold").ack_withhold(t0, t1, 240.0);
  // Stale replay needs delivered packets to replay, so it rides a
  // short-delay withhold window that makes the griefer a delivering
  // relayer.
  add("stale-replay").ack_withhold(t0, t1, 30.0).stale_replay(t0, t1, 0.2);
  add("fee-attack").fee_spam(t0, t1, 6.0, 0.6, 25.0);
  add("combined")
      .equivocate(t0, t1, 1, 0.5)
      .ack_withhold(t0, t1, 180.0)
      .fee_spam(t0, mid, 4.0, 0.75, 40.0);
  // Crash composition: equivocation happens in the first half of the
  // window while the fisherman is killed from t0 + 120 s to t0 + 420 s,
  // mid-prosecution; detection must survive restart via the on-chain
  // evidence re-derivation path.
  add("equivocate-fisherman-crash")
      .equivocate(t0, mid, 2, 1.0)
      .crash(t0 + 120.0, t0 + 420.0, "fisherman");
  return all;
}

std::vector<ScenarioSpec> reorg_scenarios(double start, double end) {
  std::vector<ScenarioSpec> all;
  // reorg(start, end, max depth, per-slot probability, per-tx survival)
  const auto add = [&](const char* name, std::uint64_t depth, double p, double survival) {
    all.emplace_back(ScenarioSpec{name, {}}).plan.reorg(start, end, depth, p, survival);
  };
  add("storm", 4, 0.08, 1.0);     // frequent shallow forks, no tx loss
  add("deep", 12, 0.01, 1.0);     // rare deep reorgs, no tx loss
  add("lossy", 4, 0.05, 0.85);    // shallow forks dropping ~15% of retracted txs
  add("storm90", 4, 0.08, 0.90);  // the storm dropping 10%: reorg-storm's
  return all;
}

const ScenarioSpec* find_scenario(const std::vector<ScenarioSpec>& all,
                                  const std::string& name) {
  for (const auto& s : all)
    if (s.name == name) return &s;
  return nullptr;
}

}  // namespace bmg::adversary
