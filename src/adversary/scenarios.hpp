// The shipped scenarios: each one a named host::FaultPlan.
//
// Campaign scenarios hold one threat from the taxonomy (DESIGN §13)
// each, at sub-quorum stake, plus a combined scenario and a
// crash-composition scenario whose plan also kills the fisherman
// mid-prosecution.  Every shipped campaign scenario must satisfy the
// standing acceptance bar: the InvariantAuditor never trips, every
// offender is detected and slashed, and delivery reaches 100% within
// the liveness budget.  At-quorum collusion — where that bar provably
// CANNOT hold — lives only in tests (adversary_campaign_test.cpp),
// which document the safety-loss signature instead.
//
// Reorg scenarios are fork storms on a fork-aware host.  Their depths
// stay below the default rooted lag (32 slots), so every storm is
// resolvable.
#pragma once

#include <string>
#include <vector>

#include "host/fault.hpp"

namespace bmg::adversary {

struct ScenarioSpec {
  std::string name;
  host::FaultPlan plan;
};

/// The shipped campaign grid.  Attack windows span [attack_start,
/// attack_end); drivers leave room after attack_end for the system to
/// drain (detection, prosecution and delivery complete after the
/// attack stops).
[[nodiscard]] std::vector<ScenarioSpec> campaign_scenarios(double attack_start,
                                                           double attack_end);

/// The shipped fork storms over [start, end).
[[nodiscard]] std::vector<ScenarioSpec> reorg_scenarios(double start, double end);

/// Looks up a shipped scenario by name; null if unknown.
[[nodiscard]] const ScenarioSpec* find_scenario(const std::vector<ScenarioSpec>& all,
                                                const std::string& name);

}  // namespace bmg::adversary
