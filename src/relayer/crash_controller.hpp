// Executes FaultPlan crash windows against registered agents.
//
// The chain executes every other fault kind itself; kCrash windows
// target *processes*, so a separate controller owns them: at each
// window's start it kills every registered agent whose name matches
// the window's prefix, at its end it restarts them.  Kill and restart
// run as plain scheduler events, so a crash lands between — never
// inside — event handlers, exactly like a real SIGKILL between
// scheduler quanta of a single-threaded process.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "host/fault.hpp"
#include "sim/agent.hpp"
#include "sim/scheduler.hpp"

namespace bmg::relayer {

class CrashController {
 public:
  explicit CrashController(sim::Simulation& sim) : sim_(sim) {}

  /// Registers an agent as a crash target.  The agent must outlive the
  /// controller's scheduled events (in practice: the Deployment owns
  /// both and registers in start()).
  void add(sim::CrashableAgent& agent) { agents_.push_back(&agent); }

  /// Arms every kCrash window in `plan` not yet seen.  Cursor-based
  /// over the plan's window list, so tests can append windows after
  /// open_ibc() and call schedule() again without double-arming the
  /// earlier ones.  Windows whose start already passed are skipped
  /// (crashing retroactively is meaningless).  Returns windows armed.
  std::size_t schedule(const host::FaultPlan& plan);

  /// Total kill / restart actions actually applied to agents.
  [[nodiscard]] std::uint64_t crashes() const noexcept { return crashes_; }
  [[nodiscard]] std::uint64_t restarts() const noexcept { return restarts_; }

 private:
  void arm(const host::FaultWindow& w);
  [[nodiscard]] static bool matches(const std::string& prefix,
                                    const std::string& name) {
    return prefix.empty() || name.rfind(prefix, 0) == 0;
  }

  sim::Simulation& sim_;
  std::vector<sim::CrashableAgent*> agents_;
  std::size_t cursor_ = 0;  ///< plan windows already examined
  std::uint64_t crashes_ = 0;
  std::uint64_t restarts_ = 0;
};

}  // namespace bmg::relayer
