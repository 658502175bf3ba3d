// Crash-restart contract for simulated agent processes.
//
// The paper's deployment model assumes permissionless, unreliable
// relayers: delivery guarantees hold because *any* process can resume
// relaying from authoritative on-chain state (client heights, staged
// update chunks, unresolved packet commitments), not because any one
// process stays alive.  An agent derived from CrashableAgent splits its
// state accordingly:
//
//  - *ephemeral* state (in-flight pipeline sequences, backoff and
//    poll timers, in-memory queues) dies with crash() — the scheduler
//    bulk-cancels the agent's owned timers, on_crash() drops the rest
//    and nothing is flushed;
//  - *durable* state is whatever on_restart() can reconstruct by
//    querying the chains.  It must converge back to steady-state
//    operation with at-least-once semantics and no double-spend.
//
// Subscriptions (host events, counterparty block callbacks, gossip)
// are append-only in this codebase, so they persist for the object's
// lifetime; agents gate their handlers on running() to model events
// missed while the process is down.  A host transaction submitted
// before a crash still lands; its result handler compares
// crash_count() with the value it had at submission to tell that the
// process that submitted it is gone.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "sim/scheduler.hpp"

namespace bmg::sim {

class CrashableAgent {
 public:
  CrashableAgent(Simulation& sim, std::string name)
      : sim_(sim), name_(std::move(name)), timer_owner_(sim.register_agent()) {}
  CrashableAgent(const CrashableAgent&) = delete;
  CrashableAgent& operator=(const CrashableAgent&) = delete;
  virtual ~CrashableAgent() = default;

  /// Stable name used to match FaultPlan crash windows (by prefix).
  [[nodiscard]] const std::string& agent_name() const noexcept { return name_; }

  /// Whether the simulated process is currently alive.
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// Number of times crash() killed a running process.
  [[nodiscard]] std::uint64_t crash_count() const noexcept { return crash_count_; }

  /// Kills the process: cancels its owned timers, then drops the
  /// agent's ephemeral state (on_crash).  No-op when already crashed.
  void crash() {
    if (!running_) return;
    running_ = false;
    ++crash_count_;
    sim_.cancel_agent(timer_owner_);
    on_crash();
  }

  /// Boots a fresh process that resyncs durable state from the chains
  /// and resumes operation (on_restart).  No-op when already running.
  void restart() {
    if (running_) return;
    running_ = true;
    on_restart();
  }

 protected:
  /// Owner id for the agent's cancellable timers (crash() cancels them).
  [[nodiscard]] Simulation::AgentId timer_owner() const noexcept { return timer_owner_; }

  /// The agent's own teardown, after its timers are cancelled.
  virtual void on_crash() {}
  /// The agent's own resync, after it is marked running.
  virtual void on_restart() {}

  Simulation& sim_;

 private:
  std::string name_;
  Simulation::AgentId timer_owner_;
  bool running_ = true;
  std::uint64_t crash_count_ = 0;
};

}  // namespace bmg::sim
