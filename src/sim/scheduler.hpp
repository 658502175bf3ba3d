// Deterministic discrete-event simulation kernel.
//
// Everything time-dependent in the reproduction — host slots,
// counterparty blocks, validator signing delays, relayer polling —
// runs as events on this scheduler.  Events at equal timestamps fire
// in scheduling order (FIFO), which makes runs bit-reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace bmg::sim {

/// Simulated time in seconds since simulation start.
using SimTime = double;

class Simulation {
 public:
  /// Handle for a cancellable timer; 0 is never a valid id.
  using TimerId = std::uint64_t;

  /// Handle for a timer-owning agent; 0 means "unowned".  Owned timers
  /// can be bulk-cancelled with cancel_agent() when the agent's
  /// process is killed (crash injection).
  using AgentId = std::uint64_t;

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `fn` at absolute time `t` (clamped to now()).
  void at(SimTime t, std::function<void()> fn);

  /// Schedules `fn` after `delay` seconds (clamped to >= 0).
  void after(SimTime delay, std::function<void()> fn);

  /// Like at()/after(), but returns a handle that cancel() accepts.
  /// Cancelled events stay in the queue and pop as no-ops (they do not
  /// count as processed and never invoke `fn`).  Passing an `owner`
  /// obtained from register_agent() additionally makes the timer
  /// eligible for cancel_agent(owner).
  TimerId at_cancellable(SimTime t, std::function<void()> fn, AgentId owner = 0);
  TimerId after_cancellable(SimTime delay, std::function<void()> fn, AgentId owner = 0);

  /// Cancels a pending timer.  Returns true if the timer had not fired
  /// (or been cancelled) yet; false for already-fired, already-
  /// cancelled or unknown ids.  Safe to call with id 0 (no-op).
  bool cancel(TimerId id);

  /// Allocates a fresh timer-owner handle for one agent.
  [[nodiscard]] AgentId register_agent() { return ++next_agent_id_; }

  /// Cancels every pending timer owned by `owner` (the sim half of a
  /// process kill: in-memory timers die with the process), found by a
  /// scan of the pending timers.  Returns the number cancelled.  Id 0
  /// is a no-op.
  std::size_t cancel_agent(AgentId owner);

  /// Whether a cancellable timer is scheduled and not yet fired.
  [[nodiscard]] bool timer_pending(TimerId id) const;

  /// Runs the next event.  Returns false when the queue is empty.
  /// A Simulation is single-threaded by contract: the first step()
  /// binds it to the calling thread and any later step() from another
  /// thread aborts with a diagnostic.  Shard workers run one complete
  /// simulation per grid cell, so a cross-thread pump means two shards
  /// are sharing a scheduler — a determinism bug, never a data race to
  /// tolerate.
  bool step();

  /// Runs all events with timestamp <= `t`; afterwards now() == t.
  void run_until(SimTime t);

  /// Runs until the event queue is fully drained.
  void run();

  [[nodiscard]] std::uint64_t events_processed() const noexcept { return processed_; }
  /// Queue length, including cancelled-but-not-yet-popped timers.
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    std::function<void()> fn;
    TimerId timer = 0;  ///< 0 for plain (non-cancellable) events
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Binary heap managed with std::push_heap/pop_heap instead of
  /// std::priority_queue: popping can then MOVE the event (and its
  /// std::function) out of the container, where priority_queue::top()
  /// only hands out a const& and forces a copy — a heap allocation per
  /// fired event with any non-trivial capture.
  std::vector<Event> queue_;
  /// Pending (not fired, not cancelled) timers with their owner (0 for
  /// unowned).  Timer ids are handed out monotonically, so appending
  /// keeps the vector sorted and lookups are binary searches; erasing
  /// tombstones in place (owner := kCancelledOwner) and the vector is
  /// compacted when tombstones dominate.  A node-based map here costs
  /// one heap allocation per scheduled timer — this is the relayer
  /// poll path, the hottest allocation site in the whole simulation.
  struct PendingTimer {
    TimerId id;
    AgentId owner;
  };
  static constexpr AgentId kCancelledOwner = ~AgentId{0};
  std::vector<PendingTimer> pending_timers_;
  std::size_t pending_live_ = 0;  ///< non-tombstone entry count

  [[nodiscard]] PendingTimer* find_pending(TimerId id);
  [[nodiscard]] const PendingTimer* find_pending(TimerId id) const;
  /// Tombstones `id` if live; returns whether it was live.
  bool erase_pending(TimerId id);
  /// Thread the first step() ran on; id{} until then.
  std::thread::id pump_thread_{};
  void check_pump_thread();
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_timer_id_ = 0;
  std::uint64_t next_agent_id_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace bmg::sim
