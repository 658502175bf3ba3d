#include "sim/scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace bmg::sim {

void Simulation::check_pump_thread() {
  const std::thread::id self = std::this_thread::get_id();
  if (pump_thread_ == std::thread::id{}) {
    pump_thread_ = self;
    return;
  }
  if (pump_thread_ != self) {
    std::fprintf(stderr,
                 "sim: Simulation pumped from a second thread — a scheduler is "
                 "being shared across shard cells\n");
    std::abort();
  }
}

Simulation::PendingTimer* Simulation::find_pending(TimerId id) {
  const auto it = std::lower_bound(
      pending_timers_.begin(), pending_timers_.end(), id,
      [](const PendingTimer& p, TimerId v) { return p.id < v; });
  if (it == pending_timers_.end() || it->id != id || it->owner == kCancelledOwner)
    return nullptr;
  return &*it;
}

const Simulation::PendingTimer* Simulation::find_pending(TimerId id) const {
  return const_cast<Simulation*>(this)->find_pending(id);
}

bool Simulation::erase_pending(TimerId id) {
  PendingTimer* p = find_pending(id);
  if (p == nullptr) return false;
  p->owner = kCancelledOwner;
  --pending_live_;
  // Compact once tombstones outnumber live entries (and the vector is
  // big enough to matter); amortised O(1) per erase.
  if (pending_timers_.size() > 64 && pending_live_ < pending_timers_.size() / 2) {
    std::erase_if(pending_timers_,
                  [](const PendingTimer& t) { return t.owner == kCancelledOwner; });
  }
  return true;
}

bool Simulation::timer_pending(TimerId id) const {
  return id != 0 && find_pending(id) != nullptr;
}

void Simulation::at(SimTime t, std::function<void()> fn) {
  queue_.push_back(Event{std::max(t, now_), next_seq_++, std::move(fn), 0});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

void Simulation::after(SimTime delay, std::function<void()> fn) {
  at(now_ + std::max(delay, 0.0), std::move(fn));
}

Simulation::TimerId Simulation::at_cancellable(SimTime t, std::function<void()> fn,
                                               AgentId owner) {
  const TimerId id = ++next_timer_id_;
  pending_timers_.push_back({id, owner});  // ids are monotonic: stays sorted
  ++pending_live_;
  queue_.push_back(Event{std::max(t, now_), next_seq_++, std::move(fn), id});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  return id;
}

Simulation::TimerId Simulation::after_cancellable(SimTime delay,
                                                 std::function<void()> fn,
                                                 AgentId owner) {
  return at_cancellable(now_ + std::max(delay, 0.0), std::move(fn), owner);
}

bool Simulation::cancel(TimerId id) {
  if (id == 0) return false;
  return erase_pending(id);
}

std::size_t Simulation::cancel_agent(AgentId owner) {
  if (owner == 0) return 0;
  // Collect first: erase_pending may compact pending_timers_.
  std::vector<TimerId> ids;
  for (const PendingTimer& t : pending_timers_)
    if (t.owner == owner) ids.push_back(t.id);
  for (const TimerId id : ids) erase_pending(id);
  return ids.size();
}

bool Simulation::step() {
  check_pump_thread();
  if (queue_.empty()) return false;
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Event ev = std::move(queue_.back());
  queue_.pop_back();
  now_ = ev.time;
  if (ev.timer != 0 && !erase_pending(ev.timer)) {
    // Cancelled timer: consume the queue slot without running it.
    return true;
  }
  ++processed_;
  ev.fn();
  return true;
}

void Simulation::run_until(SimTime t) {
  while (!queue_.empty() && queue_.front().time <= t) step();
  now_ = std::max(now_, t);
}

void Simulation::run() {
  while (step()) {
  }
}

}  // namespace bmg::sim
