#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sim/latency.hpp"

namespace bmg::sim {
namespace {

TEST(Simulation, StartsAtZero) {
  Simulation s;
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulation, EventsFireInTimeOrder) {
  Simulation s;
  std::vector<int> order;
  s.at(3.0, [&] { order.push_back(3); });
  s.at(1.0, [&] { order.push_back(1); });
  s.at(2.0, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

TEST(Simulation, TiesFireInScheduleOrder) {
  Simulation s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) s.at(5.0, [&, i] { order.push_back(i); });
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, AfterIsRelative) {
  Simulation s;
  double fired_at = -1;
  s.at(2.0, [&] { s.after(1.5, [&] { fired_at = s.now(); }); });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 3.5);
}

TEST(Simulation, PastTimesClampToNow) {
  Simulation s;
  double fired_at = -1;
  s.at(5.0, [&] { s.at(1.0, [&] { fired_at = s.now(); }); });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Simulation, NegativeDelayClampsToZero) {
  Simulation s;
  double fired_at = -1;
  s.at(4.0, [&] { s.after(-10.0, [&] { fired_at = s.now(); }); });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 4.0);
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) s.at(i, [&] { ++count; });
  s.run_until(5.0);
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
  s.run_until(20.0);
  EXPECT_EQ(count, 10);
  EXPECT_DOUBLE_EQ(s.now(), 20.0);
}

TEST(Simulation, StepReturnsFalseWhenEmpty) {
  Simulation s;
  EXPECT_FALSE(s.step());
  s.at(1.0, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
  EXPECT_EQ(s.events_processed(), 1u);
}

TEST(Simulation, SelfReschedulingChain) {
  Simulation s;
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks < 100) s.after(0.4, tick);
  };
  s.after(0.4, tick);
  s.run();
  EXPECT_EQ(ticks, 100);
  EXPECT_NEAR(s.now(), 40.0, 1e-9);
}

TEST(Simulation, CancellableTimerFiresWhenNotCancelled) {
  Simulation s;
  double fired_at = -1;
  const Simulation::TimerId id = s.after_cancellable(2.5, [&] { fired_at = s.now(); });
  EXPECT_NE(id, 0u);
  EXPECT_TRUE(s.timer_pending(id));
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 2.5);
  EXPECT_FALSE(s.timer_pending(id));
}

TEST(Simulation, CancelPreventsFiring) {
  Simulation s;
  bool fired = false;
  const Simulation::TimerId id = s.after_cancellable(2.0, [&] { fired = true; });
  s.at(1.0, [&] { EXPECT_TRUE(s.cancel(id)); });
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(s.timer_pending(id));
  // The cancelled slot drains from the queue but is not "processed":
  // only the at(1.0) event counts.
  EXPECT_EQ(s.events_processed(), 1u);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);  // time still advances past the slot
}

TEST(Simulation, CancelAfterFireReturnsFalse) {
  Simulation s;
  const Simulation::TimerId id = s.after_cancellable(1.0, [] {});
  s.run();
  EXPECT_FALSE(s.cancel(id));
}

TEST(Simulation, CancelIsIdempotentAndZeroIsNoop) {
  Simulation s;
  const Simulation::TimerId id = s.at_cancellable(1.0, [] {});
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));  // second cancel: already gone
  EXPECT_FALSE(s.cancel(0));   // the null timer id
  s.run();
  EXPECT_EQ(s.events_processed(), 0u);
}

TEST(Simulation, CancelledAndLiveTimersInterleave) {
  Simulation s;
  std::vector<int> order;
  const Simulation::TimerId a = s.at_cancellable(1.0, [&] { order.push_back(1); });
  s.at_cancellable(2.0, [&] { order.push_back(2); });
  const Simulation::TimerId c = s.at_cancellable(3.0, [&] { order.push_back(3); });
  s.cancel(a);
  s.cancel(c);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(Simulation, TimerIdsAreUnique) {
  Simulation s;
  const Simulation::TimerId a = s.after_cancellable(1.0, [] {});
  const Simulation::TimerId b = s.after_cancellable(1.0, [] {});
  EXPECT_NE(a, b);
  s.run();
}

// --- per-agent timer ownership (crash-restart support) -----------------------

TEST(Simulation, CancelAgentKillsOnlyOwnedTimers) {
  Simulation s;
  const Simulation::AgentId alice = s.register_agent();
  const Simulation::AgentId bob = s.register_agent();
  EXPECT_NE(alice, 0u);
  EXPECT_NE(alice, bob);

  std::vector<int> fired;
  s.after_cancellable(1.0, [&] { fired.push_back(1); }, alice);
  s.after_cancellable(2.0, [&] { fired.push_back(2); }, bob);
  s.after_cancellable(3.0, [&] { fired.push_back(3); }, alice);
  s.after_cancellable(4.0, [&] { fired.push_back(4); });  // unowned

  EXPECT_EQ(s.cancel_agent(alice), 2u);
  s.run();
  EXPECT_EQ(fired, (std::vector<int>{2, 4}));
  // Cancelled slots drain without counting as processed.
  EXPECT_EQ(s.events_processed(), 2u);
}

TEST(Simulation, CancelAgentIsIdempotentAndSkipsFiredTimers) {
  Simulation s;
  const Simulation::AgentId agent = s.register_agent();
  int fired = 0;
  s.after_cancellable(1.0, [&] { ++fired; }, agent);
  s.after_cancellable(5.0, [&] { ++fired; }, agent);
  s.run_until(2.0);
  EXPECT_EQ(fired, 1);
  // Only the still-pending timer counts; the fired one is pruned.
  EXPECT_EQ(s.cancel_agent(agent), 1u);
  EXPECT_EQ(s.cancel_agent(agent), 0u);
  EXPECT_EQ(s.cancel_agent(0), 0u);  // the unowned pseudo-agent
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, OwnedTimerStillCancellableIndividually) {
  Simulation s;
  const Simulation::AgentId agent = s.register_agent();
  bool fired = false;
  const Simulation::TimerId id = s.at_cancellable(1.0, [&] { fired = true; }, agent);
  EXPECT_TRUE(s.cancel(id));
  // Individually-cancelled timers no longer count against the agent.
  EXPECT_EQ(s.cancel_agent(agent), 0u);
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, CancelAgentAfterManyFiredTimersSparesOtherOwners) {
  // 10^5 of one agent's timers fire first (nothing about them may be
  // left to cancel); then that agent and another hold live timers,
  // interleaved so that tombstone compaction runs mid-cancel.
  Simulation s;
  const Simulation::AgentId alice = s.register_agent();
  const Simulation::AgentId bob = s.register_agent();
  int early = 0;
  for (int i = 0; i < 100'000; ++i) s.after_cancellable(1.0, [&] { ++early; }, alice);
  s.run_until(2.0);
  ASSERT_EQ(early, 100'000);

  int alice_fired = 0, bob_fired = 0, ownerless_fired = 0;
  std::vector<Simulation::TimerId> alice_ids, bob_ids;
  for (int i = 0; i < 200; ++i) {
    alice_ids.push_back(s.after_cancellable(5.0, [&] { ++alice_fired; }, alice));
    if (i % 2 == 0) bob_ids.push_back(s.after_cancellable(5.0, [&] { ++bob_fired; }, bob));
  }
  s.after_cancellable(5.0, [&] { ++ownerless_fired; });
  ASSERT_TRUE(s.cancel(alice_ids[7]));  // one already cancelled by id

  EXPECT_EQ(s.cancel_agent(alice), 199u);
  for (const Simulation::TimerId id : alice_ids) EXPECT_FALSE(s.timer_pending(id));
  for (const Simulation::TimerId id : bob_ids) EXPECT_TRUE(s.timer_pending(id));
  EXPECT_EQ(s.cancel_agent(alice), 0u);
  s.run();
  EXPECT_EQ(alice_fired, 0);
  EXPECT_EQ(bob_fired, 100);
  EXPECT_EQ(ownerless_fired, 1);
}

TEST(Simulation, AgentCanRearmTimersAfterCancelAgent) {
  Simulation s;
  const Simulation::AgentId agent = s.register_agent();
  std::vector<int> fired;
  s.after_cancellable(1.0, [&] { fired.push_back(1); }, agent);
  s.cancel_agent(agent);
  // A "restarted" agent reuses its id; new timers must be live.
  s.after_cancellable(2.0, [&] { fired.push_back(2); }, agent);
  s.run();
  EXPECT_EQ(fired, (std::vector<int>{2}));
  EXPECT_EQ(s.cancel_agent(agent), 0u);
}

TEST(LatencyProfile, QuantileFitRecoversMedianAndQ3) {
  const LatencyProfile p = LatencyProfile::from_quantiles(4.0, 6.0, 1.0);
  Rng rng(77);
  std::vector<double> samples(200001);
  for (auto& v : samples) v = p.sample(rng);
  std::sort(samples.begin(), samples.end());
  EXPECT_NEAR(samples[samples.size() / 2], 4.0, 0.1);
  EXPECT_NEAR(samples[samples.size() * 3 / 4], 6.0, 0.15);
  EXPECT_GE(samples.front(), 1.0);  // floor respected
}

TEST(LatencyProfile, OutagesProduceHeavyTail) {
  const LatencyProfile base = LatencyProfile::from_quantiles(4.0, 6.0);
  const LatencyProfile heavy = base.with_outages(0.01, 1000.0);
  Rng r1(5), r2(5);
  double max_base = 0, max_heavy = 0;
  for (int i = 0; i < 20000; ++i) {
    max_base = std::max(max_base, base.sample(r1));
    max_heavy = std::max(max_heavy, heavy.sample(r2));
  }
  EXPECT_LT(max_base, 100.0);
  EXPECT_GT(max_heavy, 300.0);
}

}  // namespace
}  // namespace bmg::sim
