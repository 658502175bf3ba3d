// Adversary campaign suite: Byzantine validators, collusion cliques,
// griefing relayers and fee-market attackers, scripted as participant
// windows of a host::FaultPlan, running against the full deployment,
// with the
// detection -> evidence -> prosecution -> slashing pipeline measured
// end to end.
//
// The standing bar for every sub-quorum scenario: the InvariantAuditor
// never trips, every offender is detected and slashed, and packet
// delivery still completes.  The one scenario that provably cannot
// meet that bar — collusion at quorum stake — is here too, asserting
// the documented safety-loss signature loudly instead of pretending
// the light client can survive a quorum of liars.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <tuple>

#include "adversary/campaign.hpp"
#include "adversary/scenarios.hpp"
#include "audit/auditor.hpp"
#include "relayer/deployment.hpp"

namespace bmg::adversary {
namespace {

using relayer::Deployment;
using relayer::DeploymentConfig;
using relayer::ValidatorProfile;

/// Small roster: `active` signing validators plus `silent` staked but
/// non-signing ones (the tail the Campaign corrupts first, so
/// sub-quorum attacks cost the chain no finalisation power).
DeploymentConfig adv_config(std::uint64_t seed, int active, int silent,
                            std::uint64_t stake = 1000) {
  DeploymentConfig cfg;
  cfg.seed = seed;
  cfg.guest.delta_seconds = 30.0;
  for (int i = 0; i < active + silent; ++i) {
    ValidatorProfile p;
    p.name = "adv-val-" + std::to_string(i);
    p.stake = stake;
    p.active = i < active;
    p.latency = sim::LatencyProfile::from_quantiles(2.0, 3.0, 0.4);
    p.fee = host::FeePolicy::priority(1'000'000);
    cfg.validators.push_back(std::move(p));
  }
  cfg.counterparty.num_validators = 10;
  cfg.counterparty.block_interval_s = 6.0;
  return cfg;
}

// --- plan mechanics --------------------------------------------------------

TEST(AdversaryPlan, BuildersQueriesAndHostCompilation) {
  using host::FaultKind;
  host::FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.max_agents(FaultKind::kEquivocate), 0);
  EXPECT_EQ(plan.max_agents(FaultKind::kCollude), 0);

  plan.equivocate(10, 50, 2, 0.5)
      .equivocate(40, 70, 1, 0.75)
      .fork_sign(20, 60, 3, 0.25)
      .collude(0, 100, 7, 0.4)
      .update_clobber(5, 15)
      .ack_withhold(30, 90, 120.0)
      .stale_replay(30, 90, 0.1);
  EXPECT_EQ(plan.size(), 7u);
  EXPECT_EQ(plan.max_agents(FaultKind::kEquivocate), 2);
  EXPECT_EQ(plan.max_agents(FaultKind::kForkSign), 3);
  EXPECT_EQ(plan.max_agents(FaultKind::kCollude), 7);
  EXPECT_TRUE(plan.has(FaultKind::kUpdateClobber));
  EXPECT_FALSE(plan.has(FaultKind::kFeeSpam));
  // Participant windows never arm the chain's fault or fork machinery:
  // a plan of attacks alone keeps every submission on the plain path.
  EXPECT_FALSE(plan.has_chain_faults());
  EXPECT_FALSE(plan.has_reorg_windows());

  // Windows are [start, end): open at start, closed at end; the
  // largest rate among open windows wins.
  EXPECT_DOUBLE_EQ(plan.rate_at(FaultKind::kEquivocate, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(plan.rate_at(FaultKind::kEquivocate, 39.9), 0.5);
  EXPECT_DOUBLE_EQ(plan.rate_at(FaultKind::kEquivocate, 40.0), 0.75);
  EXPECT_DOUBLE_EQ(plan.rate_at(FaultKind::kEquivocate, 69.9), 0.75);
  EXPECT_DOUBLE_EQ(plan.rate_at(FaultKind::kEquivocate, 70.0), 0.0);
  EXPECT_DOUBLE_EQ(plan.rate_at(FaultKind::kForkSign, 19.0), 0.0);
  EXPECT_NE(plan.open_window(FaultKind::kUpdateClobber, 5.0), nullptr);
  EXPECT_EQ(plan.open_window(FaultKind::kUpdateClobber, 15.0), nullptr);
  ASSERT_NE(plan.open_window(FaultKind::kAckWithhold, 30.0), nullptr);
  EXPECT_DOUBLE_EQ(plan.open_window(FaultKind::kAckWithhold, 30.0)->interval, 120.0);
  EXPECT_EQ(plan.open_window(FaultKind::kAckWithhold, 95.0), nullptr);
  ASSERT_TRUE(plan.next_window_start(FaultKind::kAckWithhold, 0.0).has_value());
  EXPECT_DOUBLE_EQ(*plan.next_window_start(FaultKind::kAckWithhold, 0.0), 30.0);
  EXPECT_FALSE(plan.next_window_start(FaultKind::kAckWithhold, 30.0).has_value());

  // Fee spam writes its market pressure as chain faults right behind
  // its own window: fee spike, then congestion (inclusion below 1).
  plan.fee_spam(40, 80, 6.0, 0.6, 12.0);
  ASSERT_EQ(plan.size(), 10u);
  EXPECT_EQ(plan.windows()[7].kind, FaultKind::kFeeSpam);
  EXPECT_EQ(plan.windows()[8].kind, FaultKind::kFeeSpike);
  EXPECT_EQ(plan.windows()[9].kind, FaultKind::kCongestion);
  EXPECT_TRUE(plan.has_chain_faults());
  EXPECT_FALSE(plan.has_reorg_windows());
  ASSERT_NE(plan.open_window(FaultKind::kFeeSpam, 40.0), nullptr);
  EXPECT_DOUBLE_EQ(plan.open_window(FaultKind::kFeeSpam, 40.0)->severity, 6.0);
  EXPECT_DOUBLE_EQ(plan.open_window(FaultKind::kFeeSpam, 40.0)->interval, 12.0);
  EXPECT_EQ(plan.open_window(FaultKind::kFeeSpam, 81.0), nullptr);
  EXPECT_DOUBLE_EQ(plan.fee_multiplier(40.0), 6.0);
  EXPECT_DOUBLE_EQ(plan.fee_multiplier(80.0), 1.0);
  EXPECT_DOUBLE_EQ(plan.congestion_multiplier(79.0, "any"), 0.6);
  EXPECT_DOUBLE_EQ(plan.congestion_multiplier(39.0, "any"), 1.0);
}

TEST(AdversaryPlan, CountersCsvHeaderMatchesRowShape) {
  AdversaryCounters c;
  c.equivocations = 3;
  c.spam_txs = 9;
  const std::string header = AdversaryCounters::csv_header();
  const std::string row = c.csv_row();
  EXPECT_EQ(std::count(header.begin(), header.end(), ','),
            std::count(row.begin(), row.end(), ','));
}

// --- determinism -----------------------------------------------------------

// The byte-identity contract: a Campaign with an empty plan must leave
// the deployment's transcript untouched — no agents, no airdrops, no
// extra RNG draws, no subscriptions.
TEST(AdversaryCampaign, EmptyPlanIsByteIdenticalToNoCampaign) {
  const auto run = [](bool with_campaign) {
    Deployment d(adv_config(777, 4, 0));
    std::optional<Campaign> c;
    if (with_campaign) {
      c.emplace(d, host::FaultPlan{});
      c->start();
    }
    d.open_ibc();
    (void)d.send_transfer_from_cp(25);
    d.run_for(400.0);
    return std::make_tuple(
        d.sim().events_processed(), d.guest().head().hash().hex(),
        d.guest().bank().balance("alice", "transfer/" + d.guest_channel() + "/PICA"));
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(AdversaryCampaign, SameSeedSameAttackReproducesIdenticalRun) {
  const auto run = [] {
    Deployment d(adv_config(4242, 5, 2));
    host::FaultPlan plan;
    plan.equivocate(0.0, 200.0, 2, 0.7).fork_sign(0.0, 200.0, 2, 0.3);
    Campaign c(d, plan);
    c.start();
    d.run_for(600.0);
    return std::make_tuple(d.sim().events_processed(), c.counters().equivocations,
                           c.counters().fork_signs, c.economics().slashed_count,
                           d.guest().head().hash().hex());
  };
  EXPECT_EQ(run(), run());
}

// --- Byzantine validators --------------------------------------------------

TEST(AdversaryCampaign, EquivocationIsDetectedProsecutedAndSlashed) {
  Deployment d(adv_config(5001, 5, 2));
  audit::InvariantAuditor auditor(d.sim(), d.host(), d.guest(), d.cp());
  auditor.start();

  host::FaultPlan plan;
  plan.equivocate(0.0, 300.0, 2, 1.0).fork_sign(0.0, 300.0, 2, 0.5);
  Campaign c(d, plan);
  c.start();
  ASSERT_EQ(c.offenders().size(), 2u);

  ASSERT_TRUE(d.run_until([&] { return c.offenders_banned() == 2; }, 2000.0));

  // Actions were counted per kind...
  EXPECT_GE(c.counters().equivocations, 1u);
  EXPECT_GE(c.counters().fork_signs, 1u);
  // ...stake moved for real (genesis stake is vault-backed)...
  for (const auto& pk : c.offenders()) EXPECT_EQ(d.guest().stake_of(pk), 0u);
  EXPECT_EQ(c.economics().slashed_count, 2u);
  EXPECT_GT(c.economics().stake_slashed, 0u);
  EXPECT_GT(c.economics().reporter_reward, 0u);
  EXPECT_GT(c.economics().stake_burned, 0u);
  EXPECT_EQ(c.economics().stake_slashed,
            c.economics().reporter_reward + c.economics().stake_burned);
  // ...time-to-detection was measured...
  EXPECT_GE(c.detection_latency().count(), 1u);
  EXPECT_GE(c.detection_latency().mean(), 0.0);
  // ...the defence paid real fees...
  EXPECT_GT(c.fisherman_fees_usd(), 0.0);
  // ...and no invariant ever broke: lying to the gossip layer is not a
  // safety event.
  auditor.check_now("final");
  EXPECT_TRUE(auditor.clean()) << auditor.report();
}

// --- collusion: the quorum boundary ---------------------------------------

// Just below quorum: 3 active + 6 silent validators, 1000 stake each.
// Total 9000, quorum floor(2*9000/3)+1 = 6001.  The clique is all 6
// silent validators — 6000 stake, exactly quorum-1.  Every forged push
// must be rejected, every member slashed, and the auditor stays green.
TEST(AdversaryCampaign, CollusionJustBelowQuorumIsRejectedAndSlashed) {
  Deployment d(adv_config(6001, 3, 6));
  audit::InvariantAuditor auditor(d.sim(), d.host(), d.guest(), d.cp());
  auditor.start();

  host::FaultPlan plan;
  plan.collude(0.0, 400.0, 6, 1.0);
  Campaign c(d, plan);
  c.start();
  ASSERT_EQ(c.offenders().size(), 6u);
  ASSERT_NE(c.clique(), nullptr);
  EXPECT_EQ(c.clique()->clique_stake(), 6000u);  // quorum - 1, exactly

  ASSERT_TRUE(d.run_until(
      [&] {
        return c.counters().fork_pushes_rejected >= 3 && c.offenders_banned() == 6;
      },
      2500.0));

  // The light client held: not one forged header got through, so not
  // one forged packet could be proven.
  EXPECT_EQ(c.counters().fork_pushes_accepted, 0u);
  EXPECT_EQ(c.counters().forged_packet_mints, 0u);
  EXPECT_GE(c.counters().collusion_headers, 3u);
  // Prosecution ran per member (each co-signature is evidence).
  EXPECT_EQ(c.economics().slashed_count, 6u);
  EXPECT_EQ(c.clique()->clique_stake(), 0u);
  auditor.check_now("final");
  EXPECT_TRUE(auditor.clean()) << auditor.report();
}

// At quorum: 6 active validators, clique of 5 (5000 >= quorum 4001).
// This is the regime the paper's trust model explicitly surrenders to —
// the light client accepts the forged header, the clique proves a
// fabricated packet commitment, and an unbacked voucher mints on the
// counterparty.  The test documents that safety-loss signature: the
// InvariantAuditor MUST trip (a run like this must fail loudly, never
// silently), while slashing still claws back the clique's stake.
TEST(AdversaryCampaign, CollusionAtQuorumIsTheDocumentedSafetyLoss) {
  Deployment d(adv_config(6002, 6, 0));
  audit::InvariantAuditor auditor(d.sim(), d.host(), d.guest(), d.cp());
  auditor.start();
  d.open_ibc();
  auditor.watch_client(d.guest_client_on_cp());
  auditor.watch_transfer_lane(
      audit::TransferLane{d.guest_channel(), d.cp_channel(), "SOL", "PICA"});

  const double t0 = d.sim().now();
  host::FaultPlan plan;
  plan.collude(t0, t0 + 300.0, 5, 1.0);
  Campaign c(d, plan);
  c.start();
  ASSERT_EQ(c.offenders().size(), 5u);
  ASSERT_NE(c.clique(), nullptr);
  EXPECT_GE(c.clique()->clique_stake(), 4001u);  // at/above quorum

  ASSERT_TRUE(d.run_until(
      [&] {
        return c.counters().fork_pushes_accepted >= 1 &&
               c.counters().forged_packet_mints >= 1;
      },
      1200.0));

  // The unbacked voucher exists: value from nowhere.
  EXPECT_GT(d.cp().bank().balance("mallory", "transfer/" + d.cp_channel() + "/SOL"),
            0u);

  // Detection still works — every clique member is slashed even though
  // the horse has left the barn.
  ASSERT_TRUE(d.run_until([&] { return c.offenders_banned() == 5; }, 2000.0));
  EXPECT_EQ(c.economics().slashed_count, 5u);

  // The loud failure: conservation (and client-height sanity) broke.
  auditor.check_now("final");
  EXPECT_FALSE(auditor.clean());
  EXPECT_GE(auditor.violations_total(), 1u);
}

// --- griefing relayer ------------------------------------------------------

TEST(AdversaryCampaign, AckWithholdDelaysButNeverStopsDelivery) {
  Deployment d(adv_config(8001, 4, 0));
  audit::InvariantAuditor auditor(d.sim(), d.host(), d.guest(), d.cp());
  auditor.start();
  d.open_ibc();
  auditor.watch_client(d.guest_client_on_cp());
  auditor.watch_transfer_lane(
      audit::TransferLane{d.guest_channel(), d.cp_channel(), "SOL", "PICA"});

  const double t0 = d.sim().now();
  host::FaultPlan plan;
  plan.ack_withhold(t0, t0 + 400.0, 120.0);
  Campaign c(d, plan);
  c.start();

  const ibc::Packet p1 = d.send_transfer_from_cp(10);
  d.run_for(20.0);
  const ibc::Packet p2 = d.send_transfer_from_cp(20);
  d.run_for(20.0);
  const ibc::Packet p3 = d.send_transfer_from_cp(30);

  const std::string voucher = "transfer/" + d.guest_channel() + "/PICA";
  ASSERT_TRUE(d.run_until(
      [&] { return d.guest().bank().balance("alice", voucher) == 60; }, 2500.0));

  // All acks eventually resolve — the withheld ones after the delay.
  ASSERT_TRUE(d.run_until(
      [&] {
        return !d.cp().ibc().packet_pending("transfer", d.cp_channel(), p1.sequence) &&
               !d.cp().ibc().packet_pending("transfer", d.cp_channel(), p2.sequence) &&
               !d.cp().ibc().packet_pending("transfer", d.cp_channel(), p3.sequence);
      },
      2500.0));

  // The griefer actually won at least one delivery race and sat on the
  // ack; everything captured was eventually released.
  EXPECT_GE(c.counters().front_runs, 1u);
  EXPECT_EQ(c.counters().acks_withheld, c.counters().front_runs);
  EXPECT_EQ(c.counters().acks_released, c.counters().acks_withheld);
  // No double mint despite two relayers racing the same packets.
  EXPECT_EQ(d.guest().bank().total_supply(voucher), 60u);
  EXPECT_GT(c.attacker_fees_usd(), 0.0);
  auditor.check_now("final");
  EXPECT_TRUE(auditor.clean()) << auditor.report();
}

TEST(AdversaryCampaign, UpdateClobberIsAbsorbedByThePipeline) {
  Deployment d(adv_config(8002, 4, 0));
  audit::InvariantAuditor auditor(d.sim(), d.host(), d.guest(), d.cp());
  auditor.start();
  d.open_ibc();
  auditor.watch_client(d.guest_client_on_cp());
  auditor.watch_transfer_lane(
      audit::TransferLane{d.guest_channel(), d.cp_channel(), "SOL", "PICA"});

  const double t0 = d.sim().now();
  host::FaultPlan plan;
  plan.update_clobber(t0, t0 + 300.0);
  Campaign c(d, plan);
  c.start();

  (void)d.send_transfer_from_cp(40);
  const std::string voucher = "transfer/" + d.guest_channel() + "/PICA";
  ASSERT_TRUE(d.run_until(
      [&] { return d.guest().bank().balance("alice", voucher) == 40; }, 2500.0));

  // The clobber landed (the honest relayer's half-verified update was
  // reset at least once) yet delivery completed anyway.
  EXPECT_GE(c.counters().updates_clobbered, 1u);
  auditor.check_now("final");
  EXPECT_TRUE(auditor.clean()) << auditor.report();
}

TEST(AdversaryCampaign, StaleReplayIsRejectedWithoutDoubleMint) {
  Deployment d(adv_config(8004, 4, 0));
  audit::InvariantAuditor auditor(d.sim(), d.host(), d.guest(), d.cp());
  auditor.start();
  d.open_ibc();
  auditor.watch_client(d.guest_client_on_cp());
  auditor.watch_transfer_lane(
      audit::TransferLane{d.guest_channel(), d.cp_channel(), "SOL", "PICA"});

  const double t0 = d.sim().now();
  host::FaultPlan plan;
  // Short withhold makes the griefer a delivering relayer (replay
  // ammunition); the replay window then re-fires delivered packets.
  plan.ack_withhold(t0, t0 + 400.0, 20.0).stale_replay(t0, t0 + 400.0, 0.5);
  Campaign c(d, plan);
  c.start();

  (void)d.send_transfer_from_cp(15);
  d.run_for(20.0);
  (void)d.send_transfer_from_cp(25);

  const std::string voucher = "transfer/" + d.guest_channel() + "/PICA";
  ASSERT_TRUE(d.run_until(
      [&] { return d.guest().bank().balance("alice", voucher) == 40; }, 2500.0));
  // Let the replay window keep firing after delivery.
  ASSERT_TRUE(d.run_until([&] { return c.counters().stale_replays >= 1; }, 1500.0));
  d.run_for(120.0);

  // Replay protection held: supply is exactly what was sent, once.
  EXPECT_EQ(d.guest().bank().total_supply(voucher), 40u);
  auditor.check_now("final");
  EXPECT_TRUE(auditor.clean()) << auditor.report();
}

// --- fee-market attacker ---------------------------------------------------

TEST(AdversaryCampaign, FeeAttackForcesEscalationButDeliveryCompletes) {
  Deployment d(adv_config(8003, 4, 0));
  audit::InvariantAuditor auditor(d.sim(), d.host(), d.guest(), d.cp());
  auditor.start();
  d.open_ibc();
  auditor.watch_client(d.guest_client_on_cp());
  auditor.watch_transfer_lane(
      audit::TransferLane{d.guest_channel(), d.cp_channel(), "SOL", "PICA"});

  const double t0 = d.sim().now();
  host::FaultPlan plan;
  plan.fee_spam(t0, t0 + 180.0, 8.0, 0.5, 10.0);
  Campaign c(d, plan);
  c.start();

  (void)d.send_transfer_from_cp(50);
  const std::string voucher = "transfer/" + d.guest_channel() + "/PICA";
  ASSERT_TRUE(d.run_until(
      [&] { return d.guest().bank().balance("alice", voucher) == 50; }, 3000.0));
  // Let the attack window run its full course before judging cadence.
  d.run_for(220.0);

  // The attacker sustained pressure (spam cadence + compiled fee
  // spike), the market actually moved, and the attack cost real money.
  EXPECT_GE(c.counters().spam_txs, 5u);
  EXPECT_GT(d.host().fault_counters().fee_spiked, 0u);
  EXPECT_GT(c.attacker_fees_usd(), 0.0);
  auditor.check_now("final");
  EXPECT_TRUE(auditor.clean()) << auditor.report();
}

// --- satellite 1: evidence survives a fisherman crash ----------------------

// Regression for the silent evidence loss: the fisherman stages its
// evidence in chunks, the finishing submit_evidence tx is blackholed,
// and a crash window kills the fisherman mid-prosecution.  Before PR 8
// restart() only flipped the running flag — the staged evidence (and
// the offender's guilt) evaporated with process memory, because the
// equivocation window has closed and nothing will ever be re-gossiped.
// Now restart() re-derives pending prosecutions from on-chain staging
// buffers and finishes them.
TEST(AdversaryCampaign, FishermanCrashMidProsecutionRederivesEvidence) {
  DeploymentConfig cfg = adv_config(7001, 5, 2);
  cfg.guest.delta_seconds = 20.0;
  Deployment d(std::move(cfg));

  // The finishing tx vanishes until t=120; the fisherman process dies
  // at t=60 (chunks are staged by then) and restarts at t=120.
  d.host().fault_plan()
      .blackhole(0.0, 120.0, 1.0, "fisherman:evidence")
      .crash(60.0, 120.0, "fisherman");

  // One equivocation burst on the first block only — after the window
  // closes there is no second chance via gossip.
  host::FaultPlan plan;
  plan.equivocate(0.0, 30.0, 1, 1.0);
  Campaign c(d, plan);
  c.start();
  ASSERT_EQ(c.offenders().size(), 1u);
  const crypto::PublicKey offender = c.offenders()[0];

  ASSERT_TRUE(d.run_until([&] { return d.guest().is_banned(offender); }, 1500.0));

  ASSERT_NE(c.fisherman(), nullptr);
  EXPECT_GE(c.fisherman()->crash_count(), 1u);
  // The ban can only have come through the re-derivation path.
  EXPECT_GE(c.fisherman()->evidence_rederived(), 1u);
  EXPECT_EQ(d.guest().stake_of(offender), 0u);
  // First-detection survives the crash (it is measurement state).
  EXPECT_TRUE(c.fisherman()->first_detected(offender).has_value());
  EXPECT_GE(c.detection_latency().count(), 1u);
}

// --- shipped scenario table ------------------------------------------------

TEST(AdversaryScenarios, ShippedTableIsWellFormed) {
  const auto all = campaign_scenarios(100.0, 400.0);
  ASSERT_GE(all.size(), 9u);
  EXPECT_EQ(all[0].name, "none");
  EXPECT_TRUE(all[0].plan.empty());
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_FALSE(all[i].plan.empty()) << all[i].name;
  }
  ASSERT_NE(find_scenario(all, "collude-subquorum"), nullptr);
  // The shipped collusion scenario stays below the paper roster's
  // quorum: 7 colluders x 1000 stake vs quorum 16001 of 24000.
  EXPECT_EQ(find_scenario(all, "collude-subquorum")->plan.max_agents(
                host::FaultKind::kCollude),
            7);
  // The crash composition carries its own fisherman crash window, from
  // attack start + 120 s to + 420 s, and no other.
  const ScenarioSpec* crash = find_scenario(all, "equivocate-fisherman-crash");
  ASSERT_NE(crash, nullptr);
  const auto crashes = crash->plan.crash_windows();
  ASSERT_EQ(crashes.size(), 1u);
  EXPECT_DOUBLE_EQ(crashes[0].start, 220.0);
  EXPECT_DOUBLE_EQ(crashes[0].end, 520.0);
  EXPECT_EQ(crashes[0].label_prefix, "fisherman");
  for (const auto& s : all)
    EXPECT_EQ(s.plan.crash_windows().size(), s.name == crash->name ? 1u : 0u) << s.name;
  EXPECT_EQ(find_scenario(all, "no-such-scenario"), nullptr);

  // The storms: one effective reorg window each, never a chain fault.
  const auto storms = reorg_scenarios(100.0, 400.0);
  ASSERT_EQ(storms.size(), 4u);
  for (const auto& s : storms) {
    EXPECT_EQ(s.plan.size(), 1u) << s.name;
    EXPECT_TRUE(s.plan.has_reorg_windows()) << s.name;
    EXPECT_FALSE(s.plan.has_chain_faults()) << s.name;
  }
  ASSERT_NE(find_scenario(storms, "storm90"), nullptr);
  EXPECT_DOUBLE_EQ(find_scenario(storms, "storm90")->plan.reorg_survival(100.0, ""), 0.9);
  EXPECT_EQ(find_scenario(storms, "equivocate"), nullptr);
}

}  // namespace
}  // namespace bmg::adversary
