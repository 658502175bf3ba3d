// Campaign: attaches a scenario's host::FaultPlan to a
// relayer::Deployment.
//
// The Campaign is the adversary layer's Deployment-facing seam.  On
// start() it appends its plan to the host's FaultPlan — so the chain
// executes the plan's chain faults and the CrashController its crash
// windows — and builds every agent the plan's participant windows call
// for: the gossip bus, a fisherman (the defence), Byzantine validator
// agents, a collusion clique, a griefing relayer and a fee attacker.
// The agents read their windows from the host's plan at event time.
// It selects which roster validators turn Byzantine (silent tail
// first, so sub-quorum attacks don't starve guest finalisation of
// signing power), and registers every adversarial agent with the
// deployment's CrashController so crash windows compose with attacks.
//
// It also *measures* the prosecution pipeline: a subscription on the
// guest program's Slashed events joins slashing economics (stake
// slashed / reporter reward / burn) with the fisherman's
// first-detection timestamps into a time-to-detection series, and
// attacker spend is read back from Chain::payer_stats.
//
// Determinism: `Campaign(d, {})` — an empty plan — appends nothing,
// constructs nothing, draws nothing and subscribes to nothing; the
// deployment's transcript is byte-identical to one without a Campaign
// at all.  Non-empty plans seed every adversary Rng from `deployment
// seed ^ fixed stream constants`, never from Deployment::rng().
#pragma once

#include <memory>
#include <vector>

#include "adversary/byzantine.hpp"
#include "adversary/counters.hpp"
#include "adversary/fee_attacker.hpp"
#include "adversary/griefing_relayer.hpp"
#include "common/stats.hpp"
#include "host/fault.hpp"
#include "relayer/deployment.hpp"
#include "relayer/fisherman_agent.hpp"

namespace bmg::adversary {

class Campaign {
 public:
  /// Slashing economics accumulated from guest Slashed events.
  struct Economics {
    std::uint64_t slashed_count = 0;
    std::uint64_t stake_slashed = 0;    ///< lamports removed from offenders
    std::uint64_t reporter_reward = 0;  ///< lamports paid to the fisherman
    std::uint64_t stake_burned = 0;     ///< lamports destroyed
  };

  Campaign(relayer::Deployment& deployment, host::FaultPlan plan);

  /// When the plan is non-empty, appends it to the host's FaultPlan;
  /// then starts the deployment (idempotent) and constructs and starts
  /// every agent the plan calls for.
  void start();

  [[nodiscard]] const AdversaryCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] const Economics& economics() const noexcept { return economics_; }
  /// Seconds from first fisherman detection to the slash landing.
  [[nodiscard]] const Series& detection_latency() const noexcept {
    return detection_latency_;
  }

  /// The fisherman (null for an empty plan).
  [[nodiscard]] relayer::FishermanAgent* fisherman() noexcept {
    return fisherman_.get();
  }
  /// Validators the campaign turned Byzantine (equivocators + clique).
  [[nodiscard]] const std::vector<crypto::PublicKey>& offenders() const noexcept {
    return offenders_;
  }
  [[nodiscard]] std::size_t offenders_banned() const;

  /// Host fees paid by the attack side (griefer + fee attacker).
  [[nodiscard]] double attacker_fees_usd() const;
  /// Host fees paid by the defence (the fisherman's evidence txs).
  [[nodiscard]] double fisherman_fees_usd() const;

  [[nodiscard]] CollusionClique* clique() noexcept { return clique_.get(); }
  [[nodiscard]] GriefingRelayerAgent* griefer() noexcept { return griefer_.get(); }

 private:
  std::vector<crypto::PrivateKey> pick_validator_keys(std::size_t n) const;
  void subscribe_slash_events();

  relayer::Deployment& d_;
  host::FaultPlan plan_;
  AdversaryCounters counters_;
  Economics economics_;
  Series detection_latency_;
  bool started_ = false;

  std::unique_ptr<relayer::GossipBus> bus_;
  std::unique_ptr<relayer::FishermanAgent> fisherman_;
  std::vector<std::unique_ptr<ByzantineValidatorAgent>> byzantine_;
  std::unique_ptr<CollusionClique> clique_;
  std::unique_ptr<GriefingRelayerAgent> griefer_;
  std::unique_ptr<FeeAttackerAgent> fee_attacker_;
  std::vector<crypto::PublicKey> offenders_;
  crypto::PublicKey fisher_payer_;
  crypto::PublicKey griefer_payer_;
  crypto::PublicKey fee_payer_;
};

}  // namespace bmg::adversary
