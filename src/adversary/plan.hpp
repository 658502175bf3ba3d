// Scriptable adversary campaigns, symmetric to host::FaultPlan (PR 3).
//
// A FaultPlan perturbs the *infrastructure* (congestion, outages,
// crashes); an AdversaryPlan perturbs the *participants*: Byzantine
// validators that equivocate or collude, griefing relayers that
// front-run client updates and sit on acknowledgements, and fee-market
// attackers that force the TxPipeline into bundle escalation.  Windows
// follow the FaultPlan conventions — [start, end) in simulated
// seconds, builder methods chain, and the plan itself is inert data:
// agents constructed by adversary::Campaign query it at event time.
//
// Determinism contract (same bar as FaultPlan): an *empty* plan
// constructs no agents, draws no random numbers and subscribes to no
// events, so a deployment with an empty AdversaryPlan is byte-identical
// to one without any adversary code at all.  Non-empty plans draw from
// dedicated Rng streams seeded from the deployment seed xor fixed
// constants — never from Deployment::rng(), whose fork order is part of
// the recorded transcript.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "host/fault.hpp"

namespace bmg::adversary {

enum class AdversaryKind : std::uint8_t {
  kEquivocate = 0,     ///< validators double-sign canonical heights
  kForkSign = 1,       ///< validators sign fabricated future-height forks
  kCollude = 2,        ///< clique co-signs forged headers and pushes them
  kUpdateClobber = 3,  ///< relayer resets in-flight light-client updates
  kAckWithhold = 4,    ///< relayer front-runs delivery, withholds the ack
  kStaleReplay = 5,    ///< relayer replays already-delivered packets
  kFeeSpam = 6,        ///< sustained priority-fee pressure on the host
};

/// One scripted attack window.  Field meaning depends on `kind`; unused
/// fields keep their defaults.
struct AdversaryWindow {
  AdversaryKind kind = AdversaryKind::kEquivocate;
  double start = 0;  ///< window opens (inclusive, simulated seconds)
  double end = 0;    ///< window closes (exclusive)
  /// Per-trigger probability (equivocate/fork-sign: per canonical
  /// block per validator; collude: per counterparty block; stale
  /// replay: per poll tick).
  double rate = 1.0;
  /// kEquivocate/kForkSign: Byzantine validator count.
  /// kCollude: clique size (stake is the member sum).
  int agents = 1;
  /// kAckWithhold: seconds a captured ack is withheld before release.
  double delay_s = 0.0;
  /// kFeeSpam: host fee-market multiplier during the window.
  double fee_multiplier = 1.0;
  /// kFeeSpam: inclusion-probability factor (host congestion severity).
  double inclusion_factor = 1.0;
  /// kFeeSpam: spam-transaction cadence in seconds.
  double interval_s = 30.0;
};

/// Cumulative per-action accounting, FaultCounters-style.  One struct
/// per campaign, incremented by the adversary agents as actions land.
struct AdversaryCounters {
  std::uint64_t equivocations = 0;        ///< double-sign pairs gossiped
  std::uint64_t fork_signs = 0;           ///< future-height signatures gossiped
  std::uint64_t collusion_headers = 0;    ///< forged headers co-signed by the clique
  std::uint64_t fork_pushes_rejected = 0; ///< forged headers the light client refused
  std::uint64_t fork_pushes_accepted = 0; ///< forged headers the light client accepted
  std::uint64_t forged_packet_mints = 0;  ///< unbacked vouchers minted off forged proofs
  std::uint64_t updates_clobbered = 0;    ///< in-flight client updates reset
  std::uint64_t front_runs = 0;           ///< packet deliveries stolen from the relayer
  std::uint64_t acks_withheld = 0;        ///< acks captured and sat on
  std::uint64_t acks_released = 0;        ///< withheld acks eventually released
  std::uint64_t stale_replays = 0;        ///< duplicate packet deliveries attempted
  std::uint64_t spam_txs = 0;             ///< fee-pressure transactions submitted

  /// Comma-separated column names matching `csv_row()`, for CSV headers.
  [[nodiscard]] static const char* csv_header() noexcept;
  [[nodiscard]] std::string csv_row() const;
};

class AdversaryPlan {
 public:
  AdversaryPlan() = default;

  // -- Builders (chainable) ------------------------------------------

  /// `validators` Byzantine validators double-sign each canonical block
  /// with probability `rate` while [start, end) is open.
  AdversaryPlan& equivocate(double start, double end, int validators,
                            double rate = 1.0);

  /// `validators` Byzantine validators gossip signatures over
  /// fabricated future-height headers with probability `rate`.
  AdversaryPlan& fork_sign(double start, double end, int validators,
                           double rate = 1.0);

  /// A clique of `members` validators co-signs forged headers and
  /// pushes them at the counterparty light client, once per
  /// counterparty block with probability `rate`.
  AdversaryPlan& collude(double start, double end, int members, double rate = 1.0);

  /// A griefing relayer restarts any in-flight light-client update it
  /// observes (resets accumulated signature verification).
  AdversaryPlan& update_clobber(double start, double end);

  /// A griefing relayer front-runs packet delivery to the guest and
  /// withholds the acknowledgement for `delay_s` seconds.
  AdversaryPlan& ack_withhold(double start, double end, double delay_s);

  /// A griefing relayer replays already-delivered packets with
  /// probability `rate` per poll tick (burning fees, testing replay
  /// protection).
  AdversaryPlan& stale_replay(double start, double end, double rate);

  /// Sustained host fee-market pressure: fee multiplier + inclusion
  /// squeeze (compiled into the host FaultPlan) and spam transactions
  /// every `interval_s` seconds.
  AdversaryPlan& fee_spam(double start, double end, double fee_multiplier,
                          double inclusion_factor, double interval_s = 30.0);

  // -- Introspection -------------------------------------------------

  [[nodiscard]] bool empty() const noexcept { return windows_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return windows_.size(); }
  [[nodiscard]] const std::vector<AdversaryWindow>& windows() const noexcept {
    return windows_;
  }

  /// Max Byzantine validator count over equivocate/fork-sign windows.
  [[nodiscard]] int byzantine_validators() const noexcept;
  /// Max clique size over collusion windows.
  [[nodiscard]] int clique_size() const noexcept;

  [[nodiscard]] bool has_griefing() const noexcept;
  [[nodiscard]] bool has_fee_attack() const noexcept;

  // -- Event-time queries (agents call these, like Chain asks FaultPlan)

  /// Max rate over active windows of `kind` at time `t` (0 if none).
  [[nodiscard]] double rate_at(AdversaryKind kind, double t) const noexcept;
  [[nodiscard]] double equivocation_rate(double t) const noexcept {
    return rate_at(AdversaryKind::kEquivocate, t);
  }
  [[nodiscard]] double fork_sign_rate(double t) const noexcept {
    return rate_at(AdversaryKind::kForkSign, t);
  }
  [[nodiscard]] double collusion_rate(double t) const noexcept {
    return rate_at(AdversaryKind::kCollude, t);
  }
  [[nodiscard]] double stale_replay_rate(double t) const noexcept {
    return rate_at(AdversaryKind::kStaleReplay, t);
  }
  [[nodiscard]] bool clobber_active(double t) const noexcept;
  /// Withhold delay if an ack-withhold window is open at `t`.
  [[nodiscard]] std::optional<double> ack_withhold_delay(double t) const noexcept;
  /// The open fee-spam window at `t`, if any (first match wins).
  [[nodiscard]] const AdversaryWindow* fee_spam_window(double t) const noexcept;
  /// Earliest window start strictly after `t` for `kind` (idle agents
  /// sleep until then instead of polling).
  [[nodiscard]] std::optional<double> next_window_start(AdversaryKind kind,
                                                        double t) const noexcept;

  /// Compiles the host-side market effects of fee-spam windows into a
  /// FaultPlan (fee-spike + congestion windows).  The adversary layer
  /// reuses the PR 3 fault machinery for everything that is a property
  /// of the chain rather than of an agent.
  void compile_host_faults(host::FaultPlan& plan) const;

 private:
  std::vector<AdversaryWindow> windows_;
};

}  // namespace bmg::adversary
