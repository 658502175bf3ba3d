// Deterministic fault injection: the one scenario script.
//
// The paper treats the host as hostile terrain: base-fee inclusion is
// a coin flip (§V-B), RPC nodes drop transactions, and a light client
// update needs ~36 sequential transactions to survive all of it
// (§V-A).  A FaultPlan lets tests and benches *provoke* those
// conditions on a schedule instead of waiting for the RNG to oblige:
// congestion windows collapse inclusion probabilities, outage windows
// produce empty blocks, blackholes swallow transactions without ever
// reporting a result, duplicate windows replay executions (exercising
// chunk-upload / seq-tracker idempotency), and fee spikes inflate the
// market components of the fee.
//
// The same plan scripts the processes and the participants: crash
// windows kill and restart agents (relayer::CrashController), reorg
// windows fork the optimistic tip, and the participant kinds
// (kEquivocate .. kFeeSpam) are read at event time by the adversary
// agents that adversary::Campaign builds (Byzantine validators, a
// collusion clique, a griefing relayer, a fee attacker).  A shipped
// scenario is a named FaultPlan (adversary/scenarios.hpp).
//
// A plan with chain-level windows draws every inclusion, blackhole and
// duplicate decision from a dedicated RNG stream owned by the chain;
// any other plan draws from the chain's own stream and never consults
// outage or congestion windows, leaving the chain bit-identical to one
// built without a plan.  Crash, reorg and participant windows are *not*
// chain faults: a plan holding only those keeps the submit path and its
// RNG streams byte-identical to a faultless run.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace bmg::host {

/// The first five kinds are chain faults; the rest never count toward
/// has_chain_faults().
enum class FaultKind : std::uint8_t {
  kCongestion,  ///< multiply inclusion probabilities by `severity`
  kOutage,      ///< slots produce but include nothing
  kBlackhole,   ///< tx vanishes; its result handler never fires
  kDuplicate,   ///< tx executes a second time (ghost replay)
  kFeeSpike,    ///< market fee components multiplied by `severity`
  kCrash,       ///< agent process killed at `start`, restarted at `end`
  kReorg,       ///< optimistic tip forks: up to `severity` slots retracted
  // Participant kinds, read by the adversary agents.
  kEquivocate,     ///< validators double-sign canonical heights
  kForkSign,       ///< validators sign fabricated future-height forks
  kCollude,        ///< clique co-signs forged headers and pushes them
  kUpdateClobber,  ///< relayer resets in-flight light-client updates
  kAckWithhold,    ///< relayer front-runs delivery, withholds the ack
  kStaleReplay,    ///< relayer replays already-delivered packets
  kFeeSpam,        ///< attacker submits bundle-tipped spam transactions
};

/// One scheduled fault over the half-open sim-time window [start, end).
struct FaultWindow {
  FaultKind kind = FaultKind::kCongestion;
  double start = 0;
  double end = 0;
  /// kCongestion: factor on inclusion probability in [0, 1].
  /// kFeeSpike: factor (>= 1) on priority/tip lamports.
  /// kFeeSpam: the fee multiplier the spam tip scales with.
  double severity = 1.0;
  /// kBlackhole / kDuplicate: per-transaction probability.
  /// Participant kinds: per-trigger rate (equivocate / fork-sign: per
  /// canonical block per validator; collude: per counterparty block;
  /// stale replay: per poll tick).
  double probability = 1.0;
  /// Restricts the fault to transactions whose label starts with this
  /// prefix; empty matches everything.  Outages ignore the filter
  /// (blocks are empty for everyone).  For kCrash the prefix matches
  /// agent names instead (empty = every registered agent).  For kReorg
  /// the prefix selects which retracted transactions the `survival`
  /// draw applies to (non-matching txs always survive the fork).
  std::string label_prefix;
  /// kReorg only: probability that a retracted transaction reappears
  /// on the winning fork (1.0 = pure rollback-and-replay; lower values
  /// kill txs, forcing submitters to resubmit across the fork).
  double survival = 1.0;
  /// kEquivocate / kForkSign: Byzantine validator count.
  /// kCollude: clique size (stake is the member sum).
  int agents = 1;
  /// kAckWithhold: seconds a captured ack is withheld before release.
  /// kFeeSpam: seconds between spam transactions.
  double interval = 0.0;
};

/// How often each fault class actually fired.
struct FaultCounters {
  std::uint64_t congestion_delayed = 0;  ///< txs that lost >=1 congested slot
  std::uint64_t outage_deferred = 0;     ///< txs that waited out >=1 outage slot
  std::uint64_t outage_expired = 0;      ///< txs dropped while waiting out an outage
  std::uint64_t blackholed = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t fee_spiked = 0;
  // kReorg windows (tracked separately from the chain-fault gate; see
  // FaultPlan::has_reorg_windows()).
  std::uint64_t reorgs_triggered = 0;    ///< forks that actually fired
  std::uint64_t slots_rolled_back = 0;   ///< total retracted slots
  std::uint64_t txs_replayed = 0;        ///< retracted txs that survived onto the winning fork
  std::uint64_t txs_reorged_out = 0;     ///< retracted txs killed by the survival draw
};

/// A scriptable, composable schedule of fault windows.  Windows of the
/// same kind compose: congestion multipliers multiply, blackhole /
/// duplicate probabilities combine as independent events.
class FaultPlan {
 public:
  FaultPlan() = default;

  FaultPlan& add(FaultWindow w);
  // Convenience builders (all return *this for chaining).
  FaultPlan& congestion(double start, double end, double severity,
                        std::string label_prefix = {});
  FaultPlan& outage(double start, double end);
  FaultPlan& blackhole(double start, double end, double probability,
                       std::string label_prefix = {});
  FaultPlan& duplicate(double start, double end, double probability,
                       std::string label_prefix = {});
  FaultPlan& fee_spike(double start, double end, double multiplier);
  /// Kills agents whose name starts with `agent` at `start` and
  /// restarts them at `end` (empty prefix = every registered agent).
  FaultPlan& crash(double start, double end, std::string agent = {});
  /// Arms fork windows: inside [start, end) each slot boundary forks
  /// with `probability`, retracting a uniform 1..max_depth recent
  /// slots (clamped to the unrooted suffix).  Retracted transactions
  /// matching `label_prefix` survive onto the winning fork with
  /// probability `survival` (others always survive).  max_depth == 0
  /// windows are inert and keep the chain byte-identical to the seed.
  FaultPlan& reorg(double start, double end, std::uint64_t max_depth,
                   double probability = 1.0, double survival = 1.0,
                   std::string label_prefix = {});

  // Participant builders (adversary::Campaign builds their agents).
  /// `validators` Byzantine validators double-sign each canonical block
  /// with probability `rate`.
  FaultPlan& equivocate(double start, double end, int validators, double rate = 1.0);
  /// `validators` Byzantine validators gossip signatures over
  /// fabricated future-height headers with probability `rate`.
  FaultPlan& fork_sign(double start, double end, int validators, double rate = 1.0);
  /// A clique of `members` validators co-signs forged headers and
  /// pushes them at the counterparty light client, once per
  /// counterparty block with probability `rate`.
  FaultPlan& collude(double start, double end, int members, double rate = 1.0);
  /// A griefing relayer restarts any in-flight light-client update it
  /// observes (resets accumulated signature verification).
  FaultPlan& update_clobber(double start, double end);
  /// A griefing relayer front-runs packet delivery to the guest and
  /// withholds the acknowledgement for `delay_s` seconds.
  FaultPlan& ack_withhold(double start, double end, double delay_s);
  /// A griefing relayer replays already-delivered packets with
  /// probability `rate` per poll tick.
  FaultPlan& stale_replay(double start, double end, double rate);
  /// Sustained fee-market pressure: a kFeeSpam window (spam every
  /// `interval_s` seconds), then the market-wide side of the attack as
  /// chain faults — fee_spike(mult), and congestion(inclusion_factor)
  /// when that factor is below 1.
  FaultPlan& fee_spam(double start, double end, double fee_multiplier,
                      double inclusion_factor, double interval_s = 30.0);

  /// Appends every window of `other`, in order.
  FaultPlan& append(const FaultPlan& other);

  void clear() {
    windows_.clear();
    chain_windows_ = 0;
    reorg_windows_ = 0;
  }
  [[nodiscard]] bool empty() const noexcept { return windows_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return windows_.size(); }
  /// Whether any window targets the *chain* (kCongestion .. kFeeSpike).
  /// Only then does the chain draw from its fault RNG and consult
  /// outage, congestion and fee-spike windows, so crash-only and
  /// participant-only plans stay byte-identical to no plan.
  [[nodiscard]] bool has_chain_faults() const noexcept { return chain_windows_ > 0; }
  /// Whether any *effective* (max_depth >= 1) kReorg window exists.
  /// The chain arms its fork machinery — journalling, deferred
  /// commitment delivery and the dedicated reorg RNG stream — on this;
  /// kReorg windows never count as chain faults, so arming reorgs
  /// leaves the submit/fault RNG streams untouched.
  [[nodiscard]] bool has_reorg_windows() const noexcept { return reorg_windows_ > 0; }
  [[nodiscard]] const std::vector<FaultWindow>& windows() const noexcept {
    return windows_;
  }
  /// The kCrash windows only.
  [[nodiscard]] std::vector<FaultWindow> crash_windows() const;

  // --- generic queries (the adversary agents ask these) ----------------
  /// Largest probability among the windows of `kind` open at `t` (0 if
  /// none).
  [[nodiscard]] double rate_at(FaultKind kind, double t) const noexcept;
  /// The first window of `kind` open at `t`, or null.
  [[nodiscard]] const FaultWindow* open_window(FaultKind kind, double t) const noexcept;
  /// Earliest start strictly after `t` among windows of `kind` (idle
  /// agents sleep until then instead of polling).
  [[nodiscard]] std::optional<double> next_window_start(FaultKind kind,
                                                        double t) const noexcept;
  /// Largest `agents` among windows of `kind` (0 if none).
  [[nodiscard]] int max_agents(FaultKind kind) const noexcept;
  [[nodiscard]] bool has(FaultKind kind) const noexcept;

  // --- queries (evaluated by the chain) --------------------------------
  /// Product of active congestion severities for a tx labelled `label`.
  [[nodiscard]] double congestion_multiplier(double t, const std::string& label) const;
  [[nodiscard]] bool in_outage(double t) const;
  /// Combined probability that a tx submitted at `t` is blackholed.
  [[nodiscard]] double blackhole_probability(double t, const std::string& label) const;
  [[nodiscard]] double duplicate_probability(double t, const std::string& label) const;
  /// Product of active fee-spike multipliers.
  [[nodiscard]] double fee_multiplier(double t) const;
  /// Combined per-slot probability that the tip forks at time `t`.
  [[nodiscard]] double reorg_probability(double t) const;
  /// Deepest max_depth among active kReorg windows at `t` (0 = none).
  [[nodiscard]] std::uint64_t reorg_max_depth(double t) const;
  /// Product of active windows' survival for a retracted tx labelled
  /// `label`; windows whose prefix doesn't match contribute 1.
  [[nodiscard]] double reorg_survival(double t, const std::string& label) const;

 private:
  std::vector<FaultWindow> windows_;
  std::size_t chain_windows_ = 0;  ///< count of kCongestion .. kFeeSpike windows
  std::size_t reorg_windows_ = 0;  ///< count of kReorg windows with max_depth >= 1
};

}  // namespace bmg::host
