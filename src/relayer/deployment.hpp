// Full-stack deployment harness: host chain + Guest Contract +
// counterparty chain + validator agents + crank + relayer, wired over
// one deterministic simulation.  This is the reproduction of the
// paper's §IV deployment (guest blockchain on Solana connected to
// Picasso) that the integration tests, examples and every evaluation
// bench build on.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "counterparty/chain.hpp"
#include "guest/contract.hpp"
#include "host/chain.hpp"
#include "relayer/crank_agent.hpp"
#include "relayer/crash_controller.hpp"
#include "relayer/relayer_agent.hpp"
#include "relayer/validator_agent.hpp"

namespace bmg::relayer {

struct DeploymentConfig {
  std::uint64_t seed = 42;
  /// When set, every RNG in the deployment derives from
  /// stream_seed(seed, *rng_stream) instead of `seed` directly — the
  /// grid runners' per-cell stream split (common/rng.hpp): cell i of a
  /// grid keyed by `seed` gets stream i, making its transcript a pure
  /// function of (seed, i) regardless of sibling cells or shard
  /// workers.  Unset keeps the historical seeding byte-identical.
  std::optional<std::uint64_t> rng_stream;
  host::ChainConfig host;
  counterparty::Config counterparty;
  guest::GuestConfig guest;
  RelayerConfig relayer;
  /// Validator roster; empty selects paper_validators().
  std::vector<ValidatorProfile> validators;

  DeploymentConfig() {
    // Keep integration runs snappy by default; the figure benches
    // override Δ and epoch length with the paper's values.
    guest.delta_seconds = 60.0;
    guest.epoch_length_host_slots = 1'000'000'000;
  }
};

/// The paper's validator roster (Table I): 17 active validators with
/// per-validator fee policies and latency distributions fitted to the
/// reported quantiles (including #1's heavy tail), plus 7 staked but
/// silent validators.
[[nodiscard]] std::vector<ValidatorProfile> paper_validators();

/// A priority-fee policy tuned to cost ~`usd` for a tx using
/// `expected_cu` compute units.
[[nodiscard]] host::FeePolicy priority_fee_for_usd(double usd, std::uint64_t expected_cu);

class Deployment {
 public:
  explicit Deployment(DeploymentConfig cfg = {});

  /// Starts chains and agents.  Called by open_ibc() if needed.
  void start();

  /// Runs the connection handshake, then opens the "transfer" channel
  /// with open_channel.  The guest initiates: its INIT and ACK steps
  /// are chunked host transactions, the counterparty's TRY and CONFIRM
  /// are chain calls, and light client updates are relayed in both
  /// directions.  Blocks (pumps the simulation) until open.
  void open_ibc();

  /// Opens an unordered channel between `port` on both chains over the
  /// connection open_ibc() opened, guest-initiated like it, and returns
  /// {guest channel, counterparty channel}.  Blocks until open; throws
  /// std::runtime_error if a step does not complete in time.
  std::pair<ibc::ChannelId, ibc::ChannelId> open_channel(const ibc::PortId& port);

  // --- accessors ---------------------------------------------------------
  [[nodiscard]] sim::Simulation& sim() noexcept { return sim_; }
  [[nodiscard]] host::Chain& host() noexcept { return host_; }
  [[nodiscard]] guest::GuestContract& guest() noexcept { return *guest_; }
  [[nodiscard]] counterparty::CounterpartyChain& cp() noexcept { return cp_; }
  [[nodiscard]] RelayerAgent& relayer() noexcept { return *relayer_; }
  [[nodiscard]] CrankAgent& crank() noexcept { return *crank_; }
  [[nodiscard]] std::vector<std::unique_ptr<ValidatorAgent>>& validators() noexcept {
    return validators_;
  }
  /// Crash-window executor; relayer, crank and validators register in
  /// start().  Tests can add() further agents (e.g. fishermen).
  [[nodiscard]] CrashController& crash_controller() noexcept { return crash_ctl_; }
  /// Arms any kCrash windows appended to host().fault_plan() since the
  /// last call (start() arms the initial plan automatically).
  std::size_t schedule_crashes() { return crash_ctl_.schedule(host_.fault_plan()); }
  [[nodiscard]] const ibc::ChannelId& guest_channel() const noexcept {
    return guest_channel_;
  }
  [[nodiscard]] const ibc::ChannelId& cp_channel() const noexcept { return cp_channel_; }
  [[nodiscard]] const ibc::ClientId& guest_client_on_cp() const noexcept {
    return guest_client_on_cp_;
  }
  [[nodiscard]] const crypto::PublicKey& client_payer() const noexcept {
    return client_payer_;
  }
  [[nodiscard]] Rng& rng() noexcept { return rng_; }
  /// The effective deployment seed (after stream derivation).  Attack
  /// and audit layers derive their own Rng streams from it so they
  /// never perturb the deployment's draw sequence.
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  // --- client operations (Figs. 2-3 metrics) -------------------------------
  struct SendRecord {
    double submitted_at = 0;
    double executed_at = 0;   ///< SendPacket invocation (on-chain)
    double finalised_at = 0;  ///< FinalisedBlock containing the packet
    /// Rooted delivery of that FinalisedBlock (== finalised_at on a
    /// linear host; trails by the rooted lag on a fork-aware one).
    double rooted_at = 0;
    double fee_usd = 0;
    /// The packet's sequence once the send executes (until then, the
    /// next free one at submit time).
    std::uint64_t sequence = 0;
    bool executed = false;
    bool failed = false;
    bool finalised = false;
    bool rooted = false;
  };

  /// Sends an ICS-20 transfer from the guest side under `fee`.
  std::shared_ptr<SendRecord> send_transfer_from_guest(
      std::uint64_t amount, host::FeePolicy fee,
      double timeout_after_s = 3600.0);

  /// Sends a transfer from the counterparty toward the guest.
  ibc::Packet send_transfer_from_cp(std::uint64_t amount);

  // --- simulation pumping ---------------------------------------------------
  void run_for(double seconds);
  /// Pumps until `pred()` or timeout; returns whether pred held.  The
  /// wait ends after the first event at or past the deadline, or at the
  /// host's first slot boundary at or after it, whichever comes first.
  bool run_until(const std::function<bool()>& pred, double timeout_s);

 private:
  void wire_finalisation_tracker();
  /// Waits until the guest head is finalised and commits the current
  /// store root, then pushes the first block that commits it to the
  /// counterparty's guest client; returns that height.
  ibc::Height relay_guest_commit();
  /// Waits for the next counterparty block, then updates the guest's
  /// client to it; returns its height.
  ibc::Height relay_cp_block();
  /// Submits a chunked handshake call and pumps until it executes.
  void guest_handshake_call(ByteView payload);

  DeploymentConfig cfg_;
  /// Effective state seed: cfg_.seed or its per-cell stream split.
  /// Declared before every member seeded from it.
  std::uint64_t seed_;
  Rng rng_;
  sim::Simulation sim_;
  host::Chain host_;
  counterparty::CounterpartyChain cp_;
  guest::GuestContract* guest_ = nullptr;

  std::vector<std::unique_ptr<ValidatorAgent>> validators_;
  std::unique_ptr<CrankAgent> crank_;
  std::unique_ptr<RelayerAgent> relayer_;
  CrashController crash_ctl_{sim_};

  ibc::ClientId guest_client_on_cp_;
  ibc::ConnectionId guest_conn_, cp_conn_;
  ibc::ChannelId guest_channel_, cp_channel_;

  crypto::PublicKey client_payer_;
  crypto::PublicKey service_payer_;

  /// seq -> executed send's record (finalisation tracking for Fig. 2).
  std::map<std::uint64_t, std::shared_ptr<SendRecord>> sent_;
  std::string last_event_id_;  ///< latest handshake event payload
  bool started_ = false;
};

}  // namespace bmg::relayer
