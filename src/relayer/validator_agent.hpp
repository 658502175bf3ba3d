// Off-chain validator process (paper §III-B, Alg. 2 upper half).
//
// Listens for NewBlock events from the Guest Contract, signs the block
// digest after a sampled network/processing latency, and submits the
// Sign transaction (carrying the signature through the host's Ed25519
// pre-compile) under its configured fee policy.  Table I of the paper
// is the per-validator statistics this agent records.
#pragma once

#include <string>

#include "common/stats.hpp"
#include "guest/contract.hpp"
#include "host/chain.hpp"
#include "sim/agent.hpp"
#include "sim/latency.hpp"
#include "sim/scheduler.hpp"

namespace bmg::relayer {

struct ValidatorProfile {
  std::string name;
  std::uint64_t stake = 0;
  sim::LatencyProfile latency;
  host::FeePolicy fee;
  /// Silent validators stake but never sign (7 of the paper's 24).
  bool active = true;
};

class ValidatorAgent final : public sim::CrashableAgent {
 public:
  ValidatorAgent(sim::Simulation& sim, host::Chain& host, guest::GuestContract& contract,
                 crypto::PrivateKey key, ValidatorProfile profile, Rng rng);

  /// Subscribes to NewBlock events; call once after host setup.
  void start();

  [[nodiscard]] const crypto::PublicKey& pubkey() const { return key_.public_key(); }
  [[nodiscard]] const ValidatorProfile& profile() const { return profile_; }
  [[nodiscard]] const crypto::PrivateKey& key() const { return key_; }

  // -- statistics (Table I) ---------------------------------------------
  [[nodiscard]] std::uint64_t signatures_submitted() const { return sigs_; }
  [[nodiscard]] const Series& signing_latency() const { return latency_; }
  [[nodiscard]] std::uint64_t fees_paid_lamports() const {
    return host_.payer_stats(pubkey()).fees_lamports;
  }

 private:
  /// Resync: the only durable obligation is a signature on the current
  /// unfinalised head — sign it unless the contract already records
  /// ours (the pre-crash submission may have landed).
  void on_restart() override;
  void on_new_block(ibc::Height height, double announced_at);

  host::Chain& host_;
  guest::GuestContract& contract_;
  crypto::PrivateKey key_;
  ValidatorProfile profile_;
  Rng rng_;

  std::uint64_t sigs_ = 0;
  Series latency_;
};

}  // namespace bmg::relayer
