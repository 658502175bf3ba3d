// Byzantine validator agents driven by the participant windows of a
// host::FaultPlan.
//
// Two shapes of validator misbehaviour from §III-C of the paper:
//
//  * `ByzantineValidatorAgent` — an individual validator that, while an
//    equivocation window is open, signs both the canonical block and a
//    forged fork of it (misbehaviour class 1), and while a fork-sign
//    window is open, signs fabricated future-height headers
//    (class 2).  Everything is gossiped on the fisherman bus; nothing
//    touches the chains directly, which is exactly the paper's threat
//    model — a lone Byzantine validator can lie but cannot finalise.
//
//  * `CollusionClique` — a coordinated group holding up to
//    just-below-quorum stake that co-signs forged headers carrying an
//    attacker-built state trie and *pushes them at the counterparty
//    light client*.  Below quorum the client rejects the update
//    ("insufficient signing stake") and the only effect is evidence for
//    the fisherman; at quorum and above the client accepts and the
//    clique can prove fabricated packet commitments — the documented
//    safety-loss signature (the InvariantAuditor trips on the unbacked
//    mint).
//
// Both are sim::CrashableAgents, so FaultPlan crash windows compose:
// an adversary process can itself be killed and restarted mid-attack.
#pragma once

#include <string>
#include <vector>

#include "adversary/counters.hpp"
#include "common/rng.hpp"
#include "counterparty/chain.hpp"
#include "guest/contract.hpp"
#include "host/chain.hpp"
#include "host/fault.hpp"
#include "relayer/fisherman_agent.hpp"
#include "sim/agent.hpp"
#include "sim/scheduler.hpp"

namespace bmg::adversary {

class ByzantineValidatorAgent final : public sim::CrashableAgent {
 public:
  ByzantineValidatorAgent(sim::Simulation& sim, host::Chain& host,
                          guest::GuestContract& contract, relayer::GossipBus& bus,
                          crypto::PrivateKey key, const host::FaultPlan& plan,
                          AdversaryCounters& counters, std::size_t index,
                          std::uint64_t seed);

  void start();

  [[nodiscard]] const crypto::PublicKey& pubkey() const noexcept { return pubkey_; }

 private:
  void act(ibc::Height height);

  host::Chain& host_;
  guest::GuestContract& contract_;
  relayer::GossipBus& bus_;
  crypto::PrivateKey key_;
  crypto::PublicKey pubkey_;
  const host::FaultPlan& plan_;
  AdversaryCounters& counters_;
  std::size_t index_;
  Rng rng_;
};

class CollusionClique final : public sim::CrashableAgent {
 public:
  CollusionClique(sim::Simulation& sim, counterparty::CounterpartyChain& cp,
                  guest::GuestContract& contract, relayer::GossipBus& bus,
                  std::vector<crypto::PrivateKey> keys, ibc::ClientId guest_client_on_cp,
                  ibc::ChannelId guest_channel, ibc::ChannelId cp_channel,
                  const host::FaultPlan& plan, AdversaryCounters& counters,
                  std::uint64_t seed);

  void start();

  /// Sum of the clique members' on-chain stake right now.
  [[nodiscard]] std::uint64_t clique_stake() const;

 private:
  void attack();

  counterparty::CounterpartyChain& cp_;
  guest::GuestContract& contract_;
  relayer::GossipBus& bus_;
  std::vector<crypto::PrivateKey> keys_;
  ibc::ClientId client_;
  ibc::ChannelId guest_channel_;
  ibc::ChannelId cp_channel_;
  const host::FaultPlan& plan_;
  AdversaryCounters& counters_;
  Rng rng_;
  std::uint64_t pushes_ = 0;
  std::uint64_t forged_seq_ = 1'000'000'000;  ///< never collides with real sequences
};

}  // namespace bmg::adversary
