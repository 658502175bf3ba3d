#include "adversary/byzantine.hpp"

#include "guest/block.hpp"
#include "ibc/commitment.hpp"
#include "ibc/transfer.hpp"
#include "trie/trie.hpp"

namespace bmg::adversary {

namespace {
constexpr std::uint64_t kByzantineStream = 0xB12A'917E'5A17ull;
constexpr std::uint64_t kCliqueStream = 0xC011'0DE5'7A4Eull;
}  // namespace

// --- ByzantineValidatorAgent ----------------------------------------------

ByzantineValidatorAgent::ByzantineValidatorAgent(
    sim::Simulation& sim, host::Chain& host, guest::GuestContract& contract,
    relayer::GossipBus& bus, crypto::PrivateKey key, const host::FaultPlan& plan,
    AdversaryCounters& counters, std::size_t index, std::uint64_t seed)
    : CrashableAgent(sim, "byzantine-validator-" + std::to_string(index)),
      host_(host),
      contract_(contract),
      bus_(bus),
      key_(std::move(key)),
      pubkey_(key_.public_key()),
      plan_(plan),
      counters_(counters),
      index_(index),
      rng_(seed ^ kByzantineStream ^ (0x9E37'79B9'7F4A'7C15ull * (index + 1))) {}

void ByzantineValidatorAgent::start() {
  host_.subscribe(guest::kProgramName, [this](const host::Event& ev) {
    if (!running()) return;
    if (ev.name != guest::GuestContract::kEvNewBlock) return;
    Decoder d(ev.data);
    const ibc::Height height = d.u64();
    // Slight per-agent skew so gossip from different Byzantine
    // validators interleaves deterministically but not simultaneously.
    sim_.after_cancellable(
        0.9 + 0.05 * static_cast<double>(index_),
        [this, height] {
          if (running()) act(height);
        },
        timer_owner());
  });
}

void ByzantineValidatorAgent::act(ibc::Height height) {
  if (height >= contract_.block_count()) return;
  const double t = sim_.now();
  const guest::GuestBlock& canonical = contract_.block_at(height);

  const double eq_rate = plan_.rate_at(host::FaultKind::kEquivocate, t);
  if (eq_rate > 0.0 && rng_.chance(eq_rate)) {
    // Class 1: the honest signature over the canonical block plus a
    // signature over a forged sibling at the same height.
    bus_.publish(relayer::SignatureGossip{pubkey_, canonical.header,
                                          key_.sign(canonical.hash().view())});
    ibc::QuorumHeader forged = canonical.header;
    forged.state_root.bytes[31] ^= 0xFF;
    bus_.publish(relayer::SignatureGossip{pubkey_, forged,
                                          key_.sign(forged.signing_digest().view())});
    ++counters_.equivocations;
  }

  const double fork_rate = plan_.rate_at(host::FaultKind::kForkSign, t);
  if (fork_rate > 0.0 && rng_.chance(fork_rate)) {
    // Class 2: a fabricated header far past the head — the shape a
    // validator-set-change fork takes from a light client's viewpoint.
    Hash32 fake_root = canonical.header.state_root;
    fake_root.bytes[0] ^= 0xA5;
    const guest::GuestBlock fork = guest::GuestBlock::make(
        canonical.header.chain_id, contract_.block_count() + 64, t, fake_root,
        canonical.hash(), canonical.host_height, contract_.epoch_validators());
    bus_.publish(relayer::SignatureGossip{
        pubkey_, fork.header, key_.sign(fork.header.signing_digest().view())});
    ++counters_.fork_signs;
  }
}

// --- CollusionClique ------------------------------------------------------

CollusionClique::CollusionClique(sim::Simulation& sim,
                                 counterparty::CounterpartyChain& cp,
                                 guest::GuestContract& contract,
                                 relayer::GossipBus& bus,
                                 std::vector<crypto::PrivateKey> keys,
                                 ibc::ClientId guest_client_on_cp,
                                 ibc::ChannelId guest_channel, ibc::ChannelId cp_channel,
                                 const host::FaultPlan& plan,
                                 AdversaryCounters& counters, std::uint64_t seed)
    : CrashableAgent(sim, "collusion-clique"),
      cp_(cp),
      contract_(contract),
      bus_(bus),
      keys_(std::move(keys)),
      client_(std::move(guest_client_on_cp)),
      guest_channel_(std::move(guest_channel)),
      cp_channel_(std::move(cp_channel)),
      plan_(plan),
      counters_(counters),
      rng_(seed ^ kCliqueStream) {}

void CollusionClique::start() {
  cp_.on_new_block([this](ibc::Height) {
    if (!running()) return;
    const double rate = plan_.rate_at(host::FaultKind::kCollude, sim_.now());
    if (rate <= 0.0 || !rng_.chance(rate)) return;
    sim_.after_cancellable(
        0.4,
        [this] {
          if (running()) attack();
        },
        timer_owner());
  });
}

std::uint64_t CollusionClique::clique_stake() const {
  std::uint64_t stake = 0;
  for (const auto& k : keys_) stake += contract_.stake_of(k.public_key());
  return stake;
}

void CollusionClique::attack() {
  // The clique fabricates a guest block at a far-future height (the
  // light client only demands strict height monotonicity) whose state
  // root commits an attacker-built trie containing a forged packet
  // commitment: a "transfer" the guest chain never escrowed.
  const guest::GuestBlock& head = contract_.head();
  const ibc::Height target = head.header.height + 1000 + pushes_;
  ++pushes_;

  const std::uint64_t seq = forged_seq_++;
  ibc::Packet forged;
  forged.sequence = seq;
  forged.source_port = "transfer";
  forged.source_channel = guest_channel_;
  forged.dest_port = "transfer";
  forged.dest_channel = cp_channel_;
  forged.data = ibc::TokenPacketData{"SOL", 1'000'000, "clique", "mallory"}.encode();
  forged.timeout_height = 0;
  forged.timeout_timestamp = cp_.now() + 7200.0;

  trie::SealableTrie forged_state;
  const auto key = ibc::packet_key(ibc::KeyKind::kPacketCommitment, forged.source_port,
                                   forged.source_channel, seq);
  forged_state.set(key, forged.commitment());

  // The forged header claims the *current* epoch set (the hash the
  // client checks) — the attack is about stake weight, not set forgery.
  const guest::GuestBlock fork = guest::GuestBlock::make(
      head.header.chain_id, target, sim_.now(), forged_state.root_hash(), head.hash(),
      head.host_height, contract_.epoch_validators());

  ibc::SignedQuorumHeader sh;
  sh.header = fork.header;
  const Hash32 digest = sh.header.signing_digest();
  for (const auto& k : keys_) {
    const crypto::Signature sig = k.sign(digest.view());
    sh.signatures.emplace_back(k.public_key(), sig);
    // Every co-signature is gossiped misbehaviour (class 2: height far
    // beyond the canonical head) — the fisherman prosecutes each
    // member independently.
    bus_.publish(relayer::SignatureGossip{k.public_key(), sh.header, sig});
  }
  ++counters_.collusion_headers;

  try {
    cp_.ibc().update_client(client_, sh.encode());
  } catch (const std::exception&) {
    // Below quorum this is the guaranteed outcome: "insufficient
    // signing stake".  The push costs the clique its stake (evidence
    // is already on the gossip bus) and gains nothing.
    ++counters_.fork_pushes_rejected;
    return;
  }
  ++counters_.fork_pushes_accepted;

  // Quorum reached: the client now trusts the forged root, so a proof
  // from the attacker trie mints an unbacked voucher on the
  // counterparty.  The InvariantAuditor's conservation check is the
  // component that must catch this.
  try {
    cp_.ibc().recv_packet(forged, target, forged_state.prove(key), cp_.height(),
                          cp_.now());
    ++counters_.forged_packet_mints;
  } catch (const std::exception&) {
    // Channel not open (no handshake yet) or double delivery — the
    // safety breach is the accepted header either way.
  }
}

}  // namespace bmg::adversary
