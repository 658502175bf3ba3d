#include "adversary/campaign.hpp"

#include <algorithm>

#include "host/constants.hpp"

namespace bmg::adversary {

Campaign::Campaign(relayer::Deployment& deployment, host::FaultPlan plan)
    : d_(deployment), plan_(std::move(plan)) {}

void Campaign::start() {
  if (started_) return;
  started_ = true;
  // Empty plan: attach nothing at all.  No windows, no agents, no
  // airdrops, no subscriptions, no RNG draws — the byte-identity
  // contract.
  if (plan_.empty()) {
    d_.start();
    return;
  }
  // Before any agent starts: the agents read their windows from the
  // host's plan, and FeeAttackerAgent::start already queries it.
  const host::FaultPlan& plan = d_.host().fault_plan().append(plan_);
  d_.start();

  bus_ = std::make_unique<relayer::GossipBus>();
  fisher_payer_ = crypto::PrivateKey::from_label("fisherman-payer").public_key();
  d_.host().airdrop(fisher_payer_, 10'000 * host::kLamportsPerSol);
  fisherman_ = std::make_unique<relayer::FishermanAgent>(d_.sim(), d_.host(),
                                                         d_.guest(), *bus_,
                                                         fisher_payer_);
  fisherman_->start();

  const std::uint64_t seed = d_.seed();

  using host::FaultKind;
  if (const int nbyz = std::max(plan_.max_agents(FaultKind::kEquivocate),
                                plan_.max_agents(FaultKind::kForkSign));
      nbyz > 0) {
    auto keys = pick_validator_keys(static_cast<std::size_t>(nbyz));
    for (std::size_t i = 0; i < keys.size(); ++i) {
      offenders_.push_back(keys[i].public_key());
      byzantine_.push_back(std::make_unique<ByzantineValidatorAgent>(
          d_.sim(), d_.host(), d_.guest(), *bus_, std::move(keys[i]), plan, counters_,
          i, seed));
      byzantine_.back()->start();
    }
  }

  if (const int nclique = plan_.max_agents(FaultKind::kCollude); nclique > 0) {
    auto keys = pick_validator_keys(static_cast<std::size_t>(nclique));
    for (const auto& k : keys) offenders_.push_back(k.public_key());
    clique_ = std::make_unique<CollusionClique>(
        d_.sim(), d_.cp(), d_.guest(), *bus_, std::move(keys),
        d_.guest_client_on_cp(), d_.guest_channel(), d_.cp_channel(), plan, counters_,
        seed);
    clique_->start();
  }

  if (plan_.has(FaultKind::kUpdateClobber) || plan_.has(FaultKind::kAckWithhold) ||
      plan_.has(FaultKind::kStaleReplay)) {
    griefer_payer_ = crypto::PrivateKey::from_label("griefer-relayer").public_key();
    d_.host().airdrop(griefer_payer_, 50'000 * host::kLamportsPerSol);
    griefer_ = std::make_unique<GriefingRelayerAgent>(
        d_.sim(), d_.host(), d_.guest(), d_.cp(), d_.guest_client_on_cp(),
        griefer_payer_, plan, counters_, seed);
    griefer_->start();
  }

  if (plan_.has(FaultKind::kFeeSpam)) {
    fee_payer_ = crypto::PrivateKey::from_label("fee-attacker").public_key();
    d_.host().airdrop(fee_payer_, 100'000 * host::kLamportsPerSol);
    fee_attacker_ = std::make_unique<FeeAttackerAgent>(d_.sim(), d_.host(), fee_payer_,
                                                       plan, counters_);
    fee_attacker_->start();
  }

  // Adversaries are processes too: crash windows naming them (or the
  // fisherman) now resolve, and any crash windows the plan brought are
  // armed.
  relayer::CrashController& ctl = d_.crash_controller();
  ctl.add(*fisherman_);
  for (auto& b : byzantine_) ctl.add(*b);
  if (clique_) ctl.add(*clique_);
  if (griefer_) ctl.add(*griefer_);
  if (fee_attacker_) ctl.add(*fee_attacker_);
  d_.schedule_crashes();

  subscribe_slash_events();
}

std::vector<crypto::PrivateKey> Campaign::pick_validator_keys(std::size_t n) const {
  // Corrupt the roster tail, silent (non-signing) validators first:
  // banning them costs the chain no finalisation power, which keeps
  // sub-quorum scenarios honest about *safety* without conflating the
  // result with a self-inflicted liveness stall.  Only when the plan
  // asks for more Byzantine stake than the silent tail holds do active
  // validators turn.
  const auto& vals = d_.validators();
  std::vector<std::size_t> order;
  for (std::size_t i = vals.size(); i-- > 0;)
    if (!vals[i]->profile().active) order.push_back(i);
  for (std::size_t i = vals.size(); i-- > 0;)
    if (vals[i]->profile().active) order.push_back(i);

  std::vector<crypto::PrivateKey> keys;
  for (const std::size_t idx : order) {
    if (keys.size() >= n) break;
    keys.push_back(vals[idx]->key());
  }
  return keys;
}

void Campaign::subscribe_slash_events() {
  d_.host().subscribe(guest::kProgramName, [this](const host::Event& ev) {
    if (ev.name != guest::GuestContract::kEvSlashed) return;
    Decoder dec(ev.data);
    crypto::ed25519::PublicKeyBytes raw{};
    const Bytes view = dec.raw(raw.size());
    std::copy(view.begin(), view.end(), raw.begin());
    const crypto::PublicKey offender(raw);
    ++economics_.slashed_count;
    if (dec.remaining() >= 24) {
      economics_.stake_slashed += dec.u64();
      economics_.reporter_reward += dec.u64();
      economics_.stake_burned += dec.u64();
    }
    if (fisherman_) {
      if (const auto t0 = fisherman_->first_detected(offender))
        detection_latency_.add(ev.time - *t0);
    }
  });
}

std::size_t Campaign::offenders_banned() const {
  std::size_t n = 0;
  for (const auto& pk : offenders_)
    if (d_.guest().is_banned(pk)) ++n;
  return n;
}

double Campaign::attacker_fees_usd() const {
  std::uint64_t lamports = 0;
  if (griefer_) lamports += d_.host().payer_stats(griefer_payer_).fees_lamports;
  if (fee_attacker_) lamports += d_.host().payer_stats(fee_payer_).fees_lamports;
  return host::lamports_to_usd(lamports);
}

double Campaign::fisherman_fees_usd() const {
  if (!fisherman_) return 0.0;
  return host::lamports_to_usd(d_.host().payer_stats(fisher_payer_).fees_lamports);
}

}  // namespace bmg::adversary
