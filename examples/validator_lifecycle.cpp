// Validator lifecycle: staking in, epoch rotation, double-signing
// caught by a fisherman, slashing, and the week-long stake hold on
// exit (paper §III-B, §III-C, §VI-A).
//
//   $ ./examples/validator_lifecycle
#include <cstdio>

#include "relayer/deployment.hpp"

using namespace bmg;

namespace {

host::TxResult submit_and_wait(relayer::Deployment& d, host::Transaction tx) {
  host::TxResult out;
  bool got = false;
  d.host().submit(std::move(tx), [&](const host::TxResult& r) {
    out = r;
    got = true;
  });
  (void)d.run_until([&] { return got; }, 120.0);
  return out;
}

}  // namespace

int main() {
  std::printf("== Guest blockchain validator lifecycle ==\n\n");

  relayer::DeploymentConfig cfg;
  cfg.seed = 11;
  cfg.guest.delta_seconds = 30.0;
  cfg.guest.epoch_length_host_slots = 500;  // ~3 min epochs for the demo
  cfg.guest.unstake_hold_seconds = 600.0;   // 10 min hold for the demo
  cfg.guest.max_validators = 6;
  for (int i = 0; i < 4; ++i) {
    relayer::ValidatorProfile p;
    p.name = "genesis-" + std::to_string(i);
    p.stake = 100;
    p.latency = sim::LatencyProfile::from_quantiles(1.5, 2.5, 0.3);
    p.fee = host::FeePolicy::priority(1'000'000);
    cfg.validators.push_back(std::move(p));
  }
  cfg.counterparty.num_validators = 8;
  relayer::Deployment d(std::move(cfg));
  d.start();
  d.run_for(2.0);

  std::printf("genesis epoch: %zu validators, total stake %llu, quorum %llu\n\n",
              d.guest().epoch_validators().size(),
              (unsigned long long)d.guest().epoch_validators().total_stake(),
              (unsigned long long)d.guest().epoch_validators().quorum_stake());

  // --- a new validator stakes in ---------------------------------------
  const crypto::PrivateKey newcomer = crypto::PrivateKey::from_label("newcomer");
  d.host().airdrop(newcomer.public_key(), 100 * host::kLamportsPerSol);
  {
    host::Transaction tx;
    tx.payer = newcomer.public_key();
    tx.instructions.push_back(guest::ix::stake(250));
    const auto res = submit_and_wait(d, std::move(tx));
    std::printf("[%7.1fs] newcomer stakes 250: %s\n", d.sim().now(),
                res.success ? "ok" : res.error.c_str());
  }

  // Wait for the epoch to rotate (blocks keep coming via Δ).
  (void)d.run_until(
      [&] { return d.guest().epoch_validators().contains(newcomer.public_key()); },
      1800.0);
  std::printf("[%7.1fs] epoch rotated: newcomer is now in the validator set"
              " (%zu validators)\n\n",
              d.sim().now(), d.guest().epoch_validators().size());

  // --- misbehaviour: genesis-0 double-signs -----------------------------
  const crypto::PrivateKey& offender = d.validators()[0]->key();
  guest::GuestBlock fork_a = guest::GuestBlock::make(
      "guest-1", 99, d.sim().now(), Hash32{}, Hash32{}, 1, d.guest().epoch_validators());
  guest::GuestBlock fork_b = guest::GuestBlock::make(
      "guest-1", 99, d.sim().now() + 1, Hash32{}, Hash32{}, 1,
      d.guest().epoch_validators());
  std::printf("[%7.1fs] genesis-0 signs two different blocks at height 99"
              " (equivocation)\n",
              d.sim().now());

  // A fisherman notices and submits evidence.
  const crypto::PrivateKey fisherman = crypto::PrivateKey::from_label("fisherman");
  d.host().airdrop(fisherman.public_key(), 100 * host::kLamportsPerSol);
  const guest::ix::Evidence evidence{offender.public_key(),
                                     {fork_a.header, fork_b.header}, {}};
  // Chunk-upload the evidence, then submit with the offender's two
  // pre-compile-verified signatures attached.
  std::vector<host::Transaction> txs = guest::ix::staged_call(
      fisherman.public_key(), host::FeePolicy::base(), 1,
      guest::ix::evidence_payload(evidence), guest::ix::submit_evidence(1), "", "");
  host::Transaction evtx = std::move(txs.back());
  txs.pop_back();
  for (host::Transaction& tx : txs) (void)submit_and_wait(d, std::move(tx));
  const Hash32 da = fork_a.hash(), db = fork_b.hash();
  evtx.sig_verifies.push_back(
      host::SigVerify{offender.public_key(), da, offender.sign(da.view())});
  evtx.sig_verifies.push_back(
      host::SigVerify{offender.public_key(), db, offender.sign(db.view())});
  const std::uint64_t fisherman_before = d.host().balance(fisherman.public_key());
  const auto res = submit_and_wait(d, std::move(evtx));
  std::printf("[%7.1fs] fisherman submits evidence: %s\n", d.sim().now(),
              res.success ? "validator SLASHED" : res.error.c_str());
  std::printf("           offender banned: %s, stake now %llu\n",
              d.guest().is_banned(offender.public_key()) ? "yes" : "no",
              (unsigned long long)d.guest().stake_of(offender.public_key()));
  std::printf("           fisherman reward: %lld lamports (half the slashed stake)\n\n",
              (long long)(d.host().balance(fisherman.public_key()) + res.fee.total() -
                          fisherman_before));

  // --- voluntary exit ----------------------------------------------------
  {
    host::Transaction tx;
    tx.payer = newcomer.public_key();
    tx.instructions.push_back(guest::ix::unstake(250));
    (void)submit_and_wait(d, std::move(tx));
    std::printf("[%7.1fs] newcomer unstakes 250 (held for %.0f s before withdrawal)\n",
                d.sim().now(), 600.0);

    host::Transaction early;
    early.payer = newcomer.public_key();
    early.instructions.push_back(guest::ix::withdraw_stake());
    const auto early_res = submit_and_wait(d, std::move(early));
    std::printf("[%7.1fs] early withdrawal attempt: %s\n", d.sim().now(),
                early_res.success ? "ok (?)" : early_res.error.c_str());

    d.run_for(700.0);
    host::Transaction late;
    late.payer = newcomer.public_key();
    late.instructions.push_back(guest::ix::withdraw_stake());
    const auto late_res = submit_and_wait(d, std::move(late));
    std::printf("[%7.1fs] withdrawal after hold: %s\n", d.sim().now(),
                late_res.success ? "funds returned" : late_res.error.c_str());
  }

  std::printf("\nfinal epoch size: %zu, guest blocks: %zu\n",
              d.guest().epoch_validators().size(), d.guest().block_count());
  return 0;
}
