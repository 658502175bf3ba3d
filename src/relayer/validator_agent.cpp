#include "relayer/validator_agent.hpp"

namespace bmg::relayer {

ValidatorAgent::ValidatorAgent(sim::Simulation& sim, host::Chain& host,
                               guest::GuestContract& contract, crypto::PrivateKey key,
                               ValidatorProfile profile, Rng rng)
    : CrashableAgent(sim, profile.name),
      host_(host),
      contract_(contract),
      key_(std::move(key)),
      profile_(std::move(profile)),
      rng_(rng) {}

void ValidatorAgent::start() {
  host_.subscribe(guest::kProgramName, [this](const host::Event& ev) {
    if (!running()) return;
    if (ev.name != guest::GuestContract::kEvNewBlock) return;
    Decoder d(ev.data);
    const ibc::Height height = d.u64();
    on_new_block(height, ev.time);
  });
}

void ValidatorAgent::on_restart() {
  if (!profile_.active) return;
  if (!contract_.epoch_validators().contains(pubkey())) return;
  // Durable state is entirely on-chain: if the head block is still
  // collecting signatures and ours is not among them, sign it now —
  // NewBlock events fired while down are gone for good.
  const guest::GuestBlock& head = contract_.head();
  if (!head.finalised && head.signers.count(pubkey()) == 0)
    on_new_block(head.header.height, sim_.now());
}

void ValidatorAgent::on_new_block(ibc::Height height, double announced_at) {
  if (!profile_.active) return;
  if (!contract_.epoch_validators().contains(pubkey())) return;

  const double delay = profile_.latency.sample(rng_);
  sim_.after_cancellable(
      delay,
      [this, height, announced_at] {
        // A host reorg may have rolled the announced block away while
        // this signing delay was pending; if the winning fork re-mints
        // it, the re-fired NewBlock event schedules a fresh signing.
        if (height >= contract_.block_count()) return;
        // Read the block digest from the contract account and sign it.
        const Hash32 digest = contract_.block_at(height).hash();
        host::Transaction tx;
        tx.payer = pubkey();
        tx.label = "sign:" + profile_.name;
        tx.fee = profile_.fee;
        tx.instructions.push_back(guest::ix::sign_block(height, pubkey()));
        tx.sig_verifies.push_back(
            host::SigVerify{pubkey(), digest, key_.sign(digest.view())});
        // Pending signing delays die with the process; a Sign tx
        // already submitted still lands (the chain has it), but a dead
        // process records nothing.
        const std::uint64_t life = crash_count();
        host_.submit(std::move(tx),
                     [this, announced_at, life](const host::TxResult& res) {
                       if (life != crash_count()) return;  // process died meanwhile
                       if (!res.executed || !res.success) return;
                       ++sigs_;
                       latency_.add(res.time - announced_at);
                     });
      },
      timer_owner());
}

}  // namespace bmg::relayer
