// Fishermen (paper §III-C) and the off-chain gossip they listen to.
//
// Validators gossip their block signatures off-chain (in reality:
// mempool observation, p2p gossip, or the host chain itself).  A
// fisherman records every (validator, height, header, signature)
// observation; the moment it sees conflicting headers signed by the
// same validator at one height — or a signature for a block that
// contradicts the canonical chain — it submits evidence to the Guest
// Contract and collects the slashing reward.
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "guest/contract.hpp"
#include "host/chain.hpp"
#include "relayer/tx_pipeline.hpp"
#include "sim/agent.hpp"
#include "sim/scheduler.hpp"

namespace bmg::relayer {

/// One gossiped signature observation.
struct SignatureGossip {
  crypto::PublicKey validator;
  ibc::QuorumHeader header;
  crypto::Signature signature;
};

/// Trivial pub/sub bus for off-chain gossip between agents.
class GossipBus {
 public:
  using Handler = std::function<void(const SignatureGossip&)>;

  void subscribe(Handler handler) { handlers_.push_back(std::move(handler)); }

  void publish(const SignatureGossip& gossip) {
    for (const auto& h : handlers_) h(gossip);
  }

 private:
  std::vector<Handler> handlers_;
};

class FishermanAgent final : public sim::CrashableAgent {
 public:
  FishermanAgent(sim::Simulation& sim, host::Chain& host, guest::GuestContract& contract,
                 GossipBus& bus, crypto::PublicKey payer, PipelineConfig pipeline_cfg = {})
      : CrashableAgent(sim, "fisherman"),
        host_(host),
        contract_(contract),
        bus_(bus),
        payer_(std::move(payer)),
        // A stream distinct from the relayers'.
        pipeline_(sim, host, Rng(crypto::fold_key(0xF15'4E12'3A5Eull, payer_)),
                  pipeline_cfg) {}

  void start() {
    bus_.subscribe([this](const SignatureGossip& g) {
      if (running()) on_gossip(g);
    });
  }

  [[nodiscard]] std::uint64_t evidence_submitted() const { return submitted_; }
  [[nodiscard]] std::uint64_t evidence_accepted() const { return accepted_; }
  /// Evidence sequences recovered from on-chain staging buffers after a
  /// crash (each one would have been silently lost before PR 8).
  [[nodiscard]] std::uint64_t evidence_rederived() const { return rederived_; }
  /// Sim time this fisherman first decided to prosecute `offender`;
  /// survives crashes (it is measurement state, not process state).
  [[nodiscard]] std::optional<double> first_detected(
      const crypto::PublicKey& offender) const {
    const auto it = first_detect_.find(offender);
    if (it == first_detect_.end()) return std::nullopt;
    return it->second;
  }
  /// Pipeline state (retries, dead letters, structured errors).
  [[nodiscard]] const TxPipeline& pipeline() const { return pipeline_; }

 private:
  /// Observation memory is ephemeral by design: it dies with the
  /// process.  Equivocations gossiped while down are missed (a real
  /// fisherman has the same blind spot), but the on-chain ban set is
  /// durable, so successfully prosecuted offenders stay prosecuted.
  void on_crash() override {
    pipeline_.reset();
    observations_.clear();
    prosecuted_.clear();
  }
  /// Observation memory is gone, but anything this fisherman already
  /// *staged on chain* is not: scan our staging buffers for evidence
  /// blobs whose prosecution never completed and resubmit the finishing
  /// transaction.  Without this, a crash inside the prosecution window
  /// silently loses the evidence — the offender keeps its stake even
  /// though the proof is sitting on chain, already paid for.
  void on_restart() override { rederive_pending_evidence(); }

  void on_gossip(const SignatureGossip& gossip) {
    const auto key = std::make_pair(gossip.validator, gossip.header.height);
    auto& seen = observations_[key];

    // Case 1 (§III-C): two different blocks signed at the same height.
    for (const auto& prior : seen) {
      if (prior.header.signing_digest() != gossip.header.signing_digest()) {
        submit_double_sign(prior, gossip);
        seen.push_back(gossip);
        return;
      }
    }

    // Cases 2/3: height beyond the head, or conflicting with the
    // canonical block at that height.
    bool bogus = false;
    if (gossip.header.height >= contract_.block_count()) {
      bogus = true;
    } else if (gossip.header.signing_digest() !=
               contract_.block_at(gossip.header.height).hash()) {
      bogus = true;
    }
    if (bogus && !contract_.is_banned(gossip.validator) &&
        prosecuted_.insert(gossip.validator).second) {
      submit_single_header(gossip);
    }
    seen.push_back(gossip);
  }

  void submit_double_sign(const SignatureGossip& a, const SignatureGossip& b) {
    // The in-memory prosecuted_ set dies on crash; the chain's ban set
    // is the durable record, so check it first to avoid re-submitting
    // evidence for an offender a previous incarnation already slashed.
    if (contract_.is_banned(a.validator)) return;
    if (!prosecuted_.insert(a.validator).second) return;
    note_detection(a.validator);
    submit_evidence(guest::ix::Evidence{
        a.validator, {a.header, b.header}, {a.signature, b.signature}});
  }

  void submit_single_header(const SignatureGossip& g) {
    note_detection(g.validator);
    submit_evidence(guest::ix::Evidence{g.validator, {g.header}, {g.signature}});
  }

  void note_detection(const crypto::PublicKey& offender) {
    first_detect_.emplace(offender, sim_.now());
  }

  /// The pre-compile verifications SubmitEvidence needs: the offender's
  /// signature over each header, taken from the evidence's annex.
  [[nodiscard]] static std::vector<host::SigVerify> sig_verifies(
      const guest::ix::Evidence& ev) {
    std::vector<host::SigVerify> sigs;
    sigs.reserve(ev.headers.size());
    for (std::size_t i = 0; i < ev.headers.size(); ++i)
      sigs.push_back(
          host::SigVerify{ev.offender, ev.headers[i].signing_digest(), ev.signatures[i]});
    return sigs;
  }

  void submit_evidence(const guest::ix::Evidence& ev) {
    const std::uint64_t buffer_id = next_buffer_++;
    std::vector<host::Transaction> txs = guest::ix::staged_call(
        payer_, host::FeePolicy::base(), buffer_id, guest::ix::evidence_payload(ev),
        guest::ix::submit_evidence(buffer_id), "fisherman:evidence", "fisherman:chunk");
    txs.back().sig_verifies = sig_verifies(ev);
    ++submitted_;
    // Evidence must survive drops and blackholes: a fisherman that
    // gives up on the first lost transaction lets a double-signer keep
    // its stake.  The pipeline retries with backoff and fee escalation
    // until the sequence lands or the budget dead-letters it.
    submit(std::move(txs));
  }

  void submit(std::vector<host::Transaction> txs) {
    pipeline_.submit_sequence(
        std::move(txs),
        [this](const SequenceOutcome& out) {
          if (out.ok) ++accepted_;
        },
        "fisherman");
  }

  /// Post-crash recovery: the chain remembers what this process forgot.
  /// Any staging buffer of ours still unconsumed is a prosecution that
  /// never finished — decode its evidence, rebuild the sig-verify set
  /// from the annex, and resubmit just the finishing submit_evidence
  /// transaction (the chunks are already on chain; re-uploading them
  /// would double-pay).
  void rederive_pending_evidence() {
    const std::vector<std::uint64_t> staged = contract_.staging_buffers_of(payer_);
    for (const std::uint64_t id : staged)
      next_buffer_ = std::max(next_buffer_, id + 1);
    for (const std::uint64_t id : staged) {
      const auto blob = contract_.staging_buffer_bytes(payer_, id);
      if (!blob) continue;
      guest::ix::Evidence ev;
      try {
        ev = guest::ix::decode_evidence(*blob);
      } catch (const std::exception&) {
        // Truncated blob: the crash hit mid-upload, before the evidence
        // was fully staged.  Nothing recoverable here.
        continue;
      }
      if (ev.signatures.size() != ev.headers.size()) continue;  // no annex
      if (contract_.is_banned(ev.offender)) continue;
      if (!prosecuted_.insert(ev.offender).second) continue;
      host::Transaction fin;
      fin.payer = payer_;
      fin.label = "fisherman:evidence";
      fin.instructions.push_back(guest::ix::submit_evidence(id));
      fin.sig_verifies = sig_verifies(ev);
      std::vector<host::Transaction> txs;
      txs.push_back(std::move(fin));
      ++rederived_;
      ++submitted_;
      submit(std::move(txs));
    }
  }

  host::Chain& host_;
  guest::GuestContract& contract_;
  GossipBus& bus_;
  crypto::PublicKey payer_;

  TxPipeline pipeline_;

  std::map<std::pair<crypto::PublicKey, ibc::Height>, std::vector<SignatureGossip>>
      observations_;
  std::set<crypto::PublicKey> prosecuted_;
  /// First-detection timestamps; deliberately NOT cleared on crash —
  /// this is the measurement layer's record, not process memory.
  std::map<crypto::PublicKey, double> first_detect_;
  std::uint64_t next_buffer_ = 1;
  std::uint64_t submitted_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t rederived_ = 0;
};

}  // namespace bmg::relayer
