// The relayer (paper §III-C, Alg. 2 lower half).
//
// Watches both chains and forwards packets, acknowledgements and light
// client updates.  The guest→counterparty direction is cheap (the
// counterparty is a normal IBC chain); the counterparty→guest
// direction is where the host's limits bite: every light client update
// must be chunk-uploaded and signature-verified across ~36 host
// transactions (paper §V-A), and every packet delivery takes 4-5 more.
// This agent records exactly the statistics behind Figs. 4 and 5.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "common/stats.hpp"
#include "counterparty/chain.hpp"
#include "guest/contract.hpp"
#include "host/chain.hpp"
#include "relayer/tx_pipeline.hpp"
#include "sim/agent.hpp"
#include "sim/scheduler.hpp"

namespace bmg::relayer {

struct RelayerConfig {
  /// Ed25519 pre-compile verifications per host transaction.  Real
  /// Tendermint commits sign per-validator vote payloads (~200 bytes
  /// each), which caps this near 4 within the 1232-byte limit.  The
  /// constructor throws std::invalid_argument below 1.
  int sigs_per_update_tx = 4;
  /// Event-polling latency before the relayer reacts.
  double poll_latency_s = 0.3;
  /// Retry/backoff/fee-escalation policy of the submission pipeline.
  PipelineConfig pipeline;
};

class RelayerAgent final : public sim::CrashableAgent {
 public:
  RelayerAgent(sim::Simulation& sim, host::Chain& host, guest::GuestContract& contract,
               counterparty::CounterpartyChain& cp, ibc::ClientId guest_client_on_cp,
               crypto::PublicKey payer, RelayerConfig cfg = {});

  /// Subscribes to both chains' events and starts steady-state
  /// relaying.  The IBC handshake (Deployment::open_ibc) must finish
  /// before packets flow, but start() can be called first.
  void start();

  /// Rebuilds the relay queues from authoritative chain state: pending
  /// packet commitments and missing receipts/acks on both chains (via
  /// each module's seq-tracker surface), the contract's staged buffers
  /// and half-verified pending update.  Public so tests can exercise
  /// resync without a crash.
  void resync();

  // --- metrics -----------------------------------------------------------
  /// Per light-client update pushed into the guest (Figs. 4 and 5).
  [[nodiscard]] const Series& update_tx_counts() const { return update_txs_; }
  [[nodiscard]] const Series& update_durations() const { return update_durations_; }
  [[nodiscard]] const Series& update_costs_usd() const { return update_costs_; }
  /// Per ReceivePacket delivery into the guest (§V-A, §V-B).
  [[nodiscard]] const Series& recv_tx_counts() const { return recv_txs_; }
  [[nodiscard]] const Series& recv_costs_usd() const { return recv_costs_; }
  [[nodiscard]] std::uint64_t packets_relayed_to_cp() const { return to_cp_packets_; }
  [[nodiscard]] std::uint64_t packets_relayed_to_guest() const { return to_guest_packets_; }
  /// Packets, acks and timeouts not relayed into the guest because the
  /// counterparty could no longer prove them (the key was sealed, or
  /// the height left its snapshot window).
  [[nodiscard]] std::uint64_t proofs_skipped() const { return proofs_skipped_; }

  [[nodiscard]] const crypto::PublicKey& payer() const { return payer_; }

  /// The submission pipeline every host transaction of this relayer
  /// goes through (per-tx deadlines, backoff, fee escalation,
  /// mid-sequence resumption); its counters are the relay-error record.
  [[nodiscard]] const TxPipeline& pipeline() const { return pipeline_; }
  [[nodiscard]] TxPipeline& pipeline() { return pipeline_; }

  // --- building blocks (also used by Deployment for the handshake) --------
  using SequenceOutcome = relayer::SequenceOutcome;
  using SequenceDone = relayer::SequenceDone;

  /// guest::ix::staged_call of `payload` into a fresh staging buffer
  /// with this relayer's payer and fee, chunked to the host's
  /// transaction size limit, ending in
  /// `op(buffer id)`: chunks labelled `<label>:chunk`, the final
  /// transaction `label`.
  [[nodiscard]] std::vector<host::Transaction> staged_call(
      ByteView payload, host::Instruction (*op)(std::uint64_t), const std::string& label);

  /// Builds the full light-client-update transaction sequence for a
  /// counterparty header (chunks + begin + N sig-verify txs + finish).
  [[nodiscard]] std::vector<host::Transaction> build_update_sequence(
      const ibc::SignedQuorumHeader& sh);

  /// Builds the tail of an update the contract already holds in its
  /// pending slot: sig-verify txs for the not-yet-seen signatures plus
  /// the finish — no chunk re-upload, no begin.  How a restarted
  /// relayer resumes a half-verified update instead of starting over.
  [[nodiscard]] std::vector<host::Transaction> build_update_resume_sequence(
      const ibc::SignedQuorumHeader& sh,
      const guest::GuestContract::PendingUpdateInfo& pending);

  /// Pushes a finalised guest header into the counterparty's guest
  /// light client (direct chain call after network latency).
  void push_guest_header_to_cp(ibc::Height guest_height,
                               std::function<void()> done = {});

  /// Brings the guest's counterparty client to `cp_height`, then calls
  /// `done`.  Deduplicates: if an update is already in flight, the
  /// request queues behind it.
  void update_guest_client(ibc::Height cp_height, std::function<void()> done);

  /// Delivers a counterparty-sent packet into the guest (assumes the
  /// guest's client already knows `proof_height`).
  void deliver_packet_to_guest(const ibc::Packet& packet, ibc::Height proof_height,
                               SequenceDone done = {});
  void deliver_ack_to_guest(const ibc::Packet& packet, const ibc::Acknowledgement& ack,
                            ibc::Height proof_height, SequenceDone done = {});
  void deliver_timeout_to_guest(const ibc::Packet& packet, ibc::Height proof_height,
                                SequenceDone done = {});

 private:
  /// Every in-memory queue and in-flight pipeline sequence is dropped
  /// on the floor.  Subscriptions stay registered but their handlers
  /// no-op while down (missed events).
  void on_crash() override;
  /// Resyncs from on-chain state alone.
  void on_restart() override;
  void on_guest_block_finalised(ibc::Height height);
  void on_cp_block(ibc::Height height);
  void pump_cp_to_guest();
  void update_guest_client_attempt(ibc::Height cp_height, std::function<void()> done,
                                   int rebuilds_left);
  /// Appends one VerifyUpdateSignatures transaction per
  /// `sigs_per_update_tx` signatures of `sh` whose signer is not in
  /// `seen` (sorted), then the FinishClientUpdate transaction.
  void append_update_signatures(std::vector<host::Transaction>& txs,
                                const ibc::SignedQuorumHeader& sh,
                                const std::vector<crypto::PublicKey>& seen);
  /// First cp height whose snapshot holds `key`: the latest block if
  /// it already does, else the next one.
  [[nodiscard]] ibc::Height cp_ready_height(ByteView key) const;
  /// The counterparty's proof of `key` at `h`, or nullopt, counted in
  /// proofs_skipped(), when it has none.
  [[nodiscard]] std::optional<trie::Proof> cp_proof(ibc::Height h, ByteView key);
  /// Re-delivers a guest-sent packet whose FinalisedBlock event was
  /// missed while down, proving against the latest finalised block.
  void redeliver_guest_packet_to_cp(const ibc::Packet& packet, ibc::Height gh);

  host::Chain& host_;
  guest::GuestContract& contract_;
  counterparty::CounterpartyChain& cp_;
  ibc::ClientId guest_client_on_cp_;
  crypto::PublicKey payer_;
  RelayerConfig cfg_;

  // Ephemeral state below dies with crash(); everything else the agent
  // needs is reconstructed by resync().
  std::uint64_t next_buffer_id_ = 1;

  // Counterparty-side packets waiting to be relayed into the guest:
  // (packet, first cp height whose snapshot has the commitment).
  std::deque<std::pair<ibc::Packet, ibc::Height>> cp_outgoing_;
  // Acks produced on the counterparty for guest-sent packets.
  std::deque<std::tuple<ibc::Packet, ibc::Acknowledgement, ibc::Height>> cp_acks_;
  // Packets we delivered into the counterparty; remembered so we can
  // prove their acks... (guest-sent packets acked on cp are in cp_acks_).
  // Packets delivered into the guest whose acks must flow back to cp.
  std::vector<ibc::Packet> guest_acks_pending_;

  bool guest_update_in_flight_ = false;
  std::deque<std::pair<ibc::Height, std::function<void()>>> queued_updates_;

  Series update_txs_, update_durations_, update_costs_;
  Series recv_txs_, recv_costs_;

  TxPipeline pipeline_;

  std::uint64_t to_cp_packets_ = 0;
  std::uint64_t to_guest_packets_ = 0;
  std::uint64_t proofs_skipped_ = 0;
};

}  // namespace bmg::relayer
