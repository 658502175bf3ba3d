#include "ibc/module.hpp"

#include "crypto/sha256.hpp"

namespace bmg::ibc {

Bytes ClientStateCommitment::encode() const {
  Encoder e;
  e.str(chain_id).hash(validator_set_hash);
  return e.take();
}

ClientStateCommitment ClientStateCommitment::decode(ByteView wire) {
  Decoder d(wire);
  ClientStateCommitment c;
  c.chain_id = d.str();
  c.validator_set_hash = d.hash();
  d.expect_done();
  return c;
}

Hash32 ClientStateCommitment::commitment() const {
  return crypto::Sha256::digest(encode());
}

IbcModule::IbcModule(trie::SealableTrie& store, std::uint64_t ack_seal_lag)
    : store_(store), ack_seal_lag_(ack_seal_lag) {}

void IbcModule::set_self_identity(std::string chain_id,
                                  std::function<Hash32()> current_validator_set_hash) {
  self_chain_id_ = std::move(chain_id);
  self_validator_set_hash_ = std::move(current_validator_set_hash);
}

void IbcModule::store_client_state(const ClientId& id) {
  const LightClient& c = client(id);
  if (c.tracked_chain_id().empty()) return;  // test clients commit nothing
  const ClientStateCommitment state{c.tracked_chain_id(),
                                    c.tracked_validator_set_hash()};
  store_.set(client_key(id), state.commitment());
}

void IbcModule::validate_self_client(const ConnectionEnd& conn_for_proof,
                                     Height proof_height,
                                     const ClientId& counterparty_client,
                                     const std::optional<ClientStateCommitment>& claimed,
                                     const trie::Proof& proof) const {
  if (self_chain_id_.empty()) return;  // identity not declared: skip (tests)
  if (!claimed)
    throw IbcError("validate_self_client: counterparty client state required");
  if (claimed->chain_id != self_chain_id_)
    throw IbcError("validate_self_client: counterparty client tracks chain '" +
                   claimed->chain_id + "', not '" + self_chain_id_ + "'");
  if (self_validator_set_hash_ &&
      claimed->validator_set_hash != self_validator_set_hash_())
    throw IbcError("validate_self_client: counterparty client trusts a stale or "
                   "foreign validator set");
  verify_membership(conn_for_proof, proof_height, proof,
                    client_key(counterparty_client), claimed->commitment(),
                    "validate_self_client");
}

// --- clients --------------------------------------------------------------

ClientId IbcModule::add_client(std::unique_ptr<LightClient> client) {
  const ClientId id =
      client->client_type() + "-" + std::to_string(next_client_++);
  clients_[id] = std::move(client);
  store_client_state(id);
  return id;
}

LightClient& IbcModule::client(const ClientId& id) {
  const auto it = clients_.find(id);
  if (it == clients_.end()) throw IbcError("unknown client: " + id);
  return *it->second;
}

const LightClient& IbcModule::client(const ClientId& id) const {
  const auto it = clients_.find(id);
  if (it == clients_.end()) throw IbcError("unknown client: " + id);
  return *it->second;
}

void IbcModule::update_client(const ClientId& id, ByteView header) {
  client(id).update(header);
  // Validator-set rotations change the committed client state.
  store_client_state(id);
}

// --- proof plumbing ---------------------------------------------------------

ConsensusState IbcModule::consensus_for(const ConnectionEnd& conn, Height proof_height,
                                        const char* what) const {
  const auto cs = client(conn.client_id).consensus_at(proof_height);
  if (!cs)
    throw IbcError(std::string(what) + ": no consensus state at height " +
                   std::to_string(proof_height));
  return *cs;
}

void IbcModule::verify_membership(const ConnectionEnd& conn, Height proof_height,
                                  const trie::Proof& proof, ByteView key,
                                  const Hash32& value, const char* what) const {
  const ConsensusState cs = consensus_for(conn, proof_height, what);
  const trie::VerifyOutcome out = trie::verify_proof(cs.state_root, key, proof);
  if (out.kind != trie::VerifyOutcome::Kind::kFound)
    throw IbcError(std::string(what) + ": membership proof failed");
  if (out.value != value)
    throw IbcError(std::string(what) + ": proven value mismatch");
}

void IbcModule::verify_non_membership(const ConnectionEnd& conn, Height proof_height,
                                      const trie::Proof& proof, ByteView key,
                                      const char* what) const {
  const ConsensusState cs = consensus_for(conn, proof_height, what);
  const trie::VerifyOutcome out = trie::verify_proof(cs.state_root, key, proof);
  if (out.kind != trie::VerifyOutcome::Kind::kAbsent)
    throw IbcError(std::string(what) + ": non-membership proof failed");
}

void IbcModule::store_connection(const ConnectionId& id, const ConnectionEnd& end) {
  connections_[id] = end;
  store_.set(connection_key(id), end.commitment());
}

void IbcModule::store_channel(const PortId& port, const ChannelId& id,
                              const ChannelEnd& end) {
  auto it = channels_.find({port, id});
  if (it == channels_.end()) {
    ChannelRecord rec;
    rec.acks = SeqTracker(ack_seal_lag_);
    rec.end = end;
    channels_.emplace(std::make_pair(port, id), std::move(rec));
  } else {
    it->second.end = end;
  }
  store_.set(channel_key(port, id), end.commitment());
}

// --- connection handshake ----------------------------------------------------

ConnectionId IbcModule::conn_open_init(const ClientId& client_id,
                                       const ClientId& counterparty_client) {
  (void)client(client_id);  // must exist
  const ConnectionId id = "connection-" + std::to_string(next_connection_++);
  ConnectionEnd end;
  end.state = ConnectionState::kInit;
  end.client_id = client_id;
  end.counterparty_client_id = counterparty_client;
  store_connection(id, end);
  return id;
}

ConnectionId IbcModule::conn_open_try(const ClientId& client_id,
                                      const ClientId& counterparty_client,
                                      const ConnectionId& counterparty_connection,
                                      const ConnectionEnd& counterparty_end,
                                      Height proof_height, const trie::Proof& proof,
                                      const std::optional<ClientStateCommitment>&
                                          counterparty_client_state,
                                      const trie::Proof& client_state_proof) {
  (void)client(client_id);
  if (counterparty_end.state != ConnectionState::kInit)
    throw IbcError("conn_open_try: counterparty end not in INIT");

  ConnectionEnd self;
  self.state = ConnectionState::kTryOpen;
  self.client_id = client_id;
  self.counterparty_connection = counterparty_connection;
  self.counterparty_client_id = counterparty_client;

  verify_membership(self, proof_height, proof, connection_key(counterparty_connection),
                    counterparty_end.commitment(), "conn_open_try");
  validate_self_client(self, proof_height, counterparty_end.client_id,
                       counterparty_client_state, client_state_proof);

  const ConnectionId id = "connection-" + std::to_string(next_connection_++);
  store_connection(id, self);
  return id;
}

void IbcModule::conn_open_ack(const ConnectionId& connection_id,
                              const ConnectionId& counterparty_connection,
                              const ConnectionEnd& counterparty_end, Height proof_height,
                              const trie::Proof& proof,
                              const std::optional<ClientStateCommitment>&
                                  counterparty_client_state,
                              const trie::Proof& client_state_proof) {
  auto it = connections_.find(connection_id);
  if (it == connections_.end()) throw IbcError("conn_open_ack: unknown connection");
  ConnectionEnd self = it->second;
  if (self.state != ConnectionState::kInit)
    throw IbcError("conn_open_ack: connection not in INIT");
  if (counterparty_end.state != ConnectionState::kTryOpen)
    throw IbcError("conn_open_ack: counterparty end not in TRYOPEN");
  if (counterparty_end.counterparty_connection != connection_id)
    throw IbcError("conn_open_ack: counterparty end names a different connection");

  verify_membership(self, proof_height, proof, connection_key(counterparty_connection),
                    counterparty_end.commitment(), "conn_open_ack");
  validate_self_client(self, proof_height, counterparty_end.client_id,
                       counterparty_client_state, client_state_proof);

  self.state = ConnectionState::kOpen;
  self.counterparty_connection = counterparty_connection;
  store_connection(connection_id, self);
}

void IbcModule::conn_open_confirm(const ConnectionId& connection_id,
                                  const ConnectionEnd& counterparty_end,
                                  Height proof_height, const trie::Proof& proof) {
  auto it = connections_.find(connection_id);
  if (it == connections_.end()) throw IbcError("conn_open_confirm: unknown connection");
  ConnectionEnd self = it->second;
  if (self.state != ConnectionState::kTryOpen)
    throw IbcError("conn_open_confirm: connection not in TRYOPEN");
  if (counterparty_end.state != ConnectionState::kOpen)
    throw IbcError("conn_open_confirm: counterparty end not OPEN");

  verify_membership(self, proof_height, proof,
                    connection_key(self.counterparty_connection),
                    counterparty_end.commitment(), "conn_open_confirm");

  self.state = ConnectionState::kOpen;
  store_connection(connection_id, self);
}

// --- channel handshake --------------------------------------------------------

ChannelId IbcModule::chan_open_init(const PortId& port, const ConnectionId& connection_id,
                                    const PortId& counterparty_port) {
  const ConnectionEnd& conn = connection(connection_id);
  if (conn.state != ConnectionState::kOpen)
    throw IbcError("chan_open_init: connection not open");
  const ChannelId id = "channel-" + std::to_string(next_channel_++);
  ChannelEnd end;
  end.state = ChannelState::kInit;
  end.connection = connection_id;
  end.counterparty_port = counterparty_port;
  store_channel(port, id, end);
  return id;
}

ChannelId IbcModule::chan_open_try(const PortId& port, const ConnectionId& connection_id,
                                   const PortId& counterparty_port,
                                   const ChannelId& counterparty_channel,
                                   const ChannelEnd& counterparty_end,
                                   Height proof_height, const trie::Proof& proof) {
  const ConnectionEnd& conn = connection(connection_id);
  if (conn.state != ConnectionState::kOpen)
    throw IbcError("chan_open_try: connection not open");
  if (counterparty_end.state != ChannelState::kInit)
    throw IbcError("chan_open_try: counterparty end not in INIT");
  if (counterparty_end.counterparty_port != port)
    throw IbcError("chan_open_try: counterparty end names a different port");

  verify_membership(conn, proof_height, proof,
                    channel_key(counterparty_port, counterparty_channel),
                    counterparty_end.commitment(), "chan_open_try");

  const ChannelId id = "channel-" + std::to_string(next_channel_++);
  ChannelEnd end;
  end.state = ChannelState::kTryOpen;
  end.connection = connection_id;
  end.counterparty_port = counterparty_port;
  end.counterparty_channel = counterparty_channel;
  store_channel(port, id, end);
  return id;
}

void IbcModule::chan_open_ack(const PortId& port, const ChannelId& channel_id,
                              const ChannelId& counterparty_channel,
                              const ChannelEnd& counterparty_end, Height proof_height,
                              const trie::Proof& proof) {
  ChannelRecord& rec = channel_record(port, channel_id);
  if (rec.end.state != ChannelState::kInit)
    throw IbcError("chan_open_ack: channel not in INIT");
  if (counterparty_end.state != ChannelState::kTryOpen)
    throw IbcError("chan_open_ack: counterparty end not in TRYOPEN");
  if (counterparty_end.counterparty_channel != channel_id ||
      counterparty_end.counterparty_port != port)
    throw IbcError("chan_open_ack: counterparty end names a different channel");

  const ConnectionEnd& conn = connection(rec.end.connection);
  verify_membership(conn, proof_height, proof,
                    channel_key(rec.end.counterparty_port, counterparty_channel),
                    counterparty_end.commitment(), "chan_open_ack");

  ChannelEnd end = rec.end;
  end.state = ChannelState::kOpen;
  end.counterparty_channel = counterparty_channel;
  store_channel(port, channel_id, end);
}

void IbcModule::chan_open_confirm(const PortId& port, const ChannelId& channel_id,
                                  const ChannelEnd& counterparty_end, Height proof_height,
                                  const trie::Proof& proof) {
  ChannelRecord& rec = channel_record(port, channel_id);
  if (rec.end.state != ChannelState::kTryOpen)
    throw IbcError("chan_open_confirm: channel not in TRYOPEN");
  if (counterparty_end.state != ChannelState::kOpen)
    throw IbcError("chan_open_confirm: counterparty end not OPEN");

  const ConnectionEnd& conn = connection(rec.end.connection);
  verify_membership(conn, proof_height, proof,
                    channel_key(rec.end.counterparty_port, rec.end.counterparty_channel),
                    counterparty_end.commitment(), "chan_open_confirm");

  ChannelEnd end = rec.end;
  end.state = ChannelState::kOpen;
  store_channel(port, channel_id, end);
}

// --- packets -----------------------------------------------------------------

Packet IbcModule::send_packet(const PortId& port, const ChannelId& channel_id,
                              Bytes data, Height timeout_height,
                              Timestamp timeout_timestamp) {
  ChannelRecord& rec = channel_record(port, channel_id);
  if (rec.end.state != ChannelState::kOpen)
    throw IbcError("send_packet: channel not open");
  if (timeout_height == 0 && timeout_timestamp == 0)
    throw IbcError("send_packet: a timeout must be set");

  Packet packet;
  packet.sequence = rec.next_send++;
  packet.source_port = port;
  packet.source_channel = channel_id;
  packet.dest_port = rec.end.counterparty_port;
  packet.dest_channel = rec.end.counterparty_channel;
  packet.data = std::move(data);
  packet.timeout_height = timeout_height;
  packet.timeout_timestamp = timeout_timestamp;

  store_.set(packet_key(KeyKind::kPacketCommitment, port, channel_id, packet.sequence),
             packet.commitment());
  // Keep the body queryable until the commitment resolves — the replay
  // source for any relayer (re)building its queues from chain state.
  sent_packets_.emplace(std::make_tuple(port, channel_id, packet.sequence), packet);
  if (packet_listener_) packet_listener_(packet);
  return packet;
}

Acknowledgement IbcModule::recv_packet(const Packet& packet, Height proof_height,
                                       const trie::Proof& proof, Height self_height,
                                       Timestamp self_time) {
  ChannelRecord& rec = channel_record(packet.dest_port, packet.dest_channel);
  if (rec.end.state != ChannelState::kOpen)
    throw IbcError("recv_packet: channel not open");
  if (rec.end.counterparty_port != packet.source_port ||
      rec.end.counterparty_channel != packet.source_channel)
    throw IbcError("recv_packet: packet route does not match channel");

  // Timeout enforcement on the receiving chain.
  if (packet.timeout_height != 0 && self_height >= packet.timeout_height)
    throw IbcError("recv_packet: packet timed out (height)");
  if (packet.timeout_timestamp != 0 && self_time >= packet.timeout_timestamp)
    throw IbcError("recv_packet: packet timed out (timestamp)");

  // Double-delivery guard: the sealable-trie receipt mechanism of
  // §III-A (a sealed receipt is just as blocking as a live one).
  const auto receipt_key = packet_key(KeyKind::kPacketReceipt, packet.dest_port,
                                       packet.dest_channel, packet.sequence);
  if (store_.get(receipt_key) != trie::SealableTrie::Lookup::kAbsent)
    throw IbcError("recv_packet: packet already delivered");

  // Verify the sender's commitment.
  const ConnectionEnd& conn = connection(rec.end.connection);
  verify_membership(conn, proof_height, proof,
                    packet_key(KeyKind::kPacketCommitment, packet.source_port,
                               packet.source_channel, packet.sequence),
                    packet.commitment(), "recv_packet");

  // Deliver to the application; app failures become error acks.
  Acknowledgement ack;
  try {
    ack = app_for(packet.dest_port).on_recv_packet(packet);
  } catch (const std::exception& e) {
    ack = Acknowledgement::fail(e.what());
  }

  // Record the delivery: a receipt, sealed behind the watermark.
  store_.set(receipt_key, crypto::Sha256::digest(bytes_of("receipt")));
  store_.set(packet_key(KeyKind::kPacketAck, packet.dest_port, packet.dest_channel,
                        packet.sequence),
             ack.commitment());
  ack_log_[std::make_tuple(packet.dest_port, packet.dest_channel, packet.sequence)] =
      ack;
  rec.receipts.mark(packet.sequence);
  for (const std::uint64_t seq : rec.receipts.drain_sealable())
    store_.seal(packet_key(KeyKind::kPacketReceipt, packet.dest_port,
                           packet.dest_channel, seq));
  // Acks seal on the same watermark but lagged, so relayers can still
  // prove recently-written acknowledgements to the counterparty.
  rec.acks.mark(packet.sequence);
  for (const std::uint64_t seq : rec.acks.drain_sealable())
    store_.seal(
        packet_key(KeyKind::kPacketAck, packet.dest_port, packet.dest_channel, seq));
  return ack;
}

void IbcModule::seal_resolved(const PortId& port, const ChannelId& id,
                              ChannelRecord& rec) {
  for (const std::uint64_t seq : rec.resolved_commitments.drain_sealable())
    store_.seal(packet_key(KeyKind::kPacketCommitment, port, id, seq));
}

void IbcModule::acknowledge_packet(const Packet& packet, const Acknowledgement& ack,
                                   Height proof_height, const trie::Proof& proof) {
  ChannelRecord& rec = channel_record(packet.source_port, packet.source_channel);
  if (rec.end.state != ChannelState::kOpen)
    throw IbcError("acknowledge_packet: channel not open");

  // The commitment must still be pending locally.
  const auto ckey = packet_key(KeyKind::kPacketCommitment, packet.source_port,
                                packet.source_channel, packet.sequence);
  Hash32 committed;
  if (store_.get(ckey, &committed) != trie::SealableTrie::Lookup::kFound)
    throw IbcError("acknowledge_packet: no pending commitment");
  if (committed != packet.commitment())
    throw IbcError("acknowledge_packet: packet does not match commitment");
  if (rec.resolved_commitments.is_marked(packet.sequence))
    throw IbcError("acknowledge_packet: already resolved");

  const ConnectionEnd& conn = connection(rec.end.connection);
  verify_membership(conn, proof_height, proof,
                    packet_key(KeyKind::kPacketAck, packet.dest_port,
                               packet.dest_channel, packet.sequence),
                    ack.commitment(), "acknowledge_packet");

  rec.resolved_commitments.mark(packet.sequence);
  seal_resolved(packet.source_port, packet.source_channel, rec);
  sent_packets_.erase(
      std::make_tuple(packet.source_port, packet.source_channel, packet.sequence));
  app_for(packet.source_port).on_acknowledge(packet, ack);
}

void IbcModule::timeout_packet(const Packet& packet, Height proof_height,
                               const trie::Proof& receipt_absence_proof) {
  ChannelRecord& rec = channel_record(packet.source_port, packet.source_channel);

  const auto ckey = packet_key(KeyKind::kPacketCommitment, packet.source_port,
                                packet.source_channel, packet.sequence);
  Hash32 committed;
  if (store_.get(ckey, &committed) != trie::SealableTrie::Lookup::kFound)
    throw IbcError("timeout_packet: no pending commitment");
  if (committed != packet.commitment())
    throw IbcError("timeout_packet: packet does not match commitment");
  if (rec.resolved_commitments.is_marked(packet.sequence))
    throw IbcError("timeout_packet: already resolved");

  const ConnectionEnd& conn = connection(rec.end.connection);
  const ConsensusState cs = consensus_for(conn, proof_height, "timeout_packet");
  const bool height_passed =
      packet.timeout_height != 0 && proof_height >= packet.timeout_height;
  const bool time_passed =
      packet.timeout_timestamp != 0 && cs.timestamp >= packet.timeout_timestamp;
  if (!height_passed && !time_passed)
    throw IbcError("timeout_packet: timeout has not passed at proof height");

  verify_non_membership(conn, proof_height, receipt_absence_proof,
                        packet_key(KeyKind::kPacketReceipt, packet.dest_port,
                                   packet.dest_channel, packet.sequence),
                        "timeout_packet");

  rec.resolved_commitments.mark(packet.sequence);
  seal_resolved(packet.source_port, packet.source_channel, rec);
  sent_packets_.erase(
      std::make_tuple(packet.source_port, packet.source_channel, packet.sequence));
  app_for(packet.source_port).on_timeout(packet);
}

// --- apps / lookup -------------------------------------------------------------

void IbcModule::bind_port(const PortId& port, IbcApp* app) {
  if (app == nullptr) throw IbcError("bind_port: null app");
  apps_[port] = app;
}

IbcApp& IbcModule::app_for(const PortId& port) {
  const auto it = apps_.find(port);
  if (it == apps_.end()) throw IbcError("no app bound to port " + port);
  return *it->second;
}

const ConnectionEnd& IbcModule::connection(const ConnectionId& id) const {
  const auto it = connections_.find(id);
  if (it == connections_.end()) throw IbcError("unknown connection: " + id);
  return it->second;
}

IbcModule::ChannelRecord& IbcModule::channel_record(const PortId& port,
                                                    const ChannelId& id) {
  const auto it = channels_.find({port, id});
  if (it == channels_.end()) throw IbcError("unknown channel: " + port + "/" + id);
  return it->second;
}

const IbcModule::ChannelRecord& IbcModule::channel_record(const PortId& port,
                                                          const ChannelId& id) const {
  const auto it = channels_.find({port, id});
  if (it == channels_.end()) throw IbcError("unknown channel: " + port + "/" + id);
  return it->second;
}

const ChannelEnd& IbcModule::channel(const PortId& port, const ChannelId& id) const {
  return channel_record(port, id).end;
}

std::uint64_t IbcModule::next_send_sequence(const PortId& port,
                                            const ChannelId& id) const {
  return channel_record(port, id).next_send;
}

bool IbcModule::packet_received(const PortId& port, const ChannelId& channel,
                                std::uint64_t seq) const {
  return store_.get(packet_key(KeyKind::kPacketReceipt, port, channel, seq)) !=
         trie::SealableTrie::Lookup::kAbsent;
}

bool IbcModule::packet_pending(const PortId& port, const ChannelId& channel,
                               std::uint64_t seq) const {
  const auto& rec = channel_record(port, channel);
  if (rec.resolved_commitments.is_marked(seq)) return false;
  return store_.get(packet_key(KeyKind::kPacketCommitment, port, channel, seq)) ==
         trie::SealableTrie::Lookup::kFound;
}

std::vector<std::pair<PortId, ChannelId>> IbcModule::channels() const {
  std::vector<std::pair<PortId, ChannelId>> out;
  out.reserve(channels_.size());
  for (const auto& [key, rec] : channels_) out.push_back(key);
  return out;
}

std::vector<std::uint64_t> IbcModule::pending_send_sequences(
    const PortId& port, const ChannelId& channel) const {
  // sent_packets_ holds exactly the unresolved outgoing packets (pruned
  // on ack / timeout), so the pending set is a key-range scan — no walk
  // over 1..next_send.
  std::vector<std::uint64_t> out;
  auto it = sent_packets_.lower_bound(std::make_tuple(port, channel, std::uint64_t{0}));
  for (; it != sent_packets_.end(); ++it) {
    const auto& [p, c, seq] = it->first;
    if (p != port || c != channel) break;
    out.push_back(seq);
  }
  return out;
}

const Packet* IbcModule::sent_packet(const PortId& port, const ChannelId& channel,
                                     std::uint64_t seq) const {
  const auto it = sent_packets_.find(std::make_tuple(port, channel, seq));
  return it == sent_packets_.end() ? nullptr : &it->second;
}

std::optional<Acknowledgement> IbcModule::ack_for(const PortId& port,
                                                  const ChannelId& channel,
                                                  std::uint64_t seq) const {
  const auto it = ack_log_.find(std::make_tuple(port, channel, seq));
  if (it == ack_log_.end()) return std::nullopt;
  return it->second;
}

IbcModule::ChannelSequences IbcModule::sequences(const PortId& port,
                                                 const ChannelId& channel) const {
  const ChannelRecord& rec = channel_record(port, channel);
  ChannelSequences s;
  s.next_send = rec.next_send;
  s.resolved_watermark = rec.resolved_commitments.watermark();
  s.receipts_watermark = rec.receipts.watermark();
  s.acks_watermark = rec.acks.watermark();
  return s;
}

IbcModule::State IbcModule::checkpoint() const {
  State s;
  for (const auto& [id, client] : clients_) s.clients.emplace(id, client->clone());
  s.connections = connections_;
  s.channels = channels_;
  s.sent_packets = sent_packets_;
  s.ack_log = ack_log_;
  s.next_client = next_client_;
  s.next_connection = next_connection_;
  s.next_channel = next_channel_;
  return s;
}

void IbcModule::restore(State state) {
  clients_ = std::move(state.clients);
  connections_ = std::move(state.connections);
  channels_ = std::move(state.channels);
  sent_packets_ = std::move(state.sent_packets);
  ack_log_ = std::move(state.ack_log);
  next_client_ = state.next_client;
  next_connection_ = state.next_connection;
  next_channel_ = state.next_channel;
}

}  // namespace bmg::ibc
