// End-to-end tests of the IBC core: two modules, full connection and
// channel handshakes, packet flow with real trie proofs, double
// delivery guards, timeouts and bounded storage.
#include "ibc/module.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "ibc/transfer.hpp"
#include "trusting_client.hpp"

namespace bmg::ibc {
namespace {

/// Records app callbacks and returns configurable acks.
class MockApp final : public IbcApp {
 public:
  Acknowledgement on_recv_packet(const Packet& packet) override {
    received.push_back(packet);
    if (fail_next_recv) {
      fail_next_recv = false;
      throw IbcError("app rejected packet");
    }
    return Acknowledgement::ok(bytes_of("ok"));
  }
  void on_acknowledge(const Packet& packet, const Acknowledgement& ack) override {
    acked.emplace_back(packet, ack);
  }
  void on_timeout(const Packet& packet) override { timed_out.push_back(packet); }

  std::vector<Packet> received;
  std::vector<std::pair<Packet, Acknowledgement>> acked;
  std::vector<Packet> timed_out;
  bool fail_next_recv = false;
};

/// Two IBC modules connected through trusting light clients that are
/// manually synchronized — the pure-protocol harness (chains and
/// relayers come in later test layers).
class ModulePair : public ::testing::Test {
 protected:
  ModulePair() : module_a(store_a), module_b(store_b) {
    auto ca = std::make_unique<TrustingLightClient>();
    auto cb = std::make_unique<TrustingLightClient>();
    client_of_b = ca.get();  // lives in A, tracks B
    client_of_a = cb.get();  // lives in B, tracks A
    client_ab = module_a.add_client(std::move(ca));
    client_ba = module_b.add_client(std::move(cb));
    module_a.bind_port("transfer", &app_a);
    module_b.bind_port("transfer", &app_b);
    sync();
  }

  /// Publishes both chains' current roots at a fresh height.
  Height sync(Timestamp timestamp = 0.0) {
    const Height h = next_height_++;
    if (timestamp == 0.0) timestamp = static_cast<Timestamp>(h);
    client_of_b->seed(h, ConsensusState{store_b.root_hash(), timestamp});
    client_of_a->seed(h, ConsensusState{store_a.root_hash(), timestamp});
    last_sync_ = h;
    return h;
  }

  void open_connection() {
    conn_a = module_a.conn_open_init(client_ab, client_ba);
    Height h = sync();
    conn_b = module_b.conn_open_try(client_ba, client_ab, conn_a,
                                    module_a.connection(conn_a), h,
                                    store_a.prove(connection_key(conn_a)));
    h = sync();
    module_a.conn_open_ack(conn_a, conn_b, module_b.connection(conn_b), h,
                           store_b.prove(connection_key(conn_b)));
    h = sync();
    module_b.conn_open_confirm(conn_b, module_a.connection(conn_a), h,
                               store_a.prove(connection_key(conn_a)));
    sync();
  }

  void open_channel(const PortId& port = "transfer") {
    chan_a = module_a.chan_open_init(port, conn_a, port);
    Height h = sync();
    chan_b = module_b.chan_open_try(port, conn_b, port, chan_a,
                                    module_a.channel(port, chan_a), h,
                                    store_a.prove(channel_key(port, chan_a)));
    h = sync();
    module_a.chan_open_ack(port, chan_a, chan_b, module_b.channel(port, chan_b), h,
                           store_b.prove(channel_key(port, chan_b)));
    h = sync();
    module_b.chan_open_confirm(port, chan_b, module_a.channel(port, chan_a), h,
                               store_a.prove(channel_key(port, chan_a)));
    sync();
  }

  /// Relays one packet from A to B, returning B's ack.
  Acknowledgement relay_to_b(const Packet& p, Height self_height = 1,
                             Timestamp self_time = 1.0) {
    const Height h = sync();
    const auto proof = store_a.prove(packet_key(
        KeyKind::kPacketCommitment, p.source_port, p.source_channel, p.sequence));
    return module_b.recv_packet(p, h, proof, self_height, self_time);
  }

  /// Relays an ack from B back to A.
  void relay_ack_to_a(const Packet& p, const Acknowledgement& ack) {
    const Height h = sync();
    const auto proof = store_b.prove(
        packet_key(KeyKind::kPacketAck, p.dest_port, p.dest_channel, p.sequence));
    module_a.acknowledge_packet(p, ack, h, proof);
  }

  trie::SealableTrie store_a, store_b;
  IbcModule module_a, module_b;
  TrustingLightClient* client_of_b = nullptr;
  TrustingLightClient* client_of_a = nullptr;
  ClientId client_ab, client_ba;
  ConnectionId conn_a, conn_b;
  ChannelId chan_a, chan_b;
  MockApp app_a, app_b;
  Height next_height_ = 1;
  Height last_sync_ = 0;
};

TEST_F(ModulePair, ConnectionHandshakeCompletes) {
  open_connection();
  EXPECT_EQ(module_a.connection(conn_a).state, ConnectionState::kOpen);
  EXPECT_EQ(module_b.connection(conn_b).state, ConnectionState::kOpen);
  EXPECT_EQ(module_a.connection(conn_a).counterparty_connection, conn_b);
  EXPECT_EQ(module_b.connection(conn_b).counterparty_connection, conn_a);
}

TEST_F(ModulePair, ConnTryRejectsWrongProof) {
  conn_a = module_a.conn_open_init(client_ab, client_ba);
  const Height h = sync();
  // Tamper with the claimed end: state OPEN instead of INIT.
  ConnectionEnd tampered = module_a.connection(conn_a);
  tampered.state = ConnectionState::kOpen;
  EXPECT_THROW((void)module_b.conn_open_try(client_ba, client_ab, conn_a, tampered, h,
                                            store_a.prove(connection_key(conn_a))),
               IbcError);
}

TEST_F(ModulePair, ConnTryRejectsStaleHeight) {
  conn_a = module_a.conn_open_init(client_ab, client_ba);
  // No sync: client has no consensus at this height.
  EXPECT_THROW((void)module_b.conn_open_try(client_ba, client_ab, conn_a,
                                            module_a.connection(conn_a), 999,
                                            store_a.prove(connection_key(conn_a))),
               IbcError);
}

TEST_F(ModulePair, ConnAckValidatesCounterpartyBinding) {
  open_connection();
  // A second handshake attempt whose TRY end names a different
  // connection must be rejected.
  const ConnectionId conn_a2 = module_a.conn_open_init(client_ab, client_ba);
  const Height h = sync();
  ConnectionEnd b_end = module_b.connection(conn_b);  // names conn_a, not conn_a2
  EXPECT_THROW(module_a.conn_open_ack(conn_a2, conn_b, b_end, h,
                                      store_b.prove(connection_key(conn_b))),
               IbcError);
}

TEST_F(ModulePair, ChannelHandshakeCompletes) {
  open_connection();
  open_channel();
  EXPECT_EQ(module_a.channel("transfer", chan_a).state, ChannelState::kOpen);
  EXPECT_EQ(module_b.channel("transfer", chan_b).state, ChannelState::kOpen);
  EXPECT_EQ(module_a.channel("transfer", chan_a).counterparty_channel, chan_b);
  EXPECT_EQ(module_b.channel("transfer", chan_b).counterparty_channel, chan_a);
}

TEST_F(ModulePair, SendPacketAssignsSequentialSequences) {
  open_connection();
  open_channel();
  const Packet p1 = module_a.send_packet("transfer", chan_a, bytes_of("one"), 100, 0);
  const Packet p2 = module_a.send_packet("transfer", chan_a, bytes_of("two"), 100, 0);
  EXPECT_EQ(p1.sequence, 1u);
  EXPECT_EQ(p2.sequence, 2u);
  EXPECT_EQ(p1.dest_port, "transfer");
  EXPECT_EQ(p1.dest_channel, chan_b);
  EXPECT_TRUE(module_a.packet_pending("transfer", chan_a, 1));
}

TEST_F(ModulePair, SendRequiresTimeout) {
  open_connection();
  open_channel();
  EXPECT_THROW((void)module_a.send_packet("transfer", chan_a, bytes_of("x"), 0, 0),
               IbcError);
}

TEST_F(ModulePair, SendOnClosedChannelFails) {
  open_connection();
  EXPECT_THROW((void)module_a.send_packet("transfer", "channel-99", bytes_of("x"), 1, 0),
               IbcError);
}

TEST_F(ModulePair, FullPacketRoundTrip) {
  open_connection();
  open_channel();
  const Packet p = module_a.send_packet("transfer", chan_a, bytes_of("hello"), 1000, 0);
  const Acknowledgement ack = relay_to_b(p);
  EXPECT_TRUE(ack.success);
  ASSERT_EQ(app_b.received.size(), 1u);
  EXPECT_EQ(app_b.received[0].data, bytes_of("hello"));
  EXPECT_TRUE(module_b.packet_received("transfer", chan_b, 1));

  relay_ack_to_a(p, ack);
  ASSERT_EQ(app_a.acked.size(), 1u);
  EXPECT_TRUE(app_a.acked[0].second.success);
  EXPECT_FALSE(module_a.packet_pending("transfer", chan_a, 1));
}

TEST_F(ModulePair, DoubleDeliveryBlocked) {
  open_connection();
  open_channel();
  const Packet p = module_a.send_packet("transfer", chan_a, bytes_of("x"), 1000, 0);
  (void)relay_to_b(p);
  EXPECT_THROW((void)relay_to_b(p), IbcError);
  EXPECT_EQ(app_b.received.size(), 1u);
}

TEST_F(ModulePair, TamperedPacketRejected) {
  open_connection();
  open_channel();
  Packet p = module_a.send_packet("transfer", chan_a, bytes_of("real"), 1000, 0);
  p.data = bytes_of("fake");
  EXPECT_THROW((void)relay_to_b(p), IbcError);
  EXPECT_TRUE(app_b.received.empty());
}

TEST_F(ModulePair, UnknownSequenceRejected) {
  open_connection();
  open_channel();
  Packet p = module_a.send_packet("transfer", chan_a, bytes_of("x"), 1000, 0);
  p.sequence = 5;  // never sent
  EXPECT_THROW((void)relay_to_b(p), IbcError);
}

TEST_F(ModulePair, AppFailureBecomesErrorAck) {
  open_connection();
  open_channel();
  app_b.fail_next_recv = true;
  const Packet p = module_a.send_packet("transfer", chan_a, bytes_of("x"), 1000, 0);
  const Acknowledgement ack = relay_to_b(p);
  EXPECT_FALSE(ack.success);
  EXPECT_EQ(ack.error, "app rejected packet");
  // The packet still counts as delivered (receipt written).
  EXPECT_TRUE(module_b.packet_received("transfer", chan_b, 1));
  // And the error ack flows back.
  relay_ack_to_a(p, ack);
  ASSERT_EQ(app_a.acked.size(), 1u);
  EXPECT_FALSE(app_a.acked[0].second.success);
}

TEST_F(ModulePair, OutOfOrderDeliveryOnUnorderedChannel) {
  open_connection();
  open_channel();
  std::vector<Packet> packets;
  for (int i = 0; i < 4; ++i)
    packets.push_back(
        module_a.send_packet("transfer", chan_a, bytes_of("p" + std::to_string(i)), 1000, 0));
  // Deliver 3, 1, 4, 2.
  (void)relay_to_b(packets[2]);
  (void)relay_to_b(packets[0]);
  (void)relay_to_b(packets[3]);
  (void)relay_to_b(packets[1]);
  EXPECT_EQ(app_b.received.size(), 4u);
  for (std::uint64_t s = 1; s <= 4; ++s)
    EXPECT_TRUE(module_b.packet_received("transfer", chan_b, s));
}

TEST_F(ModulePair, RecvRejectsTimedOutPacket) {
  open_connection();
  open_channel();
  const Packet ph = module_a.send_packet("transfer", chan_a, bytes_of("x"), 10, 0);
  EXPECT_THROW((void)relay_to_b(ph, /*self_height=*/10, /*self_time=*/1.0), IbcError);

  const Packet pt = module_a.send_packet("transfer", chan_a, bytes_of("y"), 0, 50.0);
  EXPECT_THROW((void)relay_to_b(pt, /*self_height=*/1, /*self_time=*/50.0), IbcError);
}

TEST_F(ModulePair, TimeoutReleasesPacket) {
  open_connection();
  open_channel();
  const Packet p = module_a.send_packet("transfer", chan_a, bytes_of("x"), 0, 25.0);
  // Never delivered to B.  Publish B's root with a late timestamp.
  const Height h = sync(/*timestamp=*/30.0);
  const auto absence = store_b.prove(
      packet_key(KeyKind::kPacketReceipt, p.dest_port, p.dest_channel, p.sequence));
  module_a.timeout_packet(p, h, absence);
  ASSERT_EQ(app_a.timed_out.size(), 1u);
  EXPECT_FALSE(module_a.packet_pending("transfer", chan_a, 1));
}

TEST_F(ModulePair, TimeoutRejectedBeforeDeadline) {
  open_connection();
  open_channel();
  const Packet p = module_a.send_packet("transfer", chan_a, bytes_of("x"), 0, 25.0);
  const Height h = sync(/*timestamp=*/10.0);  // too early
  const auto absence = store_b.prove(
      packet_key(KeyKind::kPacketReceipt, p.dest_port, p.dest_channel, p.sequence));
  EXPECT_THROW(module_a.timeout_packet(p, h, absence), IbcError);
}

TEST_F(ModulePair, TimeoutRejectedWhenDelivered) {
  open_connection();
  open_channel();
  const Packet p = module_a.send_packet("transfer", chan_a, bytes_of("x"), 0, 25.0);
  (void)relay_to_b(p, 1, 1.0);  // delivered in time
  const Height h = sync(/*timestamp=*/30.0);
  const auto receipt_key =
      packet_key(KeyKind::kPacketReceipt, p.dest_port, p.dest_channel, p.sequence);
  const auto proof = store_b.prove(receipt_key);
  // Receipt exists => non-membership verification fails.
  EXPECT_THROW(module_a.timeout_packet(p, h, proof), IbcError);
}

TEST_F(ModulePair, DuplicateAckRejected) {
  open_connection();
  open_channel();
  const Packet p = module_a.send_packet("transfer", chan_a, bytes_of("x"), 1000, 0);
  const Acknowledgement ack = relay_to_b(p);
  relay_ack_to_a(p, ack);
  EXPECT_THROW(relay_ack_to_a(p, ack), IbcError);
  EXPECT_EQ(app_a.acked.size(), 1u);
}

TEST_F(ModulePair, WrongAckValueRejected) {
  open_connection();
  open_channel();
  const Packet p = module_a.send_packet("transfer", chan_a, bytes_of("x"), 1000, 0);
  (void)relay_to_b(p);
  const Height h = sync();
  const auto proof = store_b.prove(
      packet_key(KeyKind::kPacketAck, p.dest_port, p.dest_channel, p.sequence));
  // Claim a different ack than what B wrote.
  EXPECT_THROW(
      module_a.acknowledge_packet(p, Acknowledgement::fail("forged"), h, proof),
      IbcError);
}

TEST_F(ModulePair, StorageStaysBoundedUnderSustainedTraffic) {
  open_connection();
  open_channel();
  std::size_t peak_a = 0, peak_b = 0;
  for (int i = 0; i < 300; ++i) {
    const Packet p =
        module_a.send_packet("transfer", chan_a, bytes_of("pkt" + std::to_string(i)), 1'000'000, 0);
    const Acknowledgement ack = relay_to_b(p);
    relay_ack_to_a(p, ack);
    peak_a = std::max(peak_a, store_a.stats().node_count());
    peak_b = std::max(peak_b, store_b.stats().node_count());
  }
  // The sealable trie keeps live state near the in-flight window
  // (paper §III-A), far below the 300 processed packets.  B's window
  // includes the lagged ack entries.
  EXPECT_LT(peak_a, 60u);
  EXPECT_LT(peak_b, 250u);
  // Sealed commitments cannot be acked again.
  EXPECT_FALSE(module_a.packet_pending("transfer", chan_a, 1));
}

TEST_F(ModulePair, BidirectionalTraffic) {
  open_connection();
  open_channel();
  const Packet pa = module_a.send_packet("transfer", chan_a, bytes_of("a->b"), 1000, 0);
  const Packet pb = module_b.send_packet("transfer", chan_b, bytes_of("b->a"), 1000, 0);

  const Acknowledgement ack_b = relay_to_b(pa);
  // Relay B's packet to A.
  const Height h = sync();
  const auto proof = store_b.prove(packet_key(KeyKind::kPacketCommitment, "transfer",
                                              chan_b, pb.sequence));
  const Acknowledgement ack_a = module_a.recv_packet(pb, h, proof, 1, 1.0);

  EXPECT_TRUE(ack_b.success);
  EXPECT_TRUE(ack_a.success);
  EXPECT_EQ(app_b.received.size(), 1u);
  EXPECT_EQ(app_a.received.size(), 1u);
}

// --- undo records ----------------------------------------------------------

/// One run of the pair, with or without a middle phase that records
/// into an undo log and is unwound.
class UnwindRun final : public ModulePair {
 public:
  void TestBody() override {}

  /// Open connection and channel, and a second channel half open; A
  /// sends packets 1-4, B receives 1, 3 and 4, A gets 4's ack: both
  /// sides hold trackers with gaps.
  void before() {
    open_connection();
    open_channel();
    half_a = module_a.chan_open_init("transfer", conn_a, "transfer");
    const Height h = sync();
    half_b = module_b.chan_open_try("transfer", conn_b, "transfer", half_a,
                                    module_a.channel("transfer", half_a), h,
                                    store_a.prove(channel_key("transfer", half_a)));
    for (int i = 0; i < 4; ++i)
      sent.push_back(module_a.send_packet("transfer", chan_a, bytes_of("p"), 1000, 0));
    acks.resize(sent.size());
    for (const std::size_t i : {0, 2, 3}) acks[i] = relay_to_b(sent[i]);
    relay_ack_to_a(sent[3], acks[3]);
  }

  /// Recorded, then unwound: the half-open channel's last two steps, a
  /// second connection and channel, the packet that fills both
  /// trackers' gaps with their acks, sends both ways and a delivery to
  /// A.  The stores are their owners' to record,
  /// as the guest contract records its trie.
  void middle() {
    UndoRecorder undo;
    UndoRecorder::Log log;
    module_a.set_undo(&undo);
    module_b.set_undo(&undo);
    undo.open(log, 1);
    undo.record([this, a = std::make_shared<trie::SealableTrie>(store_a.clone()),
                 b = std::make_shared<trie::SealableTrie>(store_b.clone())] {
      store_a = std::move(*a);
      store_b = std::move(*b);
    });
    Height h = sync();
    module_a.chan_open_ack("transfer", half_a, half_b, module_b.channel("transfer", half_b), h,
                           store_b.prove(channel_key("transfer", half_b)));
    h = sync();
    module_b.chan_open_confirm("transfer", half_b, module_a.channel("transfer", half_a), h,
                               store_a.prove(channel_key("transfer", half_a)));
    const ConnectionId first_a = conn_a, first_b = conn_b;
    const ChannelId first_chan_a = chan_a, first_chan_b = chan_b;
    open_connection();
    open_channel();
    conn_a = first_a, conn_b = first_b, chan_a = first_chan_a, chan_b = first_chan_b;
    acks[1] = relay_to_b(sent[1]);
    for (const std::size_t i : {0, 1, 2}) relay_ack_to_a(sent[i], acks[i]);
    (void)module_a.send_packet("transfer", chan_a, bytes_of("q"), 1000, 0);
    const Packet back = module_b.send_packet("transfer", chan_b, bytes_of("r"), 1000, 0);
    h = sync();
    (void)module_a.recv_packet(
        back, h,
        store_b.prove(packet_key(KeyKind::kPacketCommitment, "transfer", chan_b, 1)), 1, 1.0);
    undo.close();
    log.unwind();
    module_a.set_undo(nullptr);
    module_b.set_undo(nullptr);
  }

  /// The same deliveries and acks, a fifth packet, and a new
  /// connection and channel.
  void after() {
    acks[1] = relay_to_b(sent[1]);
    for (const std::size_t i : {0, 1, 2}) relay_ack_to_a(sent[i], acks[i]);
    const Packet p5 = module_a.send_packet("transfer", chan_a, bytes_of("s"), 1000, 0);
    relay_ack_to_a(p5, relay_to_b(p5));
    open_connection();
    open_channel();
  }

  /// Both modules' read surfaces and store roots.
  std::string state() {
    std::string out;
    for (IbcModule* m : {&module_a, &module_b}) {
      out += m->store().root_hash().hex() + "\n";
      for (int i = 0; i < 4; ++i) {
        const ConnectionId id = "connection-" + std::to_string(i);
        try {
          out += id + " " + m->connection(id).commitment().hex() + "\n";
        } catch (const IbcError&) {
        }
      }
      for (const auto& [port, chan] : m->channels()) {
        const auto s = m->sequences(port, chan);
        out += chan + " " + m->channel(port, chan).commitment().hex() + " " +
               std::to_string(s.next_send) + " " + std::to_string(s.resolved_watermark) + " " +
               std::to_string(s.receipts_watermark) + " " + std::to_string(s.acks_watermark);
        for (const std::uint64_t seq : m->pending_send_sequences(port, chan))
          out += " p" + std::to_string(seq);
        for (std::uint64_t seq = 1; seq <= 8; ++seq) {
          out += " " + std::to_string(m->packet_received(port, chan, seq)) +
                 std::to_string(m->packet_pending(port, chan, seq)) +
                 std::to_string(m->sent_packet(port, chan, seq) != nullptr);
          if (const auto ack = m->ack_for(port, chan, seq)) out += ack->commitment().hex();
        }
        out += "\n";
      }
    }
    return out;
  }

  ChannelId half_a, half_b;
  std::vector<Packet> sent;
  std::vector<Acknowledgement> acks;
};

TEST(ModuleUndo, UnwoundPhaseLeavesNoTrace) {
  // Unwinding the recorded phase restores both modules exactly, and
  // what runs next matches a run that never had the phase, store roots
  // included: the trackers' gaps, watermarks and seals came back.
  UnwindRun plain, unwound;
  plain.before();
  unwound.before();
  const std::string at_start = unwound.state();
  unwound.middle();
  EXPECT_EQ(unwound.state(), at_start);
  plain.after();
  unwound.after();
  EXPECT_EQ(unwound.state(), plain.state());
}

}  // namespace
}  // namespace bmg::ibc
