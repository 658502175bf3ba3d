#include "ibc/packet.hpp"

#include <gtest/gtest.h>

#include "common/codec.hpp"
#include "ibc/commitment.hpp"
#include "ibc/handshake.hpp"

namespace bmg::ibc {
namespace {

Packet sample_packet() {
  Packet p;
  p.sequence = 42;
  p.source_port = "transfer";
  p.source_channel = "channel-0";
  p.dest_port = "transfer";
  p.dest_channel = "channel-7";
  p.data = bytes_of("payload");
  p.timeout_height = 100;
  p.timeout_timestamp = 123.5;
  return p;
}

TEST(Packet, EncodeDecodeRoundTrip) {
  const Packet p = sample_packet();
  EXPECT_EQ(Packet::decode(p.encode()), p);
}

TEST(Packet, CommitmentCoversTimeoutsAndData) {
  const Packet p = sample_packet();
  Packet q = p;
  q.data = bytes_of("other");
  EXPECT_NE(p.commitment(), q.commitment());
  q = p;
  q.timeout_height = 101;
  EXPECT_NE(p.commitment(), q.commitment());
  q = p;
  q.timeout_timestamp = 124.0;
  EXPECT_NE(p.commitment(), q.commitment());
}

TEST(Packet, CommitmentIgnoresRouting) {
  // ICS-4: the commitment covers data + timeouts; routing is bound via
  // the commitment *key* (port/channel/sequence).
  const Packet p = sample_packet();
  Packet q = p;
  q.dest_channel = "channel-9";
  EXPECT_EQ(p.commitment(), q.commitment());
}

TEST(Ack, RoundTripSuccess) {
  const Acknowledgement a = Acknowledgement::ok(bytes_of("result"));
  const Acknowledgement b = Acknowledgement::decode(a.encode());
  EXPECT_TRUE(b.success);
  EXPECT_EQ(b.result, bytes_of("result"));
}

TEST(Ack, RoundTripFailure) {
  const Acknowledgement a = Acknowledgement::fail("bad things");
  const Acknowledgement b = Acknowledgement::decode(a.encode());
  EXPECT_FALSE(b.success);
  EXPECT_EQ(b.error, "bad things");
}

TEST(Ack, CommitmentsDiffer) {
  EXPECT_NE(Acknowledgement::ok().commitment(),
            Acknowledgement::fail("x").commitment());
}

TEST(CommitmentKeys, FixedWidth) {
  const auto a = packet_key(KeyKind::kPacketCommitment, "transfer", "channel-0", 1);
  const auto b = packet_key(KeyKind::kPacketReceipt, "p", "c", 99999);
  EXPECT_EQ(a.size(), 17u);
  EXPECT_EQ(b.size(), 17u);
  EXPECT_EQ(channel_key("transfer", "channel-0").size(), 17u);
  EXPECT_EQ(connection_key("connection-0").size(), 17u);
}

TEST(CommitmentKeys, DistinctAcrossDimensions) {
  const auto k = [](KeyKind kind, const char* p, const char* c, std::uint64_t s) {
    return packet_key(kind, p, c, s);
  };
  const auto base = k(KeyKind::kPacketCommitment, "transfer", "channel-0", 5);
  EXPECT_NE(base, k(KeyKind::kPacketReceipt, "transfer", "channel-0", 5));
  EXPECT_NE(base, k(KeyKind::kPacketCommitment, "other", "channel-0", 5));
  EXPECT_NE(base, k(KeyKind::kPacketCommitment, "transfer", "channel-1", 5));
  EXPECT_NE(base, k(KeyKind::kPacketCommitment, "transfer", "channel-0", 6));
}

TEST(CommitmentKeys, MonotonicInSequence) {
  // Big-endian sequence encoding => lexicographic order matches
  // numeric order, which the safe-sealing argument relies on.
  Bytes prev = packet_key(KeyKind::kPacketReceipt, "transfer", "channel-0", 0).to_bytes();
  for (std::uint64_t s = 1; s < 1000; s += 7) {
    const Bytes cur =
        packet_key(KeyKind::kPacketReceipt, "transfer", "channel-0", s).to_bytes();
    EXPECT_LT(prev, cur);
    prev = cur;
  }
}

TEST(HandshakeEnds, ConnectionRoundTrip) {
  ConnectionEnd c;
  c.state = ConnectionState::kTryOpen;
  c.client_id = "guest-0";
  c.counterparty_connection = "connection-3";
  c.counterparty_client_id = "tendermint-1";
  EXPECT_EQ(ConnectionEnd::decode(c.encode()), c);
}

TEST(HandshakeEnds, ChannelRoundTrip) {
  ChannelEnd c;
  c.state = ChannelState::kOpen;
  c.connection = "connection-0";
  c.counterparty_port = "transfer";
  c.counterparty_channel = "channel-2";
  EXPECT_EQ(ChannelEnd::decode(c.encode()), c);
  // Byte 1 is the order byte; every channel is unordered.
  Bytes wire = c.encode();
  ASSERT_EQ(wire[1], kUnorderedChannel);
  wire[1] = 2;
  EXPECT_THROW((void)ChannelEnd::decode(wire), CodecError);
}

TEST(HandshakeEnds, CommitmentTracksState) {
  ConnectionEnd c;
  c.client_id = "guest-0";
  const Hash32 init = c.commitment();
  c.state = ConnectionState::kOpen;
  EXPECT_NE(c.commitment(), init);
}

}  // namespace
}  // namespace bmg::ibc
