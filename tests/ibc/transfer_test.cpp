// ICS-20 token transfer tests over the two-module harness.
#include "ibc/transfer.hpp"

#include <gtest/gtest.h>

#include "trusting_client.hpp"

namespace bmg::ibc {
namespace {

class TransferPair : public ::testing::Test {
 protected:
  TransferPair()
      : module_a(store_a),
        module_b(store_b),
        app_a(module_a, bank_a, "transfer"),
        app_b(module_b, bank_b, "transfer") {
    auto ca = std::make_unique<TrustingLightClient>();
    auto cb = std::make_unique<TrustingLightClient>();
    client_of_b = ca.get();
    client_of_a = cb.get();
    client_ab = module_a.add_client(std::move(ca));
    client_ba = module_b.add_client(std::move(cb));
    sync();
    open_all();
    bank_a.mint("alice", "SOL", 1000);
  }

  Height sync(Timestamp ts = 0.0) {
    const Height h = next_height_++;
    if (ts == 0.0) ts = static_cast<Timestamp>(h);
    client_of_b->seed(h, ConsensusState{store_b.root_hash(), ts});
    client_of_a->seed(h, ConsensusState{store_a.root_hash(), ts});
    return h;
  }

  void open_all() {
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
    chan_a = module_a.chan_open_init("transfer", conn_a, "transfer");
    h = sync();
    chan_b = module_b.chan_open_try("transfer", conn_b, "transfer", chan_a,
                                    module_a.channel("transfer", chan_a), h,
                                    store_a.prove(channel_key("transfer", chan_a)));
    h = sync();
    module_a.chan_open_ack("transfer", chan_a, chan_b,
                           module_b.channel("transfer", chan_b), h,
                           store_b.prove(channel_key("transfer", chan_b)));
    h = sync();
    module_b.chan_open_confirm("transfer", chan_b, module_a.channel("transfer", chan_a),
                               h, store_a.prove(channel_key("transfer", chan_a)));
    sync();
  }

  Acknowledgement deliver_to_b(const Packet& p) {
    const Height h = sync();
    return module_b.recv_packet(
        p, h,
        store_a.prove(packet_key(KeyKind::kPacketCommitment, p.source_port,
                                 p.source_channel, p.sequence)),
        1, 1.0);
  }

  Acknowledgement deliver_to_a(const Packet& p) {
    const Height h = sync();
    return module_a.recv_packet(
        p, h,
        store_b.prove(packet_key(KeyKind::kPacketCommitment, p.source_port,
                                 p.source_channel, p.sequence)),
        1, 1.0);
  }

  void ack_on_a(const Packet& p, const Acknowledgement& ack) {
    const Height h = sync();
    module_a.acknowledge_packet(
        p, ack, h,
        store_b.prove(
            packet_key(KeyKind::kPacketAck, p.dest_port, p.dest_channel, p.sequence)));
  }

  trie::SealableTrie store_a, store_b;
  IbcModule module_a, module_b;
  Bank bank_a, bank_b;
  TokenTransferApp app_a, app_b;
  TrustingLightClient *client_of_b = nullptr, *client_of_a = nullptr;
  ClientId client_ab, client_ba;
  ConnectionId conn_a, conn_b;
  ChannelId chan_a, chan_b;
  Height next_height_ = 1;
};

TEST_F(TransferPair, TransferMintsVoucherOnDestination) {
  const Packet p = app_a.send_transfer(chan_a, "SOL", 100, "alice", "bob", 1000, 0);
  EXPECT_EQ(bank_a.balance("alice", "SOL"), 900u);
  EXPECT_EQ(bank_a.balance(TokenTransferApp::escrow_account(chan_a), "SOL"), 100u);

  const Acknowledgement ack = deliver_to_b(p);
  EXPECT_TRUE(ack.success);
  const std::string voucher = "transfer/" + chan_b + "/SOL";
  EXPECT_EQ(bank_b.balance("bob", voucher), 100u);
  EXPECT_EQ(bank_b.total_supply(voucher), 100u);

  ack_on_a(p, ack);
  // Escrow still holds the backing tokens.
  EXPECT_EQ(bank_a.balance(TokenTransferApp::escrow_account(chan_a), "SOL"), 100u);
}

TEST_F(TransferPair, RoundTripReturnsTokensHome) {
  const Packet p1 = app_a.send_transfer(chan_a, "SOL", 100, "alice", "bob", 1000, 0);
  const Acknowledgement a1 = deliver_to_b(p1);
  ack_on_a(p1, a1);

  const std::string voucher = "transfer/" + chan_b + "/SOL";
  const Packet p2 = app_b.send_transfer(chan_b, voucher, 40, "bob", "alice", 1000, 0);
  // Voucher burned on B.
  EXPECT_EQ(bank_b.balance("bob", voucher), 60u);
  EXPECT_EQ(bank_b.total_supply(voucher), 60u);

  const Acknowledgement a2 = deliver_to_a(p2);
  EXPECT_TRUE(a2.success);
  // Escrow released at home.
  EXPECT_EQ(bank_a.balance("alice", "SOL"), 940u);
  EXPECT_EQ(bank_a.balance(TokenTransferApp::escrow_account(chan_a), "SOL"), 60u);
}

TEST_F(TransferPair, SupplyConservedAcrossChains) {
  const Packet p = app_a.send_transfer(chan_a, "SOL", 250, "alice", "bob", 1000, 0);
  const Acknowledgement ack = deliver_to_b(p);
  ack_on_a(p, ack);
  const std::string voucher = "transfer/" + chan_b + "/SOL";
  // Total SOL on A unchanged; vouchers on B exactly match escrowed SOL.
  EXPECT_EQ(bank_a.total_supply("SOL"), 1000u);
  EXPECT_EQ(bank_b.total_supply(voucher),
            bank_a.balance(TokenTransferApp::escrow_account(chan_a), "SOL"));
}

TEST_F(TransferPair, TimeoutRefundsSender) {
  const Packet p = app_a.send_transfer(chan_a, "SOL", 100, "alice", "bob", 0, 25.0);
  EXPECT_EQ(bank_a.balance("alice", "SOL"), 900u);
  // Never delivered; prove absence after the deadline.
  const Height h = sync(/*ts=*/30.0);
  module_a.timeout_packet(p, h,
                          store_b.prove(packet_key(KeyKind::kPacketReceipt, p.dest_port,
                                                   p.dest_channel, p.sequence)));
  EXPECT_EQ(bank_a.balance("alice", "SOL"), 1000u);
  EXPECT_EQ(bank_a.balance(TokenTransferApp::escrow_account(chan_a), "SOL"), 0u);
}

TEST_F(TransferPair, FailedAckRefundsSender) {
  // Craft a transfer that fails on B: bob returns a voucher that was
  // never minted — B's app throws, producing an error ack.
  bank_b.mint("bob", "transfer/" + chan_b + "/SOL", 10);
  const Packet p =
      app_b.send_transfer(chan_b, "transfer/" + chan_b + "/SOL", 10, "bob", "alice", 1000, 0);
  // Bob's voucher is burned on send.
  EXPECT_EQ(bank_b.balance("bob", "transfer/" + chan_b + "/SOL"), 0u);

  // Deliver to A: unescrow fails (escrow empty) => error ack.
  const Acknowledgement ack = deliver_to_a(p);
  EXPECT_FALSE(ack.success);

  // Relay the error ack back to B: bob is refunded.
  const Height h = sync();
  module_b.acknowledge_packet(
      p, ack, h,
      store_a.prove(
          packet_key(KeyKind::kPacketAck, p.dest_port, p.dest_channel, p.sequence)));
  EXPECT_EQ(bank_b.balance("bob", "transfer/" + chan_b + "/SOL"), 10u);
}

TEST_F(TransferPair, ZeroAmountRejectedAtSend) {
  EXPECT_THROW(
      (void)app_a.send_transfer(chan_a, "SOL", 0, "alice", "bob", 1000, 0),
      IbcError);
}

TEST_F(TransferPair, InsufficientBalanceRejectedAtSend) {
  EXPECT_THROW(
      (void)app_a.send_transfer(chan_a, "SOL", 5000, "alice", "bob", 1000, 0),
      IbcError);
}

TEST_F(TransferPair, MultiHopDenomTrace) {
  // A -> B gives "transfer/chan_b/SOL"; sending that voucher onward
  // from B over a *different* channel would stack another hop.  Here
  // we check the trace format after one hop and that round-tripping
  // strips exactly one prefix.
  const Packet p = app_a.send_transfer(chan_a, "SOL", 10, "alice", "bob", 1000, 0);
  (void)deliver_to_b(p);
  const std::string voucher = "transfer/" + chan_b + "/SOL";
  EXPECT_EQ(bank_b.balance("bob", voucher), 10u);

  const Packet back = app_b.send_transfer(chan_b, voucher, 10, "bob", "carol", 1000, 0);
  const TokenPacketData data = TokenPacketData::decode(back.data);
  EXPECT_EQ(data.denom, voucher);  // full trace travels in the packet
  (void)deliver_to_a(back);
  EXPECT_EQ(bank_a.balance("carol", "SOL"), 10u);  // prefix stripped at home
}

TEST_F(TransferPair, PacketDataRoundTrip) {
  const TokenPacketData d{"transfer/channel-3/uatom", 77, "alice", "bob"};
  EXPECT_EQ(TokenPacketData::decode(d.encode()), d);
}

}  // namespace
}  // namespace bmg::ibc
