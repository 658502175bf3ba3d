#include "ibc/handshake.hpp"

#include "common/codec.hpp"
#include "crypto/sha256.hpp"

namespace bmg::ibc {

Bytes ConnectionEnd::encode() const {
  Encoder e;
  e.u8(static_cast<std::uint8_t>(state))
      .str(client_id)
      .str(counterparty_connection)
      .str(counterparty_client_id);
  return e.take();
}

ConnectionEnd ConnectionEnd::decode(ByteView wire) {
  Decoder d(wire);
  ConnectionEnd c;
  c.state = static_cast<ConnectionState>(d.u8());
  c.client_id = d.str();
  c.counterparty_connection = d.str();
  c.counterparty_client_id = d.str();
  d.expect_done();
  return c;
}

Hash32 ConnectionEnd::commitment() const { return crypto::Sha256::digest(encode()); }

Bytes ChannelEnd::encode() const {
  Encoder e;
  e.u8(static_cast<std::uint8_t>(state))
      .u8(kUnorderedChannel)
      .str(connection)
      .str(counterparty_port)
      .str(counterparty_channel);
  return e.take();
}

ChannelEnd ChannelEnd::decode(ByteView wire) {
  Decoder d(wire);
  ChannelEnd c;
  c.state = static_cast<ChannelState>(d.u8());
  if (d.u8() != kUnorderedChannel)
    throw CodecError("channel end: order byte is not unordered");
  c.connection = d.str();
  c.counterparty_port = d.str();
  c.counterparty_channel = d.str();
  d.expect_done();
  return c;
}

Hash32 ChannelEnd::commitment() const { return crypto::Sha256::digest(encode()); }

}  // namespace bmg::ibc
