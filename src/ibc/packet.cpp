#include "ibc/packet.hpp"

#include <array>
#include <span>

#include "common/codec.hpp"
#include "crypto/sha256.hpp"

namespace bmg::ibc {

namespace {
[[nodiscard]] std::uint64_t timestamp_micros(Timestamp t) noexcept {
  return static_cast<std::uint64_t>(t * 1e6 + 0.5);
}
}  // namespace

std::size_t Packet::wire_size() const noexcept {
  return 8 + (4 + source_port.size()) + (4 + source_channel.size()) +
         (4 + dest_port.size()) + (4 + dest_channel.size()) + (4 + data.size()) +
         8 + 8;
}

void Packet::encode_into(Encoder& e) const {
  e.reserve(wire_size());
  e.u64(sequence)
      .str(source_port)
      .str(source_channel)
      .str(dest_port)
      .str(dest_channel)
      .bytes(data)
      .u64(timeout_height)
      .u64(timestamp_micros(timeout_timestamp));
}

Bytes Packet::encode() const {
  Encoder e(wire_size());
  encode_into(e);
  return e.take();
}

Packet Packet::decode(ByteView wire) {
  Decoder d(wire);
  Packet p;
  p.sequence = d.u64();
  p.source_port = d.str();
  p.source_channel = d.str();
  p.dest_port = d.str();
  p.dest_channel = d.str();
  p.data = d.bytes();
  p.timeout_height = d.u64();
  p.timeout_timestamp = static_cast<double>(d.u64()) / 1e6;
  d.expect_done();
  return p;
}

Hash32 Packet::commitment() const {
  const Hash32 data_hash = crypto::Sha256::digest(data);
  std::array<std::uint8_t, 8 + 8 + 32> preimage;
  Encoder e{std::span<std::uint8_t>(preimage)};
  e.u64(timeout_height).u64(timestamp_micros(timeout_timestamp)).hash(data_hash);
  return crypto::Sha256::digest(e.out());
}

std::size_t Acknowledgement::wire_size() const noexcept {
  return 1 + 4 + (success ? result.size() : error.size());
}

void Acknowledgement::encode_into(Encoder& e) const {
  e.reserve(wire_size());
  e.boolean(success);
  if (success) {
    e.bytes(result);
  } else {
    e.str(error);
  }
}

Bytes Acknowledgement::encode() const {
  Encoder e(wire_size());
  encode_into(e);
  return e.take();
}

Acknowledgement Acknowledgement::decode(ByteView wire) {
  Decoder d(wire);
  Acknowledgement a;
  a.success = d.boolean();
  if (a.success) {
    a.result = d.bytes();
  } else {
    a.error = d.str();
  }
  d.expect_done();
  return a;
}

Hash32 Acknowledgement::commitment() const {
  // Stack-encoded for the common small ack; spills to heap only for
  // outsized app payloads.
  std::array<std::uint8_t, 256> stack;
  Encoder e{std::span<std::uint8_t>(stack)};
  encode_into(e);
  return crypto::Sha256::digest(e.out());
}

Acknowledgement Acknowledgement::ok(Bytes result) {
  Acknowledgement a;
  a.success = true;
  a.result = std::move(result);
  return a;
}

Acknowledgement Acknowledgement::fail(std::string reason) {
  Acknowledgement a;
  a.success = false;
  a.error = std::move(reason);
  return a;
}

}  // namespace bmg::ibc
