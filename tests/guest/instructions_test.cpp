#include "guest/instructions.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "host/constants.hpp"

namespace bmg::guest {
namespace {

TEST(Instructions, AllTargetGuestProgram) {
  EXPECT_EQ(ix::generate_block().program, kProgramName);
  EXPECT_EQ(ix::stake(1).program, kProgramName);
  EXPECT_EQ(ix::handshake(1).program, kProgramName);
  EXPECT_EQ(ix::self_destruct().program, kProgramName);
}

TEST(Instructions, OpTagLeadsPayload) {
  const host::Instruction ix = ix::sign_block(7, crypto::PublicKey{});
  Decoder d(ix.data);
  EXPECT_EQ(static_cast<Op>(d.u8()), Op::kSign);
  EXPECT_EQ(d.u64(), 7u);
  EXPECT_EQ(d.raw(32).size(), 32u);
  d.expect_done();
}

TEST(Instructions, SendPacketRoundTrip) {
  const host::Instruction ix =
      ix::send_packet("transfer", "channel-3", bytes_of("payload"), 100, 25.5);
  Decoder d(ix.data);
  EXPECT_EQ(static_cast<Op>(d.u8()), Op::kSendPacket);
  EXPECT_EQ(d.str(), "transfer");
  EXPECT_EQ(d.str(), "channel-3");
  EXPECT_EQ(d.bytes(), bytes_of("payload"));
  EXPECT_EQ(d.u64(), 100u);
  EXPECT_EQ(d.u64(), 25'500'000u);  // microseconds
}

TEST(Instructions, ChunkPayloadCoversWholeBlobInOrder) {
  Bytes blob(5000);
  for (std::size_t i = 0; i < blob.size(); ++i)
    blob[i] = static_cast<std::uint8_t>(i * 7);
  const auto chunks = ix::chunk_payload(blob);
  EXPECT_GT(chunks.size(), 1u);
  Bytes reassembled;
  for (const auto& c : chunks) {
    EXPECT_LE(c.size(), ix::max_chunk_bytes());
    reassembled.insert(reassembled.end(), c.begin(), c.end());
  }
  EXPECT_EQ(reassembled, blob);
}

TEST(Instructions, EmptyPayloadYieldsOneEmptyChunk) {
  const auto chunks = ix::chunk_payload({});
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_TRUE(chunks[0].empty());
}

// At or below the 241 bytes of chunk framing no payload byte fits:
// chunking used to step by zero bytes there (appending empty chunks
// until memory ran out), and below it to wrap to one oversize chunk.
TEST(Instructions, ChunkPayloadRejectsSizeWithoutRoom) {
  const Bytes blob(10, 0xAB);
  const std::size_t overhead = host::kMaxTransactionSize - ix::max_chunk_bytes();
  ASSERT_EQ(overhead, 241u);
  for (const std::size_t size : {std::size_t{0}, std::size_t{100}, overhead}) {
    EXPECT_THROW((void)ix::chunk_payload(blob, size), std::invalid_argument) << size;
    EXPECT_THROW((void)ix::max_chunk_bytes(size), std::invalid_argument) << size;
  }
  const auto chunks = ix::chunk_payload(blob, overhead + 1);
  ASSERT_EQ(chunks.size(), blob.size());
  for (const Bytes& c : chunks) EXPECT_EQ(c, Bytes(1, 0xAB));
}

TEST(Instructions, ChunkUploadTransactionFitsSizeLimit) {
  const Bytes blob(ix::max_chunk_bytes(), 0xEE);
  host::Transaction tx;
  tx.payer = crypto::PrivateKey::from_label("x").public_key();
  tx.instructions.push_back(ix::chunk_upload(1, 0, blob));
  EXPECT_LE(tx.wire_size(), host::kMaxTransactionSize);
}

TEST(Instructions, BufferOpsEncodeBufferId) {
  for (const auto& ix : {ix::receive_packet(42), ix::acknowledge_packet(42),
                         ix::timeout_packet(42), ix::begin_client_update(42),
                         ix::submit_evidence(42), ix::handshake(42),
                         ix::freeze_client(42)}) {
    Decoder d(ix.data);
    (void)d.u8();
    EXPECT_EQ(d.u64(), 42u);
    d.expect_done();
  }
}

}  // namespace
}  // namespace bmg::guest
