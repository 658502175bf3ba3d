#include "guest/instructions.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "crypto/sha256.hpp"
#include "host/constants.hpp"
#include "host/program.hpp"
#include "trie/trie.hpp"

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

TEST(Instructions, StagedCallChunksPayloadThenConsumesBuffer) {
  Bytes payload(3000);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 13);
  const crypto::PublicKey payer = crypto::PrivateKey::from_label("stager").public_key();
  const host::FeePolicy fee = host::FeePolicy::priority(7);
  const auto txs = ix::staged_call(payer, fee, 9, payload, ix::receive_packet(9), "recv",
                                   "recv:chunk");
  ASSERT_EQ(txs.size(), ix::chunk_payload(payload).size() + 1);
  Bytes staged;
  for (std::size_t i = 0; i + 1 < txs.size(); ++i) {
    const host::Transaction& tx = txs[i];
    EXPECT_EQ(tx.payer, payer);
    EXPECT_EQ(tx.fee.kind, fee.kind);
    EXPECT_EQ(tx.label, "recv:chunk");
    EXPECT_LE(tx.wire_size(), host::kMaxTransactionSize);
    ASSERT_EQ(tx.instructions.size(), 1u);
    Decoder d(tx.instructions[0].data);
    EXPECT_EQ(static_cast<Op>(d.u8()), Op::kChunkUpload);
    EXPECT_EQ(d.u64(), 9u);
    EXPECT_EQ(d.u32(), staged.size());  // offsets are contiguous
    const Bytes chunk = d.bytes();
    staged.insert(staged.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(staged, payload);
  EXPECT_EQ(txs.back().label, "recv");
  EXPECT_EQ(txs.back().payer, payer);
  ASSERT_EQ(txs.back().instructions.size(), 1u);
  EXPECT_EQ(txs.back().instructions[0].data, ix::receive_packet(9).data);
}

// --- staged payload codecs ----------------------------------------------------

/// Every strict prefix of `wire` must throw CodecError from `decode`.
template <typename Decode>
void expect_all_truncations_throw(const Bytes& wire, Decode decode) {
  for (std::size_t cut = 0; cut < wire.size(); ++cut)
    EXPECT_THROW((void)decode(ByteView{wire.data(), cut}), CodecError)
        << "prefix length " << cut << " of " << wire.size();
}

ibc::QuorumHeader sample_header(ibc::Height h) {
  ibc::QuorumHeader hd;
  hd.chain_id = "guest-1";
  hd.height = h;
  hd.timestamp = 12.5 * static_cast<double>(h);
  hd.state_root.bytes[3] = static_cast<std::uint8_t>(h);
  hd.extra = Bytes{9, 8, 7};
  return hd;
}

TEST(StagedPayloads, ClientUpdateRoundTripsAndRejectsTruncation) {
  ibc::SignedQuorumHeader sh;
  sh.header = sample_header(5);
  const auto key = crypto::PrivateKey::from_label("payload-signer");
  sh.signatures.emplace_back(key.public_key(), key.sign(sh.signing_digest().view()));
  for (const bool with_next : {false, true}) {
    if (with_next) {
      sh.next_validators.emplace();
      sh.next_validators->add(key.public_key(), 40);
      sh.next_validators->add(crypto::PrivateKey::from_label("v2").public_key(), 60);
    }
    const Bytes wire = ix::client_update_payload(sh);
    const ix::ClientUpdate u = ix::decode_client_update(wire);
    EXPECT_EQ(u.header, sh.header);
    EXPECT_EQ(u.next_validators, sh.next_validators);
    ibc::SignedQuorumHeader again;  // signatures are not part of the payload
    again.header = u.header;
    again.next_validators = u.next_validators;
    EXPECT_EQ(ix::client_update_payload(again), wire);
    expect_all_truncations_throw(wire, ix::decode_client_update);
  }
}

TEST(StagedPayloads, PacketProofRoundTripsAndRejectsTruncation) {
  trie::SealableTrie t;
  t.set(bytes_of("k1"), Hash32{});
  t.set(bytes_of("k2"), crypto::Sha256::digest(bytes_of("v")));
  t.commit();
  const trie::Proof proof = t.prove(bytes_of("k2"));
  ibc::Packet packet;
  packet.sequence = 17;
  packet.source_port = "transfer";
  packet.source_channel = "channel-0";
  packet.dest_port = "transfer";
  packet.dest_channel = "channel-1";
  packet.data = bytes_of("payload");
  packet.timeout_height = 99;
  packet.timeout_timestamp = 1234.5;
  const ibc::Acknowledgement ack = ibc::Acknowledgement::ok(bytes_of("done"));
  for (const ibc::Acknowledgement* a : {static_cast<const ibc::Acknowledgement*>(nullptr),
                                        &ack}) {
    const bool with_ack = a != nullptr;
    const Bytes wire = ix::packet_proof_payload(packet, a, 42, proof);
    const ix::PacketProof p = ix::decode_packet_proof(wire, with_ack);
    EXPECT_EQ(p.packet, packet);
    EXPECT_EQ(p.ack.has_value(), with_ack);
    if (with_ack) {
      EXPECT_EQ(*p.ack, ack);
    }
    EXPECT_EQ(p.proof_height, 42u);
    EXPECT_EQ(p.proof.serialize(), proof.serialize());
    EXPECT_EQ(ix::packet_proof_payload(p.packet, p.ack ? &*p.ack : nullptr, p.proof_height,
                                       p.proof),
              wire);
    expect_all_truncations_throw(
        wire, [&](ByteView b) { return ix::decode_packet_proof(b, with_ack); });
    // The layout differs by the ack: read with the wrong shape, it fails.
    EXPECT_THROW((void)ix::decode_packet_proof(wire, !with_ack), CodecError);
  }
}

TEST(StagedPayloads, EvidenceRoundTripsAndRejectsTruncation) {
  const auto offender = crypto::PrivateKey::from_label("payload-offender");
  for (const int count : {1, 2}) {
    ix::Evidence ev;
    ev.offender = offender.public_key();
    for (int i = 0; i < count; ++i) {
      ev.headers.push_back(sample_header(3));
      ev.headers.back().state_root.bytes[0] = static_cast<std::uint8_t>(i);
      ev.signatures.push_back(offender.sign(ev.headers.back().signing_digest().view()));
    }
    const Bytes wire = ix::evidence_payload(ev);
    const ix::Evidence back = ix::decode_evidence(wire);
    EXPECT_EQ(back.offender, ev.offender);
    EXPECT_EQ(back.headers, ev.headers);
    EXPECT_EQ(back.signatures, ev.signatures);
    EXPECT_EQ(ix::evidence_payload(back), wire);

    // Every prefix throws CodecError except the one that ends where the
    // annex begins: evidence without its annex carries no signatures.
    const std::size_t without_annex = wire.size() - 64 * static_cast<std::size_t>(count);
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      const ByteView prefix{wire.data(), cut};
      if (cut == without_annex) {
        const ix::Evidence bare = ix::decode_evidence(prefix);
        EXPECT_EQ(bare.headers, ev.headers);
        EXPECT_TRUE(bare.signatures.empty());
        continue;
      }
      EXPECT_THROW((void)ix::decode_evidence(prefix), CodecError) << "prefix length " << cut;
    }
  }
}

TEST(StagedPayloads, EvidenceWithoutAnnexDecodesWithNoSignatures) {
  ix::Evidence ev;
  ev.offender = crypto::PrivateKey::from_label("bare-offender").public_key();
  ev.headers = {sample_header(8)};
  const ix::Evidence back = ix::decode_evidence(ix::evidence_payload(ev));
  EXPECT_EQ(back.headers, ev.headers);
  EXPECT_TRUE(back.signatures.empty());
}

TEST(StagedPayloads, EvidenceHeaderCountIsTheContractsRejection) {
  for (const int count : {0, 3}) {
    ix::Evidence ev;
    ev.offender = crypto::PrivateKey::from_label("count-offender").public_key();
    for (int i = 0; i < count; ++i) ev.headers.push_back(sample_header(1));
    try {
      (void)ix::decode_evidence(ix::evidence_payload(ev));
      ADD_FAILURE() << count << " headers decoded";
    } catch (const host::TxError& e) {
      EXPECT_EQ(std::string(e.what()), "evidence: need 1 or 2 headers");
    }
  }
}

}  // namespace
}  // namespace bmg::guest
