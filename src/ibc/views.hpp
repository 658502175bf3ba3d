// Flat zero-copy decode views over wire bytes (the per-event hot path).
//
// The owning decode structs (`SignedQuorumHeader::decode`,
// `ValidatorSet::decode`) copy every field onto the heap.  On the hot
// path — a light client that reads a header once, checks it, and
// hashes it — those copies are pure overhead.  `QuorumLightClient::
// update` parses through the views here: a signed header, its header
// and its next validator set.  Each view parses the same wire format
// but *borrows* the input: variable-length fields become
// string_view/ByteView into the original buffer, fixed fields are
// decoded by value, and every bound (including trailing bytes and
// nested-blob exactness) is verified once at `parse()`, which throws
// CodecError — never UB — on malformed input.
//
// Because the codec is fully canonical (one byte string per value),
// a view can hash its borrowed bytes directly: `signing_digest()` on a
// header view equals digest-of-re-encode without re-encoding.
//
// Borrowing rules (DESIGN.md §11): a view is valid only while the
// buffer it was parsed from is alive and unmodified.  Views are for
// event-scoped reads; anything that must outlive the event goes
// through `to_owned()` (or the owning decode at trust boundaries).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "common/bytes.hpp"
#include "crypto/keys.hpp"
#include "ibc/quorum.hpp"

namespace bmg::ibc {

/// Zero-copy mirror of `QuorumHeader`.
struct QuorumHeaderView {
  std::string_view chain_id;
  Height height = 0;
  std::uint64_t timestamp_micros = 0;
  Hash32 state_root{};
  Hash32 validator_set_hash{};
  ByteView extra;
  ByteView wire;

  [[nodiscard]] static QuorumHeaderView parse(ByteView wire);
  [[nodiscard]] Timestamp timestamp() const noexcept {
    return static_cast<double>(timestamp_micros) / 1e6;
  }
  /// sha256(wire) — equals `QuorumHeader::signing_digest()`.
  [[nodiscard]] Hash32 signing_digest() const;
  [[nodiscard]] QuorumHeader to_owned() const;
};

/// Zero-copy mirror of `ValidatorSet`: a validated count plus the raw
/// 40-byte (key, stake) records, accessed in place.
struct ValidatorSetView {
  std::uint32_t count = 0;
  /// `count` packed records of [32-byte key][8-byte stake].
  ByteView records;
  ByteView wire;

  [[nodiscard]] static ValidatorSetView parse(ByteView wire);
  [[nodiscard]] bool empty() const noexcept { return count == 0; }
  [[nodiscard]] ByteView key_at(std::uint32_t i) const noexcept {
    return records.subspan(std::size_t{40} * i, 32);
  }
  [[nodiscard]] std::uint64_t stake_at(std::uint32_t i) const noexcept;
  [[nodiscard]] ValidatorSet to_owned() const;
};

/// Zero-copy mirror of `SignedQuorumHeader`.
struct SignedQuorumHeaderView {
  QuorumHeaderView header;
  std::uint32_t signature_count = 0;
  /// `signature_count` packed records of [32-byte key][64-byte sig].
  ByteView signatures;
  std::optional<ValidatorSetView> next_validators;
  ByteView wire;

  [[nodiscard]] static SignedQuorumHeaderView parse(ByteView wire);
  [[nodiscard]] crypto::PublicKey signer_at(std::uint32_t i) const noexcept;
  [[nodiscard]] ByteView signature_at(std::uint32_t i) const noexcept {
    return signatures.subspan(std::size_t{96} * i + 32, 64);
  }
  /// sha256 of the embedded header blob — equals
  /// `SignedQuorumHeader::signing_digest()` — with no re-encode.
  [[nodiscard]] Hash32 signing_digest() const { return header.signing_digest(); }
  [[nodiscard]] SignedQuorumHeader to_owned() const;
};

}  // namespace bmg::ibc
