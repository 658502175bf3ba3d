// Canonical, deterministic binary serialization.
//
// Every hashed structure in the system (guest blocks, IBC packets,
// counterparty headers, trie nodes) is serialized through this codec so
// hashes are stable across runs.  Integers are big-endian; variable
// length data is length-prefixed with a u32.
//
// The encoding is *fully canonical*: there is exactly one byte string
// per value, so the digest of a wire blob equals the digest of its
// re-encoding.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/bytes.hpp"

namespace bmg {

/// Thrown by Decoder on truncated or malformed input.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only encoder with two storage modes:
///  - owning (default): writes into an internal heap buffer; `take()`
///    moves it out as `Bytes`.
///  - caller buffer: writes into a caller-provided span (typically
///    stack storage); spills to an internal heap buffer only if the
///    output outgrows it.
/// The hot fixed-shape encoders (trie nodes, headers, packet
/// commitments) know their exact size arithmetically; passing it as
/// `size_hint` makes growth a non-event.
class Encoder {
 public:
  Encoder() = default;
  /// Owning mode, pre-sized for `size_hint` bytes of output.
  explicit Encoder(std::size_t size_hint) { ensure(size_hint); }
  /// Caller-buffer mode over `scratch`.
  explicit Encoder(std::span<std::uint8_t> scratch)
      : data_(scratch.data()), cap_(scratch.size()), scratch_(scratch.data()) {}

  /// Ensures `n` more bytes can be appended without another growth.
  Encoder& reserve(std::size_t n) {
    ensure(n);
    return *this;
  }

  Encoder& u8(std::uint8_t v);
  Encoder& u16(std::uint16_t v);
  Encoder& u32(std::uint32_t v);
  Encoder& u64(std::uint64_t v);
  /// Raw bytes, no length prefix (fixed-size fields).
  Encoder& raw(ByteView data);
  /// Length-prefixed bytes.
  Encoder& bytes(ByteView data);
  /// Length-prefixed UTF-8 string.
  Encoder& str(std::string_view s);
  Encoder& hash(const Hash32& h);
  Encoder& boolean(bool v);

  /// The encoded output.  Valid until the next append (growth may move
  /// the buffer).
  [[nodiscard]] ByteView out() const noexcept { return {data_, size_}; }
  /// Moves the output out as owning Bytes.  In owning mode this is the
  /// no-copy move of the internal buffer; in caller-buffer mode it
  /// copies (prefer `out()` there).
  [[nodiscard]] Bytes take();
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  void ensure(std::size_t more);
  /// Reserves and claims `n` bytes; returns the write cursor.
  [[nodiscard]] std::uint8_t* grip(std::size_t n) {
    if (cap_ - size_ < n) ensure(n);
    std::uint8_t* p = data_ + size_;
    size_ += n;
    return p;
  }

  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
  std::uint8_t* scratch_ = nullptr;   ///< caller-buffer mode
  Bytes own_;                         ///< owning-mode / spill storage
};

class Decoder {
 public:
  explicit Decoder(ByteView data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] Bytes raw(std::size_t n);
  [[nodiscard]] Bytes bytes();
  [[nodiscard]] std::string str();
  [[nodiscard]] Hash32 hash();
  [[nodiscard]] bool boolean();

  // Zero-copy variants: the returned views borrow the decoder's input
  // and are valid exactly as long as it is.  Bounds are checked the
  // same way as the owning variants (CodecError on truncation).
  [[nodiscard]] ByteView view(std::size_t n);
  [[nodiscard]] ByteView bytes_view();
  [[nodiscard]] std::string_view str_view();
  /// Fixed-width field (a key, a signature) copied out of view(N).
  template <std::size_t N>
  [[nodiscard]] std::array<std::uint8_t, N> array() {
    std::array<std::uint8_t, N> out;
    std::memcpy(out.data(), view(N).data(), N);
    return out;
  }

  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  /// Throws CodecError unless all input was consumed.
  void expect_done() const;

 private:
  void need(std::size_t n) const;

  ByteView data_;
  std::size_t pos_ = 0;
};

}  // namespace bmg
