// Nibble (4-bit) path utilities for the Merkle-Patricia trie.
//
// Keys are byte strings; the trie branches on 4-bit nibbles, so a key
// of n bytes is a path of 2n nibbles (high nibble first).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <vector>

#include "common/bytes.hpp"
#include "common/codec.hpp"

namespace bmg::trie {

/// A sequence of nibbles, one per byte (values 0..15), stored inline
/// up to 64 entries — enough for a 32-byte (hashed) key, which is the
/// longest path the IBC layer ever inserts.  Every key walk (get, set,
/// seal, prove, verify_proof) expands its key into one, and each leaf
/// and extension node of a proof carries one, so the inline buffer
/// keeps key walks and proof building, decoding and verification free
/// of a heap allocation per path.  (Trie nodes themselves embed the
/// fixed-size PathRec.)  Longer paths (only reachable by decoding an
/// adversarial proof, whose u16 count field can claim up to 65535)
/// move to the heap and keep working.
class Nibbles {
 public:
  static constexpr std::size_t kInline = 64;
  using value_type = std::uint8_t;
  using const_iterator = const std::uint8_t*;
  using iterator = std::uint8_t*;

  Nibbles() = default;
  Nibbles(std::initializer_list<std::uint8_t> init) : Nibbles(init.begin(), init.end()) {}
  template <typename It>
  Nibbles(It first, It last) {
    for (; first != last; ++first) push_back(static_cast<std::uint8_t>(*first));
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return on_heap() ? heap_.data() : buf_.data();
  }
  [[nodiscard]] std::uint8_t* data() noexcept {
    return on_heap() ? heap_.data() : buf_.data();
  }
  [[nodiscard]] const_iterator begin() const noexcept { return data(); }
  [[nodiscard]] const_iterator end() const noexcept { return data() + size_; }
  [[nodiscard]] iterator begin() noexcept { return data(); }
  [[nodiscard]] iterator end() noexcept { return data() + size_; }

  [[nodiscard]] std::uint8_t operator[](std::size_t i) const noexcept { return data()[i]; }
  [[nodiscard]] std::uint8_t& operator[](std::size_t i) noexcept { return data()[i]; }

  void reserve(std::size_t n) {
    if (n > kInline) heap_.reserve(n);
  }

  void push_back(std::uint8_t nib) {
    if (size_ == kInline && heap_.empty()) {
      // First overflow: migrate the inline prefix so the sequence stays
      // contiguous in one buffer.
      heap_.assign(buf_.begin(), buf_.end());
    }
    if (on_heap() || size_ >= kInline) {
      heap_.push_back(nib);
    } else {
      buf_[size_] = nib;
    }
    ++size_;
  }

  friend bool operator==(const Nibbles& a, const Nibbles& b) noexcept {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data(), b.data(), a.size_) == 0);
  }

 private:
  [[nodiscard]] bool on_heap() const noexcept { return size_ > kInline; }

  std::array<std::uint8_t, kInline> buf_;  // intentionally uninitialised
  std::uint32_t size_ = 0;
  std::vector<std::uint8_t> heap_;  ///< holds ALL nibbles once size_ > kInline
};

/// Expands a byte string into its nibble path.
[[nodiscard]] Nibbles to_nibbles(ByteView key);

/// Length of the longest common prefix of two nibble sequences.
[[nodiscard]] std::size_t common_prefix(const Nibbles& a, std::size_t a_off,
                                        const Nibbles& b, std::size_t b_off);

/// Sub-range copy [off, off+len).
[[nodiscard]] Nibbles slice(const Nibbles& n, std::size_t off, std::size_t len);

/// Canonical encoding used inside node hash preimages and proofs:
/// u16 count followed by one byte per nibble.
void encode_nibbles(Encoder& e, const Nibbles& n);
[[nodiscard]] Nibbles decode_nibbles(Decoder& d);

}  // namespace bmg::trie
