// Basic byte-buffer utilities shared by every module.
//
// The whole code base moves data around as `Bytes` (owning) and
// `ByteView` (non-owning).  Canonical hex encoding is provided for
// logging, test vectors and human-readable identifiers.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace bmg {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

/// Lower-case hex encoding of `data`.
[[nodiscard]] std::string to_hex(ByteView data);

/// Parses lower- or upper-case hex.  Throws std::invalid_argument on
/// malformed input (odd length or non-hex characters).
[[nodiscard]] Bytes from_hex(std::string_view hex);

/// Builds a Bytes from a string literal / std::string contents.
[[nodiscard]] Bytes bytes_of(std::string_view s);

/// Concatenates any number of byte views.
[[nodiscard]] Bytes concat(std::initializer_list<ByteView> parts);

/// Constant-time equality for fixed-size digests/signatures; avoids
/// leaking the position of the first mismatch through timing.
[[nodiscard]] bool ct_equal(ByteView a, ByteView b) noexcept;

/// A fixed 32-byte value used for hashes, keys and trie commitments.
struct Hash32 {
  std::array<std::uint8_t, 32> bytes{};

  [[nodiscard]] ByteView view() const noexcept { return ByteView{bytes}; }
  [[nodiscard]] std::string hex() const { return to_hex(view()); }
  [[nodiscard]] bool is_zero() const noexcept;

  friend bool operator==(const Hash32&, const Hash32&) = default;
  friend auto operator<=>(const Hash32&, const Hash32&) = default;
};

/// std::hash support so Hash32 can key unordered containers.
struct Hash32Hasher {
  [[nodiscard]] std::size_t operator()(const Hash32& h) const noexcept {
    std::size_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | h.bytes[static_cast<std::size_t>(i)];
    return v;
  }
};

}  // namespace bmg
