#include "ibc/commitment.hpp"

#include <cstring>
#include <unordered_map>

#include "common/codec.hpp"
#include "crypto/sha256.hpp"

namespace bmg::ibc {

namespace {

// Heterogeneous hashing so the tag cache can be probed with the
// ByteView of a stack-encoded domain — no owning key is materialised
// unless the probe misses (C++20 transparent lookup).
struct DomainHash {
  using is_transparent = void;
  [[nodiscard]] std::size_t operator()(ByteView v) const noexcept {
    // FNV-1a; domains are short (two length-prefixed identifiers).
    std::size_t h = 14695981039346656037ull;
    for (const std::uint8_t b : v) h = (h ^ b) * 1099511628211ull;
    return h;
  }
  [[nodiscard]] std::size_t operator()(const Bytes& b) const noexcept {
    return (*this)(ByteView{b.data(), b.size()});
  }
};

struct DomainEq {
  using is_transparent = void;
  [[nodiscard]] bool operator()(ByteView a, ByteView b) const noexcept {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
  }
  [[nodiscard]] bool operator()(const Bytes& a, ByteView b) const noexcept {
    return (*this)(ByteView{a.data(), a.size()}, b);
  }
  [[nodiscard]] bool operator()(ByteView a, const Bytes& b) const noexcept {
    return (*this)(a, ByteView{b.data(), b.size()});
  }
  [[nodiscard]] bool operator()(const Bytes& a, const Bytes& b) const noexcept {
    return (*this)(ByteView{a.data(), a.size()}, ByteView{b.data(), b.size()});
  }
};

/// sha256(domain), memoised.  The live set of (port, channel) and
/// client/connection identifiers is tiny and stable, so after warm-up
/// every key build skips the hash.  thread_local keeps shard workers
/// lock-free and the cache is pure (same domain -> same tag), so which
/// worker runs a cell cannot perturb results.
const Hash32& domain_tag(ByteView domain) {
  thread_local std::unordered_map<Bytes, Hash32, DomainHash, DomainEq> cache;
  const auto it = cache.find(domain);
  if (it != cache.end()) return it->second;
  const Hash32 tag = crypto::Sha256::digest(domain);
  return cache.emplace(Bytes(domain.begin(), domain.end()), tag).first->second;
}

CommitmentKey make_key(ByteView domain, KeyKind kind, std::uint64_t sequence) {
  return CommitmentKey(domain_tag(domain), kind, sequence);
}

}  // namespace

CommitmentKey::CommitmentKey(const Hash32& tag, KeyKind kind, std::uint64_t sequence) {
  std::memcpy(buf_.data(), tag.bytes.data(), 8);
  buf_[8] = static_cast<std::uint8_t>(kind);
  for (int i = 0; i < 8; ++i)
    buf_[9 + i] = static_cast<std::uint8_t>(sequence >> (56 - 8 * i));
}

CommitmentKey packet_key(KeyKind kind, const PortId& port, const ChannelId& channel,
                         std::uint64_t sequence) {
  std::array<std::uint8_t, 96> stack;
  Encoder domain{std::span<std::uint8_t>(stack)};
  domain.str(port).str(channel);
  return make_key(domain.out(), kind, sequence);
}

CommitmentKey channel_key(const PortId& port, const ChannelId& channel) {
  std::array<std::uint8_t, 96> stack;
  Encoder domain{std::span<std::uint8_t>(stack)};
  domain.str(port).str(channel);
  return make_key(domain.out(), KeyKind::kChannel, 0);
}

CommitmentKey connection_key(const ConnectionId& connection) {
  std::array<std::uint8_t, 96> stack;
  Encoder domain{std::span<std::uint8_t>(stack)};
  domain.str(connection);
  return make_key(domain.out(), KeyKind::kConnection, 0);
}

CommitmentKey client_key(const ClientId& client) {
  std::array<std::uint8_t, 96> stack;
  Encoder domain{std::span<std::uint8_t>(stack)};
  domain.str(client);
  return make_key(domain.out(), KeyKind::kClientState, 0);
}

}  // namespace bmg::ibc
