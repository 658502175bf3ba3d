// Per-layer accounting for the traced benchmark build.
//
// The wrappers in wrappers.cpp open one Span per call into a layer
// boundary.  Spans nest on a per-thread stack; a span's self time is
// its duration minus the durations of the wrapped spans nested inside
// it, so every wrapped nanosecond lands in exactly one layer.  Totals
// stay in memory, per thread, until driver.cpp takes them at the end
// of a cell (a cell runs start to finish on one shard worker).
//
// Spans read the thread's CPU clock, so time the thread spends
// descheduled is charged to no layer and self times add up to the
// cell's CPU time.  That clock is a system call (~0.3 us); the cost of
// one read, measured once per process, is subtracted from every span
// and from its parent, so tiny spans such as one SHA-256 block are not
// inflated by the tracer.
//
// The untraced build links this file too but never opens a span, so
// its totals stay zero.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/bytes.hpp"

namespace perfbench::trace {

enum class Layer : std::uint8_t {
  kSign,             ///< crypto::PrivateKey::sign
  kVerifyBatch,      ///< ed25519::verify_batch
  kVerifySingle,     ///< crypto::verify
  kSha256,           ///< Sha256::digest, sha256_pair, sha256_batch
  kTrieSet,          ///< SealableTrie::set
  kTrieSeal,         ///< SealableTrie::seal
  kTrieCommit,       ///< SealableTrie::commit
  kTrieProve,        ///< SealableTrie/TrieSnapshot::prove, ProofService::prove_batch
  kTrieVerifyProof,  ///< trie::verify_proof
  kIbcUpdateClient,  ///< IbcModule::update_client
  kIbcPacket,        ///< IbcModule::send/recv/acknowledge/timeout_packet
  kCpHeader,         ///< CounterpartyChain::header_at
  kCount,
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

/// What one thread recorded since its last begin_cell().
struct Totals {
  std::array<std::uint64_t, kLayers> calls{};
  std::array<double, kLayers> self_s{};
  std::uint64_t sign_under_header = 0;  ///< signs nested in header_at
  std::uint64_t verify_items = 0;       ///< batch items + single verifies
  std::uint64_t verify_distinct = 0;    ///< distinct (pub, msg, sig)
  std::uint64_t host_submits = 0;       ///< host::Chain::submit calls
  std::uint64_t sequences = 0;          ///< TxPipeline::submit_sequence calls
  /// Clock-read cost of top-level spans, which lands outside every span.
  double outside_overhead_s = 0;

  Totals& operator+=(const Totals& o);
  [[nodiscard]] double self_total_s() const;
};

/// Times one call into `layer` on the calling thread.
class Span {
 public:
  explicit Span(Layer layer);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

/// Records one verified triple for the distinct-triple ratio.  Called
/// outside the verify span, so the bookkeeping is not charged to it.
void note_verified(bmg::ByteView pub, bmg::ByteView msg, bmg::ByteView sig);
void count_host_submit();
void count_sequence();

/// Clears this thread's totals (the span stack must be empty).
void begin_cell();
/// This thread's totals since begin_cell().
[[nodiscard]] Totals end_cell();

/// Traced build only (wrappers.cpp): true when every boundary's header
/// function resolves to its wrapper.
[[nodiscard]] bool check_boundaries();

}  // namespace perfbench::trace
