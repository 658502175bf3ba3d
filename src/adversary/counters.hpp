// Per-campaign adversary action counters and their CSV row.
#pragma once

#include <cstdint>
#include <string>

namespace bmg::adversary {

/// Cumulative per-action accounting, FaultCounters-style.  One struct
/// per campaign, incremented by the adversary agents as actions land.
struct AdversaryCounters {
  std::uint64_t equivocations = 0;        ///< double-sign pairs gossiped
  std::uint64_t fork_signs = 0;           ///< future-height signatures gossiped
  std::uint64_t collusion_headers = 0;    ///< forged headers co-signed by the clique
  std::uint64_t fork_pushes_rejected = 0; ///< forged headers the light client refused
  std::uint64_t fork_pushes_accepted = 0; ///< forged headers the light client accepted
  std::uint64_t forged_packet_mints = 0;  ///< unbacked vouchers minted off forged proofs
  std::uint64_t updates_clobbered = 0;    ///< in-flight client updates reset
  std::uint64_t front_runs = 0;           ///< packet deliveries stolen from the relayer
  std::uint64_t acks_withheld = 0;        ///< acks captured and sat on
  std::uint64_t acks_released = 0;        ///< withheld acks eventually released
  std::uint64_t stale_replays = 0;        ///< duplicate packet deliveries attempted
  std::uint64_t spam_txs = 0;             ///< fee-pressure transactions submitted

  /// Comma-separated column names matching `csv_row()`, for CSV headers.
  [[nodiscard]] static const char* csv_header() noexcept;
  [[nodiscard]] std::string csv_row() const;
};

}  // namespace bmg::adversary
