#include "adversary/counters.hpp"

#include <cstdio>

namespace bmg::adversary {

const char* AdversaryCounters::csv_header() noexcept {
  return "equivocations,fork_signs,collusion_headers,fork_pushes_rejected,"
         "fork_pushes_accepted,forged_packet_mints,updates_clobbered,front_runs,"
         "acks_withheld,acks_released,stale_replays,spam_txs";
}

std::string AdversaryCounters::csv_row() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu",
                static_cast<unsigned long long>(equivocations),
                static_cast<unsigned long long>(fork_signs),
                static_cast<unsigned long long>(collusion_headers),
                static_cast<unsigned long long>(fork_pushes_rejected),
                static_cast<unsigned long long>(fork_pushes_accepted),
                static_cast<unsigned long long>(forged_packet_mints),
                static_cast<unsigned long long>(updates_clobbered),
                static_cast<unsigned long long>(front_runs),
                static_cast<unsigned long long>(acks_withheld),
                static_cast<unsigned long long>(acks_released),
                static_cast<unsigned long long>(stale_replays),
                static_cast<unsigned long long>(spam_txs));
  return buf;
}

}  // namespace bmg::adversary
