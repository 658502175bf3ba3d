// Allocation accounting for the perf harness.
//
// Built with -DBMG_ALLOC_STATS (CMake option BMG_ALLOC_STATS=ON) this
// replaces global operator new/delete with counting versions, and the
// codec charges every buffer copy to a bytes-copied counter.  The
// bench binaries then report allocations/event and bytes-copied/event
// as first-class columns, and CI enforces a checked-in budget on the
// steady-state relay loop (bench/alloc_budget.txt).
//
// In the default build everything here compiles to nothing: snapshot()
// returns zeros and count_copy() is an empty inline.  Keeping the
// accounting out of the default build is what lets scenario_runner and
// the figure benches stay byte-identical to the seed outputs.
//
// Counters exist at two granularities.  The process-global relaxed
// atomics back snapshot(); they are exact as long as the measured
// region is single-threaded, as one simulation is.  For sharded runs —
// several whole simulations in flight on distinct shard workers — the
// global counters still sum correctly but cannot attribute traffic,
// so every counter is also kept in plain thread_local storage read by
// thread_snapshot(): a shard cell runs entirely on one worker thread,
// so a before/after thread_snapshot() delta is exact per-cell
// accounting with zero cross-shard bleed, and per-cell deltas
// aggregate to the budget check (alloc_relay_loop --shard-workers).
// Frees are charged to the thread that frees; per-cell *alloc* counts
// — what the budget enforces — are exact.
#pragma once

#include <cstddef>
#include <cstdint>

namespace bmg::alloc_stats {

struct Snapshot {
  std::uint64_t allocs = 0;        ///< operator new calls
  std::uint64_t frees = 0;         ///< operator delete calls
  std::uint64_t alloc_bytes = 0;   ///< bytes requested from operator new
  std::uint64_t bytes_copied = 0;  ///< codec buffer bytes memcpy'd

  friend Snapshot operator-(const Snapshot& a, const Snapshot& b) {
    return {a.allocs - b.allocs, a.frees - b.frees,
            a.alloc_bytes - b.alloc_bytes, a.bytes_copied - b.bytes_copied};
  }
};

[[nodiscard]] constexpr bool enabled() noexcept {
#ifdef BMG_ALLOC_STATS
  return true;
#else
  return false;
#endif
}

#ifdef BMG_ALLOC_STATS
[[nodiscard]] Snapshot snapshot() noexcept;
/// Counters of the calling thread only — the per-shard view.
[[nodiscard]] Snapshot thread_snapshot() noexcept;
void count_copy(std::size_t n) noexcept;
#else
[[nodiscard]] inline Snapshot snapshot() noexcept { return {}; }
[[nodiscard]] inline Snapshot thread_snapshot() noexcept { return {}; }
inline void count_copy(std::size_t) noexcept {}
#endif

}  // namespace bmg::alloc_stats
