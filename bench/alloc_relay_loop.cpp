// Allocation-accounting harness (PR 6): runs the full-stack relay
// loop in steady state and reports heap allocations and bytes copied
// per delivered packet, using the global counters behind
// BMG_ALLOC_STATS.
//
// With --budget FILE, compares allocations/packet against the
// checked-in budget and exits non-zero on regression — the CI leg that
// keeps the zero-copy hot path from silently re-growing heap traffic.
// In a default build (BMG_ALLOC_STATS=OFF) the counters read zero; the
// harness says so and exits 0 so it is safe to run anywhere.
//
//   alloc_relay_loop [--days D] [--seed N] [--budget FILE]
//                    [--shards N] [--shard-workers W]
//
// With --shards N (PR 7), N independent relay loops run as shard-pool
// cells, each seeded from stream_seed(seed, cell).  Per-cell counts
// come from alloc_stats::thread_snapshot() — a cell runs wholly on one
// worker thread, so the thread-local delta attributes the cell's
// allocations exactly no matter which worker ran it or what ran on
// that worker before.  The
// per-cell rows and the aggregated budget check are therefore
// byte-identical at any --shard-workers.
//
// Budget file format: lines of `key value`, `#` comments.  Keys:
//   allocs_per_packet_max   (required) ceiling on allocations/packet
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_common.hpp"
#include "common/alloc_stats.hpp"
#include "grid.hpp"

namespace {

using namespace bmg;

struct Budget {
  double allocs_per_packet_max = 0;
  bool loaded = false;
};

Budget load_budget(const char* path) {
  Budget b;
  std::FILE* f = std::fopen(path, "r");
  if (!f) {
    std::fprintf(stderr, "alloc_relay_loop: cannot open budget file '%s'\n", path);
    std::exit(2);
  }
  char line[256];
  while (std::fgets(line, sizeof(line), f)) {
    if (line[0] == '#' || line[0] == '\n') continue;
    char key[128];
    double value = 0;
    if (std::sscanf(line, "%127s %lf", key, &value) == 2 &&
        std::strcmp(key, "allocs_per_packet_max") == 0) {
      b.allocs_per_packet_max = value;
      b.loaded = true;
    }
  }
  std::fclose(f);
  if (!b.loaded) {
    std::fprintf(stderr,
                 "alloc_relay_loop: budget file '%s' missing allocs_per_packet_max\n",
                 path);
    std::exit(2);
  }
  return b;
}

/// One relay-loop measurement: warm-up, then a measured window of
/// traffic.  Counts come from the calling thread's own counters so the
/// result is per-cell exact under the shard pool.
struct CellMeasure {
  std::uint64_t packets = 0;
  alloc_stats::Snapshot delta;
};

CellMeasure run_loop(std::uint64_t seed, std::optional<std::uint64_t> stream,
                     double days) {
  relayer::DeploymentConfig cfg = bench::paper_config(seed);
  cfg.rng_stream = stream;
  cfg.guest.delta_seconds = 60.0;  // tight Δ so packets finalise quickly
  relayer::Deployment d(cfg);
  d.open_ibc();

  // Warm-up: traffic so arenas, tries and caches reach steady state
  // before the measured window opens.
  {
    const double warm_until = d.sim().now() + 0.02 * 86400.0;
    bench::GuestSendWorkload warm_guest(d, 120.0, warm_until);
    bench::CpSendWorkload warm_cp(d, 300.0, warm_until);
    d.run_for(0.02 * 86400.0 + 2.0 * cfg.guest.delta_seconds);
  }

  const std::uint64_t packets_before =
      d.relayer().packets_relayed_to_cp() + d.relayer().packets_relayed_to_guest();
  const alloc_stats::Snapshot before = alloc_stats::thread_snapshot();

  const double until = d.sim().now() + days * 86400.0;
  bench::GuestSendWorkload guest_load(d, 120.0, until);
  bench::CpSendWorkload cp_load(d, 300.0, until);
  d.run_for(days * 86400.0 + 2.0 * cfg.guest.delta_seconds);

  CellMeasure m;
  m.delta = alloc_stats::thread_snapshot() - before;
  m.packets = d.relayer().packets_relayed_to_cp() +
              d.relayer().packets_relayed_to_guest() - packets_before;
  return m;
}

int run_sharded(long shards, std::uint64_t seed, double days,
                const char* budget_path, const char* timing_csv) {
  const auto n = static_cast<std::size_t>(shards);
  std::fprintf(stderr, "alloc_relay_loop: %zu shards, %zu shard workers\n", n,
               shard::worker_count());
  std::vector<CellMeasure> cells(n);
  const bench::GridResult g = bench::run_grid(n, [&](std::size_t i) {
    cells[i] = run_loop(seed, i, days);
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%zu,%llu,%llu,%.1f\n", i,
                  static_cast<unsigned long long>(cells[i].packets),
                  static_cast<unsigned long long>(cells[i].delta.allocs),
                  cells[i].packets > 0
                      ? static_cast<double>(cells[i].delta.allocs) /
                            static_cast<double>(cells[i].packets)
                      : 0.0);
    return bench::CellOutput{buf, {}};
  });

  std::printf("alloc_relay_loop: seed=%llu days=%.3f shards=%zu\n",
              static_cast<unsigned long long>(seed), days, n);
  std::printf("cell,packets,allocs,allocs_per_packet\n");
  bench::print_cells(g);
  bench::write_timing(g, timing_csv, "alloc_relay_loop");

  if (!alloc_stats::enabled()) {
    std::printf("alloc stats DISABLED (configure with -DBMG_ALLOC_STATS=ON)\n");
    return 0;
  }
  std::uint64_t packets = 0, allocs = 0;
  for (const CellMeasure& m : cells) {
    packets += m.packets;
    allocs += m.delta.allocs;
  }
  if (packets == 0) {
    std::fprintf(stderr, "alloc_relay_loop: no packets delivered; run longer\n");
    return 2;
  }
  const double allocs_per_packet =
      static_cast<double>(allocs) / static_cast<double>(packets);
  std::printf("packets_delivered      %llu\n",
              static_cast<unsigned long long>(packets));
  std::printf("allocs_total           %llu\n",
              static_cast<unsigned long long>(allocs));
  std::printf("allocs_per_packet      %.1f\n", allocs_per_packet);

  if (budget_path != nullptr) {
    const Budget budget = load_budget(budget_path);
    if (allocs_per_packet > budget.allocs_per_packet_max) {
      std::fprintf(stderr,
                   "alloc_relay_loop: REGRESSION — %.1f allocs/packet exceeds "
                   "budget %.1f (%s)\n",
                   allocs_per_packet, budget.allocs_per_packet_max, budget_path);
      return 1;
    }
    std::printf("budget_ok              %.1f <= %.1f\n", allocs_per_packet,
                budget.allocs_per_packet_max);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  double days = 0.10;
  std::uint64_t seed = 42;
  long shards = 0;
  const char* budget_path = nullptr;
  const char* timing_csv = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--days") == 0 && i + 1 < argc) {
      days = bench::parse_positive_double("alloc_relay_loop", "--days", argv[++i]);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = bench::parse_uint64("alloc_relay_loop", "--seed", argv[++i]);
    } else if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc) {
      budget_path = argv[++i];
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = bench::parse_positive_long("alloc_relay_loop", "--shards", argv[++i]);
    } else if (std::strcmp(argv[i], "--shard-workers") == 0 && i + 1 < argc) {
      shard::set_worker_count(static_cast<std::size_t>(bench::parse_positive_long(
          "alloc_relay_loop", "--shard-workers", argv[++i])));
    } else if (std::strcmp(argv[i], "--timing-csv") == 0 && i + 1 < argc) {
      timing_csv = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: alloc_relay_loop [--days D] [--seed N] [--budget FILE] "
                   "[--shards N] [--shard-workers W] [--timing-csv PATH]\n");
      return 2;
    }
  }

  if (shards > 0) return run_sharded(shards, seed, days, budget_path, timing_csv);

  relayer::DeploymentConfig cfg = bench::paper_config(seed);
  cfg.guest.delta_seconds = 60.0;  // tight Δ so packets finalise quickly
  relayer::Deployment d(cfg);
  d.open_ibc();

  // Warm-up: one day of traffic so arenas, tries and caches reach
  // steady state before the measured window opens.
  {
    const double warm_until = d.sim().now() + 0.02 * 86400.0;
    bench::GuestSendWorkload warm_guest(d, 120.0, warm_until);
    bench::CpSendWorkload warm_cp(d, 300.0, warm_until);
    d.run_for(0.02 * 86400.0 + 2.0 * cfg.guest.delta_seconds);
  }

  const std::uint64_t packets_before =
      d.relayer().packets_relayed_to_cp() + d.relayer().packets_relayed_to_guest();
  const alloc_stats::Snapshot before = alloc_stats::snapshot();

  const double until = d.sim().now() + days * 86400.0;
  bench::GuestSendWorkload guest_load(d, 120.0, until);
  bench::CpSendWorkload cp_load(d, 300.0, until);
  d.run_for(days * 86400.0 + 2.0 * cfg.guest.delta_seconds);

  const alloc_stats::Snapshot delta = alloc_stats::snapshot() - before;
  const std::uint64_t packets =
      d.relayer().packets_relayed_to_cp() + d.relayer().packets_relayed_to_guest() -
      packets_before;

  std::printf("alloc_relay_loop: seed=%llu days=%.3f\n",
              static_cast<unsigned long long>(seed), days);
  std::printf("packets_delivered      %llu\n",
              static_cast<unsigned long long>(packets));
  if (!alloc_stats::enabled()) {
    std::printf("alloc stats DISABLED (configure with -DBMG_ALLOC_STATS=ON)\n");
    return 0;
  }
  if (packets == 0) {
    std::fprintf(stderr, "alloc_relay_loop: no packets delivered; run longer\n");
    return 2;
  }

  const double allocs_per_packet =
      static_cast<double>(delta.allocs) / static_cast<double>(packets);
  const double alloc_bytes_per_packet =
      static_cast<double>(delta.alloc_bytes) / static_cast<double>(packets);
  const double copied_per_packet =
      static_cast<double>(delta.bytes_copied) / static_cast<double>(packets);
  std::printf("allocs_total           %llu\n",
              static_cast<unsigned long long>(delta.allocs));
  std::printf("allocs_per_packet      %.1f\n", allocs_per_packet);
  std::printf("alloc_bytes_per_packet %.1f\n", alloc_bytes_per_packet);
  std::printf("bytes_copied_per_packet %.1f\n", copied_per_packet);

  if (budget_path != nullptr) {
    const Budget budget = load_budget(budget_path);
    if (allocs_per_packet > budget.allocs_per_packet_max) {
      std::fprintf(stderr,
                   "alloc_relay_loop: REGRESSION — %.1f allocs/packet exceeds "
                   "budget %.1f (%s)\n",
                   allocs_per_packet, budget.allocs_per_packet_max, budget_path);
      return 1;
    }
    std::printf("budget_ok              %.1f <= %.1f\n", allocs_per_packet,
                budget.allocs_per_packet_max);
  }
  return 0;
}
