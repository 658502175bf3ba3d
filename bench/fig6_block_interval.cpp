// Fig. 6 — Interval between generation times of two consecutive guest
// blocks.
//
// Paper result: the distribution roughly follows the packet arrival
// rate up to Δ = 1 h, where the empty-block rule cuts it off; about a
// quarter of blocks were generated at the cutoff (i.e. empty), and
// five intervals were far beyond an hour due to validator signing
// stalls.
//
// Grid mode (--grid-seeds N): N independent replications on the shard
// pool, each seeded from stream_seed(seed, cell), printed as one CSV
// row per cell — byte-identical at any --shard-workers.
#include "bench_common.hpp"
#include "grid.hpp"

namespace {

using namespace bmg;

bench::CellOutput run_cell(std::size_t cell, const bench::Args& args) {
  relayer::DeploymentConfig cfg = bench::paper_config(args.seed);
  cfg.rng_stream = cell;
  relayer::Deployment d(cfg);
  d.open_ibc();

  const double horizon = d.sim().now() + args.days * 86400.0;
  bench::GuestSendWorkload workload(d, /*mean_interarrival_s=*/2700.0, horizon);
  d.sim().run_until(horizon);

  Series intervals;
  const auto n = static_cast<ibc::Height>(d.guest().block_count());
  for (ibc::Height h = 2; h < n; ++h)
    intervals.add(d.guest().block_at(h).header.timestamp -
                  d.guest().block_at(h - 1).header.timestamp);

  std::size_t at_cutoff = 0, way_over = 0;
  for (double v : intervals.samples()) {
    if (v >= 3600.0 && v < 3700.0) ++at_cutoff;
    if (v >= 2.0 * 3600.0) ++way_over;
  }

  char buf[192];
  std::snprintf(buf, sizeof(buf), "%zu,%zu,%zu,%.1f,%.1f,%zu\n", cell,
                d.guest().block_count(), workload.records().size(),
                intervals.count() > 0 ? intervals.mean() : 0.0,
                intervals.count() > 0
                    ? 100.0 * static_cast<double>(at_cutoff) /
                          static_cast<double>(intervals.count())
                    : 0.0,
                way_over);
  return bench::CellOutput{buf, {}};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bmg;
  const bench::Args args = bench::Args::parse(
      argc, argv, /*default_days=*/14.0, bench::Args::kGrid | bench::Args::kGridSeeds);

  if (args.grid_seeds > 0) {
    const auto n = static_cast<std::size_t>(args.grid_seeds);
    std::fprintf(stderr, "fig6_block_interval: %zu replications, %zu shard workers\n",
                 n, shard::worker_count());
    const bench::GridResult g =
        bench::run_grid(n, [&](std::size_t i) { return run_cell(i, args); });
    std::printf("cell,blocks,sends,mean_interval_s,at_cutoff_pct,way_over\n");
    bench::print_cells(g);
    std::fprintf(stderr, "fig6_block_interval: wall=%.3fs\n", g.wall_s);
    bench::write_timing(g, args.timing_csv, "fig6_block_interval");
    return 0;
  }

  bench::print_header("Fig. 6: interval between consecutive guest blocks", args);

  relayer::Deployment d(bench::paper_config(args.seed));
  d.open_ibc();

  const double horizon = d.sim().now() + args.days * 86400.0;
  // Poisson sends with a ~45 min mean; P(no packet within Delta=1h)
  // = e^(-60/45) ~ 26%, matching the paper's quarter-empty blocks.
  bench::GuestSendWorkload workload(d, /*mean_interarrival_s=*/2700.0, horizon);
  d.sim().run_until(horizon);

  Series intervals;
  const auto n = static_cast<ibc::Height>(d.guest().block_count());
  for (ibc::Height h = 2; h < n; ++h) {
    intervals.add(d.guest().block_at(h).header.timestamp -
                  d.guest().block_at(h - 1).header.timestamp);
  }

  std::printf("guest blocks: %zu over %.1f days (%zu packets sent)\n\n",
              d.guest().block_count(), args.days, workload.records().size());
  std::printf("%s\n",
              render_histogram(intervals, 24, "block interval (s)").c_str());

  std::size_t at_cutoff = 0, way_over = 0;
  for (double v : intervals.samples()) {
    if (v >= 3600.0 && v < 3700.0) ++at_cutoff;
    if (v >= 2.0 * 3600.0) ++way_over;
  }
  std::printf("blocks at the Delta=1 h cutoff (empty blocks): %.1f%%  (paper: ~25%%)\n",
              100.0 * static_cast<double>(at_cutoff) /
                  static_cast<double>(intervals.count()));
  std::printf("intervals vastly over an hour (signing stalls): %zu  (paper: 5)\n",
              way_over);
  return 0;
}
