// Fig. 2 — Delay between sending a packet (SendPacket invocation) and
// the packet being stored in a finalised guest block (FinalisedBlock).
//
// Paper result: all but three transfers completed within 21 seconds;
// the stragglers came from validator signing delays (validator #1's
// heavy tail).  We reproduce the same pipeline: the send transaction
// lands on the host, the crank generates a guest block, and the block
// finalises once 17 of 24 validators (Table I latency profiles) have
// signed.
//
// Grid mode (--grid-seeds N): instead of the single classic run, N
// independent replications execute on the shard pool, each a complete
// deployment seeded from the deterministic stream split
// stream_seed(seed, cell), and the latency quantiles print as one CSV
// row per cell — byte-identical at any --shard-workers.
#include "bench_common.hpp"
#include "grid.hpp"

namespace {

using namespace bmg;

bench::CellOutput run_cell(std::size_t cell, const bench::Args& args) {
  relayer::DeploymentConfig cfg = bench::paper_config(args.seed);
  cfg.rng_stream = cell;  // replication = stream split of the base seed
  relayer::Deployment d(cfg);
  d.open_ibc();

  const double horizon = d.sim().now() + args.days * 86400.0;
  bench::GuestSendWorkload workload(d, /*mean_interarrival_s=*/1500.0, horizon);
  d.sim().run_until(horizon + 2 * 3600.0);

  Series latency;
  int finalised = 0;
  for (const auto& r : workload.records()) {
    if (!r->executed || !r->finalised) continue;
    ++finalised;
    latency.add(r->finalised_at - r->executed_at);
  }
  const int over21 = static_cast<int>(
      static_cast<double>(latency.count()) * (1.0 - latency.cdf_at(21.0)));
  // An empty series (nothing finalised yet) prints 0, as empty means do.
  const auto q = [&latency](double p) {
    return latency.empty() ? 0.0 : latency.quantile(p);
  };

  char buf[192];
  std::snprintf(buf, sizeof(buf), "%zu,%zu,%d,%.1f,%.1f,%.1f,%.1f,%d\n", cell,
                workload.records().size(), finalised, q(0.5), q(0.9), q(0.99), q(1.0),
                over21);
  return bench::CellOutput{buf, {}};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bmg;
  const bench::Args args = bench::Args::parse(
      argc, argv, /*default_days=*/7.0, bench::Args::kGrid | bench::Args::kGridSeeds);

  if (args.grid_seeds > 0) {
    const auto n = static_cast<std::size_t>(args.grid_seeds);
    std::fprintf(stderr, "fig2_send_latency: %zu replications, %zu shard workers\n", n,
                 shard::worker_count());
    const bench::GridResult g =
        bench::run_grid(n, [&](std::size_t i) { return run_cell(i, args); });
    std::printf("cell,sent,finalised,median_s,p90_s,p99_s,max_s,over_21s\n");
    bench::print_cells(g);
    std::fprintf(stderr, "fig2_send_latency: wall=%.3fs\n", g.wall_s);
    bench::write_timing(g, args.timing_csv, "fig2_send_latency");
    return 0;
  }

  bench::print_header("Fig. 2: send-packet latency (SendPacket -> FinalisedBlock)", args);

  relayer::Deployment d(bench::paper_config(args.seed));
  d.open_ibc();

  const double horizon = d.sim().now() + args.days * 86400.0;
  // Paper-like traffic: a packet roughly every 25 minutes.
  bench::GuestSendWorkload workload(d, /*mean_interarrival_s=*/1500.0, horizon);
  d.sim().run_until(horizon + 2 * 3600.0);  // drain the tail

  Series latency;
  int finalised = 0, unfinalised = 0;
  for (const auto& r : workload.records()) {
    if (!r->executed) continue;
    if (!r->finalised) {
      ++unfinalised;
      continue;
    }
    ++finalised;
    latency.add(r->finalised_at - r->executed_at);
  }

  std::printf("packets sent: %zu, finalised: %d, still pending at horizon: %d\n\n",
              workload.records().size(), finalised, unfinalised);
  std::printf("%s\n", render_cdf(latency, 20, "latency (s)").c_str());
  if (!latency.empty())
    std::printf("quantiles:  median=%.1f s   p90=%.1f s   p99=%.1f s   max=%.1f s\n",
                latency.quantile(0.5), latency.quantile(0.9), latency.quantile(0.99),
                latency.max());

  const int over21 = static_cast<int>(
      static_cast<double>(latency.count()) * (1.0 - latency.cdf_at(21.0)));
  std::printf("\npaper: all but 3 transfers within 21 s; stragglers from validator"
              " signing delays\n");
  std::printf("here : %d of %zu transfers exceeded 21 s\n", over21, latency.count());
  return 0;
}
