// Ablation — sweep of the Δ parameter (§III-A): Δ bounds how stale
// the guest chain's committed timestamp may get (IBC timeouts need
// the counterparty to observe fresh guest time), but smaller Δ means
// more empty blocks, each costing a full round of validator
// signatures.
//
// Each Δ point is one shard-pool cell (its own deployment); rows print
// in sweep order, byte-identical at any --shard-workers.
#include "bench_common.hpp"
#include "grid.hpp"

namespace {

using namespace bmg;

bench::CellOutput run_delta(double delta, const bench::Args& args) {
  relayer::DeploymentConfig cfg = bench::paper_config(args.seed);
  cfg.guest.delta_seconds = delta;
  relayer::Deployment d(std::move(cfg));
  d.open_ibc();

  const double start = d.sim().now();
  const double horizon = start + args.days * 86400.0;
  bench::GuestSendWorkload workload(d, /*mean_interarrival_s=*/2700.0, horizon);
  d.sim().run_until(horizon);
  (void)workload;

  std::size_t empty = 0;
  for (ibc::Height h = 1; h < d.guest().block_count(); ++h)
    if (d.guest().block_at(h).packets.empty()) ++empty;

  std::uint64_t sign_txs = 0;
  for (const auto& v : d.validators()) sign_txs += v->signatures_submitted();

  const double days = (d.sim().now() - start) / 86400.0;
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%8.0f s %8zu %13.1f%% %14.1f %18.1f\n", delta,
                d.guest().block_count(),
                100.0 * static_cast<double>(empty) /
                    static_cast<double>(d.guest().block_count() - 1),
                static_cast<double>(d.guest().block_count()) / days,
                static_cast<double>(sign_txs) / days);
  return bench::CellOutput{buf, {}};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bmg;
  const bench::Args args = bench::Args::parse(argc, argv, /*default_days=*/2.0,
                                              bench::Args::kGrid);
  bench::print_header("Ablation: Delta sweep (empty-block rate vs timestamp freshness)",
                      args);

  const double deltas[] = {600.0, 1800.0, 3600.0, 7200.0, 14400.0};
  std::printf("%10s %8s %14s %14s %18s\n", "Delta", "blocks", "empty-blocks",
              "blocks/day", "validator txs/day");

  const bench::GridResult g = bench::run_grid(
      std::size(deltas), [&](std::size_t i) { return run_delta(deltas[i], args); });
  bench::print_cells(g);
  bench::write_timing(g, args.timing_csv, "ablation_delta");

  std::printf("\nsmaller Delta keeps guest timestamps fresh for IBC timeouts but\n"
              "multiplies empty blocks and validator signing costs (paper §III-A).\n");
  return 0;
}
