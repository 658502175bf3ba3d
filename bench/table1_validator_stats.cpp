// Table I — Validator signing statistics: per-validator signature
// counts, per-signature cost, and block-signing latency quantiles
// (time between block generation and the validator's Sign landing).
//
// Paper highlights reproduced here: 7 of 24 validators submit no
// signatures; costs and latency are essentially uncorrelated
// (coefficient 0.007), i.e. validators paying high priority fees were
// overpaying.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bmg;
  const bench::Args args = bench::Args::parse(argc, argv, /*default_days=*/14.0,
                                              bench::Args::kSingleRun);
  bench::print_header("Table I: validator signing statistics", args);

  relayer::Deployment d(bench::paper_config(args.seed));
  d.open_ibc();

  const double horizon = d.sim().now() + args.days * 86400.0;
  bench::GuestSendWorkload workload(d, /*mean_interarrival_s=*/2700.0, horizon);
  d.sim().run_until(horizon);
  (void)workload;

  std::printf("guest blocks generated: %zu\n\n", d.guest().block_count());
  std::printf("        #sigs  cost(c)      min       Q1      med       Q3        max"
              "     mean    stddev\n");

  std::vector<double> costs, mean_latencies;
  int silent = 0;
  int index = 0;
  for (const auto& v : d.validators()) {
    ++index;
    const auto sigs = v->signatures_submitted();
    if (sigs == 0) {
      ++silent;
      continue;
    }
    const double cost_cents =
        100.0 * host::lamports_to_usd(v->fees_paid_lamports()) /
        static_cast<double>(sigs);
    const Series& lat = v->signing_latency();
    std::printf("#%-4d %7llu %8.2f %s\n", index,
                static_cast<unsigned long long>(sigs), cost_cents,
                render_quantile_row(lat).c_str());
    costs.push_back(cost_cents);
    mean_latencies.push_back(lat.mean());
  }

  std::printf("\nsilent validators (staked, never signed): %d of %zu  (paper: 7 of"
              " 24)\n",
              silent, d.validators().size());
  if (costs.size() >= 2) {
    std::printf("correlation(cost, mean latency) = %.3f  (paper: 0.007 — higher fees"
                " buy no latency)\n",
                pearson(costs, mean_latencies));
  }
  return 0;
}
