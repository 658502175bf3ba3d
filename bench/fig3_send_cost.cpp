// Fig. 3 — Cost of sending a packet (SendPacket invocation).
//
// Paper result: two clear clusters by fee policy — 17% of sends used
// Solana priority fees (~1.40 USD) and 83% used Jito block bundles
// (~3.02 USD).
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bmg;
  const bench::Args args = bench::Args::parse(argc, argv, /*default_days=*/3.0,
                                              bench::Args::kSingleRun);
  bench::print_header("Fig. 3: cost of sending a packet", args);

  relayer::Deployment d(bench::paper_config(args.seed));
  d.open_ibc();

  const double horizon = d.sim().now() + args.days * 86400.0;
  bench::GuestSendWorkload workload(d, /*mean_interarrival_s=*/900.0, horizon);
  d.sim().run_until(horizon + 3600.0);

  Series cost, priority_cost, bundle_cost;
  for (const auto& r : workload.records()) {
    if (!r->executed) continue;
    cost.add(r->fee_usd);
    if (r->fee_usd < 2.0) {
      priority_cost.add(r->fee_usd);
    } else {
      bundle_cost.add(r->fee_usd);
    }
  }

  std::printf("%s\n", render_histogram(cost, 24, "cost (USD)").c_str());
  if (cost.empty()) return 0;  // nothing executed: no clusters to report
  const auto mean = [](const Series& s) { return s.empty() ? 0.0 : s.mean(); };
  const double pr_frac =
      static_cast<double>(priority_cost.count()) / static_cast<double>(cost.count());
  std::printf("clusters:\n");
  std::printf("  priority-fee sends: %5.1f%% of sends, mean %.2f USD  (paper: 17%% at"
              " 1.40 USD)\n",
              100.0 * pr_frac, mean(priority_cost));
  std::printf("  bundle sends      : %5.1f%% of sends, mean %.2f USD  (paper: 83%% at"
              " 3.02 USD)\n",
              100.0 * (1.0 - pr_frac), mean(bundle_cost));
  return 0;
}
