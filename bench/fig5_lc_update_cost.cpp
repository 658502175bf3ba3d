// Fig. 5 — Cost of a light client update by the relayer (total cost
// of all the host transactions in the update), plus the ReceivePacket
// cost breakdown of §V-B.
//
// Paper: relayers pay the default fee model — 0.1 cents per
// transaction plus 0.1 cents per verified signature; cost variance
// comes from the amount of data and the number of signatures checked.
// ReceivePacket calls took 4-5 transactions costing 0.4 cents in
// 98.2% of cases and 0.5 cents otherwise.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bmg;
  const bench::Args args = bench::Args::parse(argc, argv, /*default_days=*/2.0,
                                              bench::Args::kSingleRun);
  bench::print_header("Fig. 5: light client update cost (relayer)", args);

  relayer::Deployment d(bench::paper_config(args.seed));
  d.open_ibc();

  const double horizon = d.sim().now() + args.days * 86400.0;
  bench::CpSendWorkload workload(d, /*mean_interarrival_s=*/1200.0, horizon);
  d.sim().run_until(horizon + 3600.0);

  const Series& cost = d.relayer().update_costs_usd();
  std::printf("cp->guest packets: %d, light client updates: %zu\n\n", workload.sent(),
              cost.count());
  std::printf("%s\n", render_histogram(cost, 16, "update cost (USD)").c_str());
  std::printf("update cost: mean %.3f USD  min %.3f  max %.3f\n", cost.mean(),
              cost.min(), cost.max());
  std::printf("(~0.1 cents per tx + 0.1 cents per verified signature)\n\n");

  const Series& rtx = d.relayer().recv_tx_counts();
  const Series& rcost = d.relayer().recv_costs_usd();
  if (!rtx.empty()) {
    std::printf("ReceivePacket deliveries: %zu\n", rtx.count());
    std::printf("  transactions per delivery: min %.0f  median %.0f  max %.0f"
                "  (paper: 4-5)\n",
                rtx.min(), rtx.quantile(0.5), rtx.max());
    std::printf("  cost per delivery: median %.4f USD  p99 %.4f USD"
                "  (paper: 0.004 USD in 98.2%% of cases, else 0.005)\n",
                rcost.quantile(0.5), rcost.quantile(0.99));
  }
  return 0;
}
