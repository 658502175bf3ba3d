// Fig. 4 — Latency of light client updates sent by the relayer to the
// guest (time between execution of the first and last host
// transaction comprising the update).
//
// Paper result: updates averaged 36.5 host transactions (σ = 5.8);
// 50% of updates took < 25 s and 96% < 60 s.  The update size is
// driven by the counterparty's commit: ~100+ signatures that must be
// pre-compile-verified a few at a time within the 1232-byte and
// 1.4M-CU transaction limits.
#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace bmg;
  const bench::Args args = bench::Args::parse(argc, argv, /*default_days=*/2.0,
                                              bench::Args::kSingleRun);
  bench::print_header("Fig. 4: light client update latency (relayer -> guest)", args);

  relayer::Deployment d(bench::paper_config(args.seed));
  d.open_ibc();

  const double horizon = d.sim().now() + args.days * 86400.0;
  // Counterparty->guest traffic forces regular light client updates.
  bench::CpSendWorkload workload(d, /*mean_interarrival_s=*/1200.0, horizon);
  d.sim().run_until(horizon + 3600.0);

  const Series& txs = d.relayer().update_tx_counts();
  const Series& dur = d.relayer().update_durations();

  std::printf("cp->guest packets sent: %d, light client updates: %zu\n\n",
              workload.sent(), dur.count());
  std::printf("transactions per update: mean %.1f  stddev %.1f  (paper: 36.5, 5.8)\n\n",
              txs.mean(), txs.stddev());
  std::printf("%s\n", render_cdf(dur, 20, "update latency (s)").c_str());
  std::printf("shares:  <25 s: %4.1f%%   <60 s: %4.1f%%   (paper: 50%% and 96%%)\n",
              100.0 * dur.cdf_at(25.0), 100.0 * dur.cdf_at(60.0));
  return 0;
}
