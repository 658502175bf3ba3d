// A miniature of the paper's month-long deployment: run the full
// stack for several simulated hours with Poisson traffic in both
// directions and print a live status line per simulated half hour,
// ending with a cost/latency summary in the style of §V.
//
//   $ ./examples/relayer_daemon            (6 simulated hours)
//   $ ./examples/relayer_daemon 24         (24 simulated hours)
#include <cstdio>

#include "parse.hpp"
#include "relayer/deployment.hpp"

using namespace bmg;

int main(int argc, char** argv) {
  const double hours =
      argc > 1 ? bench::parse_positive_double("relayer_daemon", "hours", argv[1]) : 6.0;
  std::printf("== relayer daemon: %.0f simulated hours of cross-chain traffic ==\n\n",
              hours);

  relayer::DeploymentConfig cfg;
  cfg.seed = 99;
  cfg.guest.delta_seconds = 1800.0;
  cfg.validators = relayer::paper_validators();
  cfg.counterparty.num_validators = 60;
  relayer::Deployment d(std::move(cfg));
  d.open_ibc();

  // Poisson traffic both ways.
  Rng traffic = d.rng().fork();
  std::function<void()> guest_send = [&] {
    (void)d.send_transfer_from_guest(
        50, host::FeePolicy::bundle(host::usd_to_lamports(3.019)));
    d.sim().after(traffic.exponential(900.0), guest_send);
  };
  std::function<void()> cp_send = [&] {
    (void)d.send_transfer_from_cp(20);
    d.sim().after(traffic.exponential(1500.0), cp_send);
  };
  d.sim().after(traffic.exponential(900.0), guest_send);
  d.sim().after(traffic.exponential(1500.0), cp_send);

  const double start = d.sim().now();
  std::printf("%8s %8s %10s %10s %10s %12s %14s\n", "time", "blocks", "pkts->cp",
              "pkts->gst", "lc-upds", "relayer $", "trie nodes");
  for (double t = 1800.0; t <= hours * 3600.0; t += 1800.0) {
    d.sim().run_until(start + t);
    const auto& st = d.host().payer_stats(d.relayer().payer());
    std::printf("%7.1fh %8zu %10llu %10llu %10zu %11.2f$ %14zu\n", t / 3600.0,
                d.guest().block_count(),
                (unsigned long long)d.relayer().packets_relayed_to_cp(),
                (unsigned long long)d.relayer().packets_relayed_to_guest(),
                d.relayer().update_tx_counts().count(),
                host::lamports_to_usd(st.fees_lamports),
                d.guest().store().stats().node_count());
  }

  std::printf("\n== summary (cf. paper §V) ==\n");
  const Series& upd_txs = d.relayer().update_tx_counts();
  const Series& upd_dur = d.relayer().update_durations();
  const Series& upd_cost = d.relayer().update_costs_usd();
  if (!upd_txs.empty()) {
    std::printf("light client updates: %zu   txs/update %.1f±%.1f   median %.0f s"
                "   median %.3f $\n",
                upd_txs.count(), upd_txs.mean(), upd_txs.stddev(),
                upd_dur.quantile(0.5), upd_cost.quantile(0.5));
  }
  const Series& rtx = d.relayer().recv_tx_counts();
  const Series& rcost = d.relayer().recv_costs_usd();
  if (!rtx.empty()) {
    std::printf("packet deliveries   : %zu   txs/delivery %.1f   median %.4f $\n",
                rtx.count(), rtx.mean(), rcost.quantile(0.5));
  }
  std::uint64_t total_sigs = 0;
  for (const auto& v : d.validators()) total_sigs += v->signatures_submitted();
  std::printf("validator signatures: %llu across %zu validators\n",
              (unsigned long long)total_sigs, d.validators().size());
  std::printf("guest account usage : %zu bytes of the 10 MiB cap\n",
              d.guest().account_bytes());
  std::printf("failed tx sequences : %llu\n",
              (unsigned long long)d.relayer().failed_sequences());
  return 0;
}
