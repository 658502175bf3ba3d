// Ablation — the transaction-capacity constraint (§IV): how the number
// of Ed25519 pre-compile verifications that fit in one host
// transaction drives light-client-update size, latency and cost.
//
// The deployed system fits ~4 Tendermint vote verifications in a
// 1232-byte transaction, hence ~36 transactions per update.  A host
// with larger transactions (or signature aggregation) would compress
// the update dramatically — quantified here by sweeping
// sigs_per_update_tx.
//
// Each sweep point is one shard-pool cell; rows print in sweep order
// (a skipped point contributes an empty slice), byte-identical at any
// --shard-workers.
#include "bench_common.hpp"
#include "grid.hpp"

namespace {

using namespace bmg;

// The 1232-byte limit itself caps what fits: each pre-compile entry
// is ~144 bytes, so at most 7 verifications share one transaction.
constexpr int kSigsPerTx[] = {1, 2, 4, 7};

bench::CellOutput run_point(int sigs_per_tx, const bench::Args& args) {
  relayer::DeploymentConfig cfg = bench::paper_config(args.seed);
  cfg.relayer.sigs_per_update_tx = sigs_per_tx;
  relayer::Deployment d(std::move(cfg));
  d.open_ibc();

  const double horizon = d.sim().now() + args.days * 86400.0;
  bench::CpSendWorkload workload(d, /*mean_interarrival_s=*/1200.0, horizon);
  d.sim().run_until(horizon + 3600.0);
  (void)workload;

  const Series& txs = d.relayer().update_tx_counts();
  const Series& dur = d.relayer().update_durations();
  const Series& cost = d.relayer().update_costs_usd();
  if (txs.empty()) return bench::CellOutput{{}, {}};
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%14d %14.1f %16.1f %16.1f %14.3f\n", sigs_per_tx,
                txs.mean(), dur.quantile(0.5), dur.quantile(0.95), cost.mean());
  return bench::CellOutput{buf, {}};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bmg;
  const bench::Args args = bench::Args::parse(argc, argv, /*default_days=*/0.5,
                                              bench::Args::kGrid);
  bench::print_header(
      "Ablation: pre-compile capacity per tx vs light client update shape", args);

  std::printf("%14s %14s %16s %16s %14s\n", "sigs per tx", "txs/update",
              "update p50 (s)", "update p95 (s)", "cost (USD)");

  const bench::GridResult g = bench::run_grid(
      std::size(kSigsPerTx), [&](std::size_t i) { return run_point(kSigsPerTx[i], args); });
  bench::print_cells(g);
  bench::write_timing(g, args.timing_csv, "ablation_txsize");

  std::printf("\nper-signature fees dominate cost (constant across rows); latency\n"
              "scales with transaction count.  7 verifications per tx is the\n"
              "ceiling the 1232-byte limit allows for 144-byte entries; the\n"
              "deployed system's larger Tendermint vote payloads cap it at ~4.\n"
              "Signature aggregation or larger host transactions would compress\n"
              "updates from ~36 txs to a handful.\n");
  return 0;
}
