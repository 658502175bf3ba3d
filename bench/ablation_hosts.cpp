// Ablation — the same Guest Contract on differently-constrained hosts
// (paper §VI-D: "the guest blockchain has been designed with minimal
// assumptions in order to make it broadly applicable").
//
// Three host profiles:
//   solana-like : 0.4 s slots, 1232-byte txs, 1.4M CU  (the paper's)
//   tron-like   : 3 s blocks, 64 KiB txs, large energy budget
//   near-like   : 1 s blocks, 4 MiB txs (receipts), large gas budget
//
// The guest layer is identical in all three; only the transaction
// splitting and pacing adapt.  Light client updates collapse from ~36
// transactions to 1 when the host admits bigger transactions — but
// block cadence then dominates latency.
//
// Each host profile is one shard-pool cell; rows print in profile
// order, byte-identical at any --shard-workers.
#include "bench_common.hpp"
#include "grid.hpp"

namespace {

using namespace bmg;

struct HostProfile {
  const char* name;
  host::ChainConfig chain;
  int sigs_per_update_tx;
};

bench::CellOutput run_profile(const HostProfile& hp, const bench::Args& args) {
  relayer::DeploymentConfig cfg = bench::paper_config(args.seed);
  cfg.host = hp.chain;
  cfg.relayer.sigs_per_update_tx = hp.sigs_per_update_tx;
  relayer::Deployment d(std::move(cfg));
  d.open_ibc();

  const double horizon = d.sim().now() + args.days * 86400.0;
  bench::CpSendWorkload cp_traffic(d, /*mean_interarrival_s=*/1800.0, horizon);
  bench::GuestSendWorkload guest_traffic(d, /*mean_interarrival_s=*/1800.0, horizon);
  d.sim().run_until(horizon + 3600.0);
  (void)cp_traffic;

  Series send_latency;
  for (const auto& r : guest_traffic.records())
    if (r->executed && r->finalised) send_latency.add(r->finalised_at - r->executed_at);

  const Series& txs = d.relayer().update_tx_counts();
  const Series& dur = d.relayer().update_durations();
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%-14s %12.1f %14zu %14.1f %16.1f %16.1f\n", hp.name,
                hp.chain.slot_seconds, hp.chain.max_tx_size,
                txs.empty() ? 0.0 : txs.mean(), dur.empty() ? 0.0 : dur.quantile(0.5),
                send_latency.empty() ? 0.0 : send_latency.quantile(0.5));
  return bench::CellOutput{buf, {}};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bmg;
  const bench::Args args = bench::Args::parse(argc, argv, /*default_days=*/0.3,
                                              bench::Args::kGrid);
  bench::print_header("Ablation: guest blockchain across host profiles (§VI-D)", args);

  host::ChainConfig solana;  // defaults

  host::ChainConfig tron;
  tron.slot_seconds = 3.0;
  tron.max_tx_size = 64 * 1024;
  tron.max_compute_units = 40'000'000;  // "energy"
  tron.block_compute_units = 400'000'000;

  host::ChainConfig near;
  near.slot_seconds = 1.0;
  near.max_tx_size = 4 * 1024 * 1024;
  near.max_compute_units = 300'000'000;  // gas per receipt
  near.block_compute_units = 1'000'000'000;

  const HostProfile profiles[] = {
      {"solana-like", solana, 4},
      {"tron-like", tron, 420},   // whole commit fits one tx
      {"near-like", near, 420},
  };

  std::printf("%-14s %12s %14s %14s %16s %16s\n", "host", "slot (s)", "tx limit (B)",
              "txs/update", "update p50 (s)", "send p50 (s)");

  const bench::GridResult g = bench::run_grid(
      std::size(profiles), [&](std::size_t i) { return run_profile(profiles[i], args); });
  bench::print_cells(g);
  bench::write_timing(g, args.timing_csv, "ablation_hosts");

  std::printf("\nthe guest layer is byte-identical across rows; hosts with roomier\n"
              "transactions collapse the ~36-tx light client update to the 4-tx\n"
              "protocol floor (upload, begin, verify, finish), while slower block\n"
              "cadence shifts latency from tx-count-bound to block-time-bound —\n"
              "the trade-off §VI-D anticipates for TRON and NEAR.\n");
  return 0;
}
