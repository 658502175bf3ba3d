// Ablation — fee policy comparison (§VI-B): the deployed system used
// fixed fee models (priority fees or Jito bundles); the paper notes
// this is inflexible — cheap during low congestion, yet unable to
// prevent tail latency during high congestion.  We sweep congestion
// levels and compare base / priority / bundle inclusion latency and
// cost, plus a simple dynamic policy (escalate fee after a timeout).
//
// Each (congestion, policy) pair is one shard-pool cell; rows print in
// sweep order (congestion-major), byte-identical at any
// --shard-workers.
#include "bench_common.hpp"
#include "grid.hpp"

namespace {

using namespace bmg;

/// Trivial program so the transactions execute.
class NoopProgram final : public host::Program {
 public:
  void execute(host::TxContext& ctx, ByteView) override { ctx.consume_cu(61'000); }
};

struct Outcome {
  Series latency;
  Series cost;
  int dropped = 0;
};

Outcome run_policy(double p_base, int policy, std::uint64_t seed) {
  sim::Simulation sim;
  host::ChainConfig cfg;
  cfg.p_include_base = p_base;
  host::Chain chain(sim, Rng(seed), cfg);
  chain.register_program("noop", std::make_unique<NoopProgram>());
  const auto payer = crypto::PrivateKey::from_label("fee-payer").public_key();
  chain.airdrop(payer, 100'000 * host::kLamportsPerSol);
  chain.start();

  Outcome out;
  Rng rng(seed ^ 0x99);
  for (int i = 0; i < 400; ++i) {
    const double submit_time = sim.now();
    host::Transaction tx;
    tx.payer = payer;
    tx.instructions.push_back(host::Instruction{"noop", {}});
    switch (policy) {
      case 0:
        tx.fee = host::FeePolicy::base();
        break;
      case 1:
        tx.fee = relayer::priority_fee_for_usd(1.40, 61'000);
        break;
      case 2:
        tx.fee = host::FeePolicy::bundle(host::usd_to_lamports(3.019));
        break;
      case 3:
        // dynamic: start base; escalation handled below on drop
        tx.fee = host::FeePolicy::base();
        break;
    }
    bool resolved = false;
    chain.submit(std::move(tx), [&, submit_time](const host::TxResult& res) {
      resolved = true;
      if (!res.executed) {
        if (policy == 3) {
          // Escalate: resubmit with a priority fee.
          host::Transaction retry;
          retry.payer = payer;
          retry.instructions.push_back(host::Instruction{"noop", {}});
          retry.fee = relayer::priority_fee_for_usd(1.40, 61'000);
          chain.submit(std::move(retry), [&, submit_time](const host::TxResult& r2) {
            if (r2.executed) {
              out.latency.add(r2.time - submit_time);
              out.cost.add(r2.fee.usd() + host::lamports_to_usd(
                                              host::kLamportsPerSignature));
            } else {
              ++out.dropped;
            }
          });
        } else {
          ++out.dropped;
        }
        return;
      }
      out.latency.add(res.time - submit_time);
      out.cost.add(res.fee.usd());
    });
    sim.run_until(sim.now() + rng.exponential(5.0));
    (void)resolved;
  }
  sim.run_until(sim.now() + 600.0);
  return out;
}

const char* kNames[] = {"base", "priority(1.40$)", "bundle(3.02$)", "dynamic"};
const double kCongestion[] = {0.8, 0.4, 0.1, 0.02};

bench::CellOutput run_cell(std::size_t cell, std::uint64_t seed) {
  const double p_base = kCongestion[cell / 4];
  const int policy = static_cast<int>(cell % 4);
  const Outcome out = run_policy(p_base, policy, seed);
  char buf[192];
  if (out.latency.empty()) {
    std::snprintf(buf, sizeof(buf), "p_base=%.2f  %-18s %10s %10s %10s %8d %10s\n",
                  p_base, kNames[policy], "-", "-", "-", out.dropped, "-");
  } else {
    std::snprintf(buf, sizeof(buf),
                  "p_base=%.2f  %-18s %9.1fs %9.1fs %9.1fs %8d %9.3f$\n", p_base,
                  kNames[policy], out.latency.quantile(0.5),
                  out.latency.quantile(0.95), out.latency.max(), out.dropped,
                  out.cost.mean());
  }
  std::string row = buf;
  if (policy == 3) row += "\n";  // blank line closes each congestion group
  return bench::CellOutput{std::move(row), {}};
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::parse(
      argc, argv, 0.0,
      bench::Args::kSeed | bench::Args::kShardWorkers | bench::Args::kTimingCsv);
  bench::print_header("Ablation: fee policies across congestion levels (§VI-B)", args);

  std::printf("%-12s %-18s %10s %10s %10s %8s %10s\n", "congestion", "policy",
              "lat p50", "lat p95", "lat max", "dropped", "mean cost");
  const std::size_t n = std::size(kCongestion) * 4;
  const bench::GridResult g =
      bench::run_grid(n, [&](std::size_t i) { return run_cell(i, args.seed); });
  bench::print_cells(g);
  bench::write_timing(g, args.timing_csv, "ablation_fees");

  std::printf("fixed policies overpay at low congestion and still drop txs at high\n"
              "congestion; escalation recovers drops for ~priority cost only when\n"
              "needed — the future-work direction of §VI-B.\n");
  return 0;
}
