// Ablation — validator-set size and silent validators (§V-C): block
// finalisation latency is the *maximum* over the signatures needed to
// reach quorum, so silent validators squeeze the margin.  The paper's
// incident — 7 silent validators out of 24, so when validator #1
// stalled the quorum could not form — is reproduced at the end.
//
// Each roster case (and the incident replay) is one shard-pool cell;
// output prints in case order, byte-identical at any --shard-workers.
#include "bench_common.hpp"
#include "grid.hpp"

namespace {

using namespace bmg;

relayer::DeploymentConfig roster_config(std::uint64_t seed, int active, int silent) {
  relayer::DeploymentConfig cfg;
  cfg.seed = seed;
  cfg.guest.delta_seconds = 120.0;  // fast empty blocks for measurement
  cfg.counterparty.num_validators = 24;
  for (int i = 0; i < active + silent; ++i) {
    relayer::ValidatorProfile p;
    p.name = "v" + std::to_string(i);
    p.stake = 1000;
    p.latency = sim::LatencyProfile::from_quantiles(4.0, 6.0, 0.4);
    p.fee = host::FeePolicy::priority(2'000'000);
    p.active = i < active;
    cfg.validators.push_back(std::move(p));
  }
  return cfg;
}

struct Case {
  int active, silent;
};
constexpr Case kCases[] = {{4, 0}, {10, 0}, {17, 0}, {17, 7}, {20, 4}, {24, 0}};

bench::CellOutput run_case(const Case& c, const bench::Args& args) {
  relayer::Deployment d(roster_config(args.seed, c.active, c.silent));
  // Measure NewBlock -> FinalisedBlock directly from events.
  std::map<ibc::Height, double> created;
  Series fin;
  d.host().subscribe(guest::kProgramName, [&](const host::Event& ev) {
    Decoder dec(ev.data);
    if (ev.name == guest::GuestContract::kEvNewBlock) {
      created[dec.u64()] = ev.time;
    } else if (ev.name == guest::GuestContract::kEvFinalisedBlock) {
      const ibc::Height h = dec.u64();
      const auto it = created.find(h);
      if (it != created.end()) fin.add(ev.time - it->second);
    }
  });
  d.start();
  const double horizon = d.sim().now() + args.days * 86400.0;
  d.sim().run_until(horizon);

  std::size_t stalled = 0;
  for (ibc::Height h = 1; h < d.guest().block_count(); ++h)
    if (!d.guest().block_at(h).finalised) ++stalled;
  const int total = c.active + c.silent;
  const int quorum_validators = total * 2 / 3 + 1;
  char buf[192];
  if (fin.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "%8d %8d %7d/%-3d %10s %10s %10s  <- quorum unreachable\n", c.active,
                  c.silent, quorum_validators, total, "-", "-", "-");
  } else {
    std::snprintf(buf, sizeof(buf), "%8d %8d %7d/%-3d %10.1f %10.1f %10.1f%s\n",
                  c.active, c.silent, quorum_validators, total, fin.quantile(0.5),
                  fin.quantile(0.9), fin.max(),
                  stalled > 0 ? "  (stalls observed)" : "");
  }
  return bench::CellOutput{buf, {}};
}

// The paper's incident: 24 validators, 7 silent — quorum needs 17,
// so all 17 active validators are load-bearing; knock one out and
// the chain halts.
bench::CellOutput run_incident(const bench::Args& args) {
  relayer::DeploymentConfig cfg = roster_config(args.seed, 16, 8);
  relayer::Deployment d(std::move(cfg));
  d.start();
  d.sim().run_until(d.sim().now() + 7200.0);
  std::size_t finalised = 0;
  for (ibc::Height h = 1; h < d.guest().block_count(); ++h)
    finalised += d.guest().block_at(h).finalised ? 1 : 0;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\nincident replay (16 active of 24 — validator #1 down):\n"
                "  blocks generated: %zu, finalised: %zu  -> chain %s\n",
                d.guest().block_count() - 1, finalised,
                finalised == 0 ? "HALTED (as in the paper)" : "alive");
  return bench::CellOutput{buf, {}};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bmg;
  const bench::Args args = bench::Args::parse(argc, argv, /*default_days=*/0.5,
                                              bench::Args::kGrid);
  bench::print_header(
      "Ablation: quorum margin — finalisation latency vs roster composition", args);

  std::printf("%8s %8s %10s | finalisation latency (s)\n", "active", "silent",
              "quorum");
  std::printf("%8s %8s %10s %10s %10s %10s\n", "", "", "", "median", "p90", "max");

  // Cells 0..5 are the roster cases; the last cell is the incident.
  const std::size_t n = std::size(kCases) + 1;
  const bench::GridResult g = bench::run_grid(n, [&](std::size_t i) {
    return i < std::size(kCases) ? run_case(kCases[i], args) : run_incident(args);
  });
  bench::print_cells(g);
  bench::write_timing(g, args.timing_csv, "ablation_quorum");
  return 0;
}
