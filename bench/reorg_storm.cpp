// Reorg-storm scoreboard: the optimistic-vs-rooted commitment tradeoff
// under host forks.
//
// Runs a (seed × mode) grid of full-stack deployments.  Modes:
//
//   baseline    linear host (no fork machinery) — the control row;
//   optimistic  fork-aware host under a reorg storm, agents consume at
//               processed commitment (inclusion is trusted instantly,
//               reorged-out work is repaired after the fact);
//   rooted      same storm, pipeline holds every transaction until its
//               slot roots before advancing.
//
// Per row: client send latency to finalisation and to rooting, sends
// lost to retracted forks, fee spend, and the host's reorg counters —
// the safety/latency tradeoff curve of ISSUE 10.  Each cell is one
// deterministic simulation; rows print in grid order, so stdout is
// byte-identical at every --shard-workers count.  The invariant
// auditor runs in every cell and a violation fails the binary.
//
//   reorg_storm [--grid-seeds N] [--days D] [--seed S] [--shard-workers W]
//               [--timing-csv PATH]
//
// --grid-seeds N runs seeds S..S+N-1 (default 2 seeds from --seed 42).
#include <cstdio>
#include <string>

#include "audit/auditor.hpp"
#include "bench_common.hpp"
#include "common/stats.hpp"
#include "grid.hpp"

namespace {

using namespace bmg;

enum class Mode { kBaseline = 0, kOptimistic, kRooted };
constexpr const char* kModeNames[] = {"baseline", "optimistic", "rooted"};

// The storm every non-baseline cell runs under: shallow frequent forks
// with 10% of retracted transactions dying on the winning fork.
constexpr std::uint64_t kStormDepth = 4;
constexpr double kStormProbability = 0.08;
constexpr double kStormSurvival = 0.90;

struct Cell {
  std::uint64_t seed = 0;
  Mode mode = Mode::kBaseline;
};

bench::CellOutput run_cell(std::size_t index, const Cell& c, double days) {
  relayer::DeploymentConfig cfg = bench::paper_config(c.seed);
  cfg.guest.delta_seconds = 600.0;
  if (c.mode != Mode::kBaseline) cfg.host.fork_aware = true;
  if (c.mode == Mode::kRooted)
    cfg.relayer.pipeline.commitment = host::Commitment::kRooted;
  relayer::Deployment d(cfg);
  audit::InvariantAuditor auditor(d.sim(), d.host(), d.guest(), d.cp());
  auditor.start();
  d.open_ibc();
  auditor.watch_client(d.guest_client_on_cp());
  auditor.watch_transfer_lane(
      audit::TransferLane{d.guest_channel(), d.cp_channel(), "SOL", "PICA"});

  const double until = d.sim().now() + days * 86400.0;
  if (c.mode != Mode::kBaseline)
    d.host().fault_plan().reorg(d.sim().now() + 30.0, until, kStormDepth,
                                kStormProbability, kStormSurvival);

  bench::GuestSendWorkload load(d, 120.0, until);
  d.run_for(days * 86400.0 + 2.0 * cfg.guest.delta_seconds);
  auditor.check_now("final");

  Series fin_latency, rooted_latency, fees;
  int executed = 0, finalised = 0, rooted = 0, lost = 0;
  for (const auto& r : load.records()) {
    if (r->failed) {
      ++lost;
      continue;
    }
    if (!r->executed) continue;
    ++executed;
    fees.add(r->fee_usd);
    if (r->finalised) {
      ++finalised;
      fin_latency.add(r->finalised_at - r->executed_at);
    }
    if (r->rooted) {
      ++rooted;
      rooted_latency.add(r->rooted_at - r->executed_at);
    }
  }

  const host::FaultCounters& fc = d.host().fault_counters();
  const relayer::TxPipeline& pipe = d.relayer().pipeline();
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "%zu,%llu,%s,%zu,%zu,%d,%d,%d,%d,%.3f,%.3f,%.4f,%llu,%llu,%llu,%llu,%llu,"
      "%llu,%s\n",
      index, static_cast<unsigned long long>(c.seed),
      kModeNames[static_cast<int>(c.mode)], d.guest().block_count(),
      load.records().size(), executed, finalised, rooted, lost,
      fin_latency.count() > 0 ? fin_latency.mean() : 0.0,
      rooted_latency.count() > 0 ? rooted_latency.mean() : 0.0,
      fees.count() > 0 ? fees.mean() : 0.0,
      static_cast<unsigned long long>(fc.reorgs_triggered),
      static_cast<unsigned long long>(fc.slots_rolled_back),
      static_cast<unsigned long long>(fc.txs_replayed),
      static_cast<unsigned long long>(fc.txs_reorged_out),
      static_cast<unsigned long long>(pipe.reorged_out_total()),
      static_cast<unsigned long long>(pipe.reorg_repairs()),
      d.guest().store().root_hash().hex().c_str());
  return bench::CellOutput{
      buf, auditor.verdict("seed " + std::to_string(c.seed) + " mode " +
                           kModeNames[static_cast<int>(c.mode)])};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args = bench::Args::parse(argc, argv, /*default_days=*/0.02);
  long seeds = args.grid_seeds > 0 ? args.grid_seeds : 2;

  std::vector<Cell> grid;
  for (long s = 0; s < seeds; ++s)
    for (const Mode mode : {Mode::kBaseline, Mode::kOptimistic, Mode::kRooted})
      grid.push_back(Cell{args.seed + static_cast<std::uint64_t>(s), mode});

  std::fprintf(stderr, "reorg_storm: %zu cells, %.3f days each, %zu shard workers\n",
               grid.size(), args.days, shard::worker_count());

  const bench::GridResult g = bench::run_grid(grid.size(), [&](std::size_t i) {
    return run_cell(i, grid[i], args.days);
  });

  std::printf(
      "cell,seed,mode,blocks,sends,executed,finalised,rooted,lost,"
      "mean_finalised_latency_s,mean_rooted_latency_s,mean_fee_usd,reorgs,"
      "slots_rolled_back,txs_replayed,txs_reorged_out,pipeline_reorged_out,"
      "reorg_repairs,state_root\n");
  bench::print_cells(g);

  std::fprintf(stderr, "reorg_storm: wall=%.3fs\n", g.wall_s);
  bench::write_timing(g, args.timing_csv, "reorg_storm");

  if (!g.verdict.clean())
    std::fprintf(stderr, "reorg_storm: AUDIT %s\n", g.verdict.report.c_str());
  return g.verdict.clean() ? 0 : 1;
}
