// Multi-seed scenario runner: executes a (seed × Δ) grid of full-stack
// deployment simulations, one complete simulation per shard-pool cell,
// and emits one CSV row per scenario.
//
// Each scenario is an independent deterministic simulation — its own
// Deployment, Rng, chains and agents — so scenarios parallelise
// perfectly across the shard workers (PR 7).  Rows land in slots
// indexed by the scenario's static grid position and print in grid
// order after the join, so the CSV on stdout is byte-identical for any
// worker count (timing goes to stderr / --timing-csv, which are not
// part of the artifact).
//
//   scenario_runner [--seeds N] [--days D] [--shard-workers W]
//                   [--timing-csv PATH] [--adversary NAME]
//                   [--reorg NAME] [--commitment processed|rooted]
//
//   --seeds N          seeds 42..42+N-1 per Δ point (default 4)
//   --days D           simulated days per scenario (default 0.05)
//   --shard-workers W  shard workers (default: BMG_SHARD_WORKERS or
//                      hardware); each cell runs on one worker
//   --timing-csv PATH  per-cell wall/CPU timing rows (see grid.hpp)
//   --adversary NAME   attach the named shipped AdversaryPlan scenario
//                      (adversary/scenarios.hpp) to every cell and
//                      append the per-action counter columns.  Without
//                      the flag no adversary code runs and the CSV is
//                      byte-identical to earlier releases.
//   --reorg NAME       run every cell on a fork-aware host with the
//                      named reorg storm (storm|deep|lossy) active over
//                      the measured span, and append the fork columns.
//   --commitment L     relayer commitment level: processed (default,
//                      optimistic) or rooted (hold every pipeline tx
//                      until its slot roots).  Arms fork-aware mode and
//                      appends the fork columns even without --reorg,
//                      so the rooted-lag latency penalty is measurable
//                      in isolation.  Without both flags the host stays
//                      linear and the CSV is byte-identical to earlier
//                      releases.
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "adversary/campaign.hpp"
#include "adversary/scenarios.hpp"
#include "audit/auditor.hpp"
#include "bench_common.hpp"
#include "common/stats.hpp"
#include "grid.hpp"

namespace {

using namespace bmg;

struct Scenario {
  std::uint64_t seed = 0;
  double delta_seconds = 0;
};

/// Shipped reorg storms for --reorg (mirrors the --adversary pattern).
/// Depths stay below the default rooted lag (32 slots) so every storm
/// is resolvable.
struct ReorgSpec {
  const char* name;
  std::uint64_t max_depth;  ///< per-reorg depth drawn uniformly in [1, max]
  double probability;       ///< per-slot trigger probability
  double survival;          ///< per-tx survival onto the winning fork
};
constexpr ReorgSpec kReorgScenarios[] = {
    {"storm", 4, 0.08, 1.0},   // frequent shallow forks, no tx loss
    {"deep", 12, 0.01, 1.0},   // rare deep reorgs, no tx loss
    {"lossy", 4, 0.05, 0.85},  // shallow forks dropping ~15% of retracted txs
};

const ReorgSpec* find_reorg(const char* name) {
  for (const ReorgSpec& r : kReorgScenarios)
    if (std::strcmp(r.name, name) == 0) return &r;
  return nullptr;
}

bench::CellOutput run_scenario(std::size_t cell, const Scenario& sc, double days,
                               const char* adversary, const ReorgSpec* reorg,
                               bool rooted_commitment) {
  relayer::DeploymentConfig cfg = bench::paper_config(sc.seed);
  cfg.guest.delta_seconds = sc.delta_seconds;
  const bool fork_overlay = reorg != nullptr || rooted_commitment;
  if (fork_overlay) cfg.host.fork_aware = true;
  if (rooted_commitment)
    cfg.relayer.pipeline.commitment = host::Commitment::kRooted;
  relayer::Deployment d(cfg);
  // The auditor re-checks conservation / sequence / commit-root /
  // client-height invariants after every block.  It runs inline inside
  // existing event handlers, so the CSV (including the state root) is
  // byte-identical with or without it; violations go to stderr and
  // flip the exit code.
  audit::InvariantAuditor auditor(d.sim(), d.host(), d.guest(), d.cp());
  auditor.start();
  d.open_ibc();
  auditor.watch_client(d.guest_client_on_cp());
  auditor.watch_transfer_lane(
      audit::TransferLane{d.guest_channel(), d.cp_channel(), "SOL", "PICA"});

  // Opt-in adversary overlay: the Campaign attaches the named shipped
  // attack across the whole measured span.  Constructed only when the
  // flag is present — the no-flag artifact must not change by a byte.
  std::optional<adversary::Campaign> campaign;
  if (adversary != nullptr) {
    const double t0 = d.sim().now();
    const auto table =
        adversary::campaign_scenarios(t0 + 30.0, t0 + days * 86400.0);
    const adversary::ScenarioSpec* spec = adversary::find_scenario(table, adversary);
    if (spec->crash_fisherman)
      d.host().fault_plan().crash(t0 + 150.0, t0 + 450.0, "fisherman");
    campaign.emplace(d, spec->plan);
    campaign->start();
  }

  const double until = d.sim().now() + days * 86400.0;
  // Reorg windows cover the measured span, skipping the settling
  // period right after the handshake (mirrors the adversary overlay).
  if (reorg != nullptr)
    d.host().fault_plan().reorg(d.sim().now() + 30.0, until, reorg->max_depth,
                                reorg->probability, reorg->survival);
  bench::GuestSendWorkload guest_load(d, 120.0, until);
  bench::CpSendWorkload cp_load(d, 300.0, until);
  d.run_for(days * 86400.0 + 2.0 * cfg.guest.delta_seconds);
  auditor.check_now("final");

  Series latency;
  Series rooted_latency;
  int finalised = 0;
  for (const auto& r : guest_load.records()) {
    if (!r->executed || !r->finalised) continue;
    ++finalised;
    latency.add(r->finalised_at - r->executed_at);
    if (r->rooted) rooted_latency.add(r->rooted_at - r->executed_at);
  }

  char buf[512];
  std::snprintf(buf, sizeof(buf), "%zu,%llu,%.0f,%zu,%zu,%d,%d,%.3f,%s", cell,
                static_cast<unsigned long long>(sc.seed), sc.delta_seconds,
                d.guest().block_count(), guest_load.records().size(), finalised,
                cp_load.sent(), latency.count() > 0 ? latency.mean() : 0.0,
                d.guest().store().root_hash().hex().c_str());
  std::string row = buf;
  if (campaign.has_value()) {
    row += ",";
    row += campaign->counters().csv_row();
    row += ",";
    row += std::to_string(campaign->offenders_banned());
  }
  if (fork_overlay) {
    const host::FaultCounters& fc = d.host().fault_counters();
    std::snprintf(buf, sizeof(buf), ",%.3f,%llu,%llu,%llu,%llu,%llu",
                  rooted_latency.count() > 0 ? rooted_latency.mean() : 0.0,
                  static_cast<unsigned long long>(fc.reorgs_triggered),
                  static_cast<unsigned long long>(fc.slots_rolled_back),
                  static_cast<unsigned long long>(fc.txs_replayed),
                  static_cast<unsigned long long>(fc.txs_reorged_out),
                  static_cast<unsigned long long>(
                      d.relayer().pipeline().reorged_out_total()));
    row += buf;
  }
  row += "\n";
  return bench::CellOutput{
      row, auditor.verdict("seed " + std::to_string(sc.seed) + " delta " +
                           std::to_string(static_cast<long>(sc.delta_seconds)))};
}

}  // namespace

int main(int argc, char** argv) {
  int seeds = 4;
  double days = 0.05;
  const char* timing_csv = nullptr;
  const char* adversary = nullptr;
  const char* reorg_name = nullptr;
  bool rooted_commitment = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      seeds = static_cast<int>(
          bench::parse_positive_long("scenario_runner", "--seeds", argv[++i]));
    } else if (std::strcmp(argv[i], "--days") == 0 && i + 1 < argc) {
      days = bench::parse_positive_double("scenario_runner", "--days", argv[++i]);
    } else if (std::strcmp(argv[i], "--shard-workers") == 0 && i + 1 < argc) {
      shard::set_worker_count(static_cast<std::size_t>(
          bench::parse_positive_long("scenario_runner", "--shard-workers", argv[++i])));
    } else if (std::strcmp(argv[i], "--timing-csv") == 0 && i + 1 < argc) {
      timing_csv = argv[++i];
    } else if (std::strcmp(argv[i], "--adversary") == 0 && i + 1 < argc) {
      adversary = argv[++i];
    } else if (std::strcmp(argv[i], "--reorg") == 0 && i + 1 < argc) {
      reorg_name = argv[++i];
    } else if (std::strcmp(argv[i], "--commitment") == 0 && i + 1 < argc) {
      const char* level = argv[++i];
      if (std::strcmp(level, "rooted") == 0) {
        rooted_commitment = true;
      } else if (std::strcmp(level, "processed") != 0) {
        std::fprintf(stderr,
                     "scenario_runner: --commitment expects processed|rooted, "
                     "got '%s'\n",
                     level);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "scenario_runner: unknown or incomplete option '%s'\n"
                   "usage: scenario_runner [--seeds N] [--days D] [--shard-workers W] "
                   "[--timing-csv PATH] [--adversary NAME] "
                   "[--reorg NAME] [--commitment processed|rooted]\n",
                   argv[i]);
      return 2;
    }
  }
  const ReorgSpec* reorg = nullptr;
  if (reorg_name != nullptr) {
    reorg = find_reorg(reorg_name);
    if (reorg == nullptr) {
      std::fprintf(stderr, "scenario_runner: unknown reorg scenario '%s'\n",
                   reorg_name);
      return 2;
    }
  }
  if (adversary != nullptr) {
    // Validate the name once up front (window times are placeholders;
    // only the name is checked here).
    const auto table = bmg::adversary::campaign_scenarios(0.0, 1.0);
    if (bmg::adversary::find_scenario(table, adversary) == nullptr) {
      std::fprintf(stderr, "scenario_runner: unknown adversary scenario '%s'\n",
                   adversary);
      return 2;
    }
  }

  // Static grid: Δ points × seeds, in a fixed order that does not
  // depend on scheduling.
  const double deltas[] = {600.0, 3600.0};
  std::vector<Scenario> grid;
  for (const double delta : deltas)
    for (int s = 0; s < seeds; ++s)
      grid.push_back(Scenario{42 + static_cast<std::uint64_t>(s), delta});

  std::fprintf(stderr,
               "scenario_runner: %zu scenarios, %.3f days each, %zu shard workers\n",
               grid.size(), days, shard::worker_count());

  const bench::GridResult g = bench::run_grid(grid.size(), [&](std::size_t i) {
    return run_scenario(i, grid[i], days, adversary, reorg, rooted_commitment);
  });

  std::string header =
      "cell,seed,delta_s,blocks,sends,finalised,cp_sends,mean_latency_s,state_root";
  if (adversary != nullptr) {
    header += ",";
    header += bmg::adversary::AdversaryCounters::csv_header();
    header += ",banned";
  }
  if (reorg != nullptr || rooted_commitment)
    header +=
        ",mean_rooted_latency_s,reorgs,slots_rolled_back,txs_replayed,"
        "txs_reorged_out,pipeline_reorged_out";
  std::printf("%s\n", header.c_str());
  bench::print_cells(g);

  std::fprintf(stderr, "scenario_runner: wall=%.3fs\n", g.wall_s);
  bench::write_timing(g, timing_csv, "scenario_runner");

  // Invariant violations are not part of the CSV artifact: report on
  // stderr and fail the run.
  if (!g.verdict.clean())
    std::fprintf(stderr, "scenario_runner: AUDIT %s\n", g.verdict.report.c_str());
  return g.verdict.clean() ? 0 : 1;
}
