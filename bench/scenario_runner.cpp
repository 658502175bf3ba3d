// Scoreboard runner: the paper's deployment (§IV–§V) under a fault or
// attack overlay, as a static grid of cells on the shard pool, one CSV
// row per cell.  Each cell is an independent deterministic simulation
// built by bench::AuditedDeployment; rows print in grid order after the
// join, so stdout is byte-identical at any worker count (timing goes to
// stderr / --timing-csv).  An invariant violation, or a liveness miss
// under adversary-campaign, goes to stderr and exits 1.
//
//   scenario_runner [--preset delta|reorg-storm|adversary-campaign]
//                   [--seeds N] [--days D] [--shard-workers W]
//                   [--timing-csv PATH] [--adversary NAME]
//                   [--reorg NAME] [--commitment processed|rooted]
//
// --preset picks the cell list and the CSV header:
//   delta               (default) Δ ∈ {600, 3600} s × seeds, Poisson sends
//                       every 120 s (guest) and 300 s (cp) for --days
//                       (0.05).  --adversary attaches a shipped campaign
//                       scenario and appends its counter columns; --reorg
//                       (a shipped storm) and --commitment rooted arm the
//                       fork-aware host and append the fork columns.
//                       Without them no overlay code runs.  Every shipped
//                       scenario is a named host::FaultPlan
//                       (adversary/scenarios.hpp) whose windows open
//                       30 s after the handshake.
//   reorg-storm         seeds × {baseline, optimistic, rooted} at Δ = 600 s,
//                       guest sends every 120 s for --days (0.02): the
//                       linear control, then storm90 at processed and at
//                       rooted commitment.
//   adversary-campaign  shipped scenarios (or only --adversary) × seeds at
//                       Δ = 300 s over fixed phases: settle, attack with
//                       cp->guest sends into it, drain; scores liveness
//                       (every send received and acked) and slashing.
// --seeds N runs seeds 42..42+N-1 (default 4 for delta, else 2; at most
// bench::kMaxSeeds).  A flag that does not apply to the preset exits 2.
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adversary/campaign.hpp"
#include "adversary/scenarios.hpp"
#include "bench_common.hpp"
#include "common/stats.hpp"
#include "grid.hpp"

namespace {

using namespace bmg;

enum class Preset { kDelta, kReorgStorm, kAdversaryCampaign };
constexpr const char* kPresetNames[] = {"delta", "reorg-storm", "adversary-campaign"};

// Overlay windows open kSettleS after the handshake.  adversary-campaign
// then attacks for kAttackS and drains for kDrainS: long enough for
// withheld acks (<= 240 s windows), pipeline retries and prosecutions
// to land.
constexpr double kSettleS = 30.0;
constexpr double kAttackS = 1200.0;
constexpr double kDrainS = 1800.0;
constexpr double kSendEveryS = 90.0;  // adversary-campaign cp->guest cadence

struct Cell {
  std::uint64_t seed = 0;
  double delta_s = 0;     ///< guest Δ
  std::string adversary;  ///< campaign scenario attached ("" = none)
  std::string reorg;      ///< storm over the measured span ("" = none)
  bool rooted = false;    ///< relayer pipeline at rooted commitment
};

/// Attaches the named campaign scenario with its attack over [start, end).
void attach_adversary(relayer::Deployment& d, const std::string& name, double start,
                      double end, std::optional<adversary::Campaign>& campaign) {
  const auto table = adversary::campaign_scenarios(start, end);
  campaign.emplace(d, adversary::find_scenario(table, name)->plan);
  campaign->start();
}

/// delta and reorg-storm: Poisson traffic for `days` under the cell's
/// overlays, then a two-block drain.
std::string run_span(bench::AuditedDeployment& a, Preset preset, std::size_t index,
                     const Cell& c, double days) {
  relayer::Deployment& d = a.deployment;
  const double t0 = d.sim().now();
  const double until = t0 + days * 86400.0;
  std::optional<adversary::Campaign> campaign;
  if (!c.adversary.empty())
    attach_adversary(d, c.adversary, t0 + kSettleS, until, campaign);
  if (!c.reorg.empty()) {
    const auto storms = adversary::reorg_scenarios(t0 + kSettleS, until);
    d.host().fault_plan().append(adversary::find_scenario(storms, c.reorg)->plan);
  }
  bench::GuestSendWorkload guest_load(d, 120.0, until);
  std::optional<bench::CpSendWorkload> cp_load;
  if (preset == Preset::kDelta) cp_load.emplace(d, 300.0, until);
  d.run_for(days * 86400.0 + 2.0 * c.delta_s);
  a.auditor.check_now("final");

  const host::FaultCounters& fc = d.host().fault_counters();
  const relayer::TxPipeline& pipe = d.relayer().pipeline();
  const std::string root = d.guest().store().root_hash().hex();
  char buf[512];
  if (preset == Preset::kReorgStorm) {
    Series fin_latency, rooted_latency, fees;
    int executed = 0, finalised = 0, rooted = 0, lost = 0;
    for (const auto& r : guest_load.records()) {
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
    const char* mode = c.reorg.empty() ? "baseline" : c.rooted ? "rooted" : "optimistic";
    std::snprintf(
        buf, sizeof(buf),
        "%zu,%llu,%s,%zu,%zu,%d,%d,%d,%d,%.3f,%.3f,%.4f,%llu,%llu,%llu,%llu,%llu,"
        "%llu,%s\n",
        index, static_cast<unsigned long long>(c.seed), mode, d.guest().block_count(),
        guest_load.records().size(), executed, finalised, rooted, lost,
        fin_latency.count() > 0 ? fin_latency.mean() : 0.0,
        rooted_latency.count() > 0 ? rooted_latency.mean() : 0.0,
        fees.count() > 0 ? fees.mean() : 0.0,
        static_cast<unsigned long long>(fc.reorgs_triggered),
        static_cast<unsigned long long>(fc.slots_rolled_back),
        static_cast<unsigned long long>(fc.txs_replayed),
        static_cast<unsigned long long>(fc.txs_reorged_out),
        static_cast<unsigned long long>(pipe.reorged_out_total()),
        static_cast<unsigned long long>(pipe.reorg_repairs()), root.c_str());
    return buf;
  }

  Series latency;
  Series rooted_latency;
  int finalised = 0;
  for (const auto& r : guest_load.records()) {
    if (!r->executed || !r->finalised) continue;
    ++finalised;
    latency.add(r->finalised_at - r->executed_at);
    if (r->rooted) rooted_latency.add(r->rooted_at - r->executed_at);
  }
  std::snprintf(buf, sizeof(buf), "%zu,%llu,%.0f,%zu,%zu,%d,%d,%.3f,%s", index,
                static_cast<unsigned long long>(c.seed), c.delta_s,
                d.guest().block_count(), guest_load.records().size(), finalised,
                cp_load->sent(), latency.count() > 0 ? latency.mean() : 0.0,
                root.c_str());
  std::string row = buf;
  if (campaign.has_value()) {
    row += ",";
    row += campaign->counters().csv_row();
    row += ",";
    row += std::to_string(campaign->offenders_banned());
  }
  if (!c.reorg.empty() || c.rooted) {
    std::snprintf(buf, sizeof(buf), ",%.3f,%llu,%llu,%llu,%llu,%llu",
                  rooted_latency.count() > 0 ? rooted_latency.mean() : 0.0,
                  static_cast<unsigned long long>(fc.reorgs_triggered),
                  static_cast<unsigned long long>(fc.slots_rolled_back),
                  static_cast<unsigned long long>(fc.txs_replayed),
                  static_cast<unsigned long long>(fc.txs_reorged_out),
                  static_cast<unsigned long long>(pipe.reorged_out_total()));
    row += buf;
  }
  return row + "\n";
}

struct SendRec {
  ibc::Packet packet;
  double sent_at = 0;
  double recv_at = -1;  ///< first seen received on the guest
};

/// adversary-campaign: fixed-cadence cp->guest sends into the attack
/// (the direction every griefing/fee attack fires on), then the drain.
bench::CellOutput run_campaign(bench::AuditedDeployment& a, std::size_t index,
                               const Cell& c, const std::string& label) {
  relayer::Deployment& d = a.deployment;
  const double t0 = d.sim().now();
  const double attack_start = t0 + kSettleS;
  const double attack_end = attack_start + kAttackS;
  std::optional<adversary::Campaign> campaign;
  attach_adversary(d, c.adversary, attack_start, attack_end, campaign);

  auto recs = std::make_shared<std::vector<SendRec>>();
  for (int i = 0;; ++i) {
    const double at = attack_start + kSendEveryS * static_cast<double>(i);
    if (at >= attack_end) break;
    const std::uint64_t amount = 10 + static_cast<std::uint64_t>(i);
    d.sim().after(at - t0, [&d, recs, amount] {
      SendRec r;
      r.packet = d.send_transfer_from_cp(amount);
      r.sent_at = d.sim().now();
      recs->push_back(std::move(r));
    });
  }
  // Receipt poller: marks each packet's first-received time (2 s
  // granularity is plenty for latency quantiles in seconds).
  std::function<void()> poll = [&d, recs, &poll, attack_end] {
    for (SendRec& r : *recs) {
      if (r.recv_at >= 0) continue;
      if (d.guest().ibc().packet_received("transfer", d.guest_channel(),
                                          r.packet.sequence))
        r.recv_at = d.sim().now();
    }
    if (d.sim().now() < attack_end + kDrainS) d.sim().after(2.0, poll);
  };
  d.sim().after(2.0, poll);

  // Run the attack window to completion first (every send must fire
  // before the clear-check can mean anything), then drain.
  d.run_for(attack_end - t0);
  const auto all_clear = [&] {
    for (const SendRec& r : *recs) {
      if (r.recv_at < 0) return false;
      if (d.cp().ibc().packet_pending("transfer", d.cp_channel(), r.packet.sequence))
        return false;
    }
    return !recs->empty();
  };
  const bool live = d.run_until(all_clear, kDrainS);
  a.auditor.check_now("final");

  Series recv_latency;
  std::size_t delivered = 0, acked = 0;
  for (const SendRec& r : *recs) {
    if (r.recv_at >= 0) {
      ++delivered;
      recv_latency.add(r.recv_at - r.sent_at);
    }
    if (!d.cp().ibc().packet_pending("transfer", d.cp_channel(), r.packet.sequence))
      ++acked;
  }
  const adversary::AdversaryCounters& ctr = campaign->counters();
  const adversary::Campaign::Economics& eco = campaign->economics();
  const Series& det = campaign->detection_latency();
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "%zu,%s,%llu,%zu,%zu,%zu,%.3f,%.3f,%s,%zu,%zu,%llu,%llu,%llu,%llu,%zu,%.3f,%.3f,"
      "%.4f,%.4f,%s\n",
      index, c.adversary.c_str(), static_cast<unsigned long long>(c.seed),
      recs->size(), delivered, acked,
      recv_latency.count() > 0 ? recv_latency.mean() : 0.0,
      recv_latency.count() > 0 ? recv_latency.quantile(0.99) : 0.0,
      ctr.csv_row().c_str(), campaign->offenders().size(),
      campaign->offenders_banned(), static_cast<unsigned long long>(eco.slashed_count),
      static_cast<unsigned long long>(eco.stake_slashed),
      static_cast<unsigned long long>(eco.reporter_reward),
      static_cast<unsigned long long>(eco.stake_burned), det.count(),
      det.count() > 0 ? det.mean() : 0.0, det.count() > 0 ? det.max() : 0.0,
      campaign->attacker_fees_usd(), campaign->fisherman_fees_usd(),
      d.guest().store().root_hash().hex().c_str());

  audit::Verdict verdict = a.auditor.verdict(label);
  if (!live) {
    // A liveness miss is a finding, not a formatting concern: report it
    // through the same verdict channel that gates the exit code.
    verdict.violations += 1;
    verdict.report += "LIVENESS " + label + ": " + std::to_string(delivered) + "/" +
                      std::to_string(recs->size()) + " received, " +
                      std::to_string(acked) + " acked within budget\n";
  }
  return bench::CellOutput{buf, std::move(verdict)};
}

bench::CellOutput run_cell(Preset preset, std::size_t index, const Cell& c, double days) {
  relayer::DeploymentConfig cfg = bench::paper_config(c.seed);
  cfg.guest.delta_seconds = c.delta_s;
  if (!c.reorg.empty() || c.rooted) cfg.host.fork_aware = true;
  if (c.rooted) cfg.relayer.pipeline.commitment = host::Commitment::kRooted;
  bench::AuditedDeployment a(cfg);
  std::string label = "seed " + std::to_string(c.seed) + " delta " +
                      std::to_string(static_cast<long>(c.delta_s));
  if (!c.adversary.empty()) label += " adversary " + c.adversary;
  if (!c.reorg.empty()) label += " reorg " + c.reorg;
  if (c.rooted) label += " rooted";
  if (preset == Preset::kAdversaryCampaign) return run_campaign(a, index, c, label);
  return bench::CellOutput{run_span(a, preset, index, c, days), a.auditor.verdict(label)};
}

int usage(const char* arg) {
  std::fprintf(stderr,
               "scenario_runner: unknown or incomplete option '%s'\n"
               "usage: scenario_runner [--preset delta|reorg-storm|adversary-campaign] "
               "[--seeds N] [--days D] [--shard-workers W] [--timing-csv PATH] "
               "[--adversary NAME] [--reorg NAME] [--commitment processed|rooted]\n",
               arg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const char* preset_name = "delta";
  long seeds = 0;   // 0: the preset's default
  double days = 0;  // 0: the preset's default
  const char* timing_csv = nullptr;
  const char* adversary = nullptr;
  const char* reorg_name = nullptr;
  const char* commitment = nullptr;
  for (int i = 1; i < argc; i += 2) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return usage(flag);
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--preset") == 0) {
      preset_name = value;
    } else if (std::strcmp(flag, "--seeds") == 0) {
      seeds = bench::parse_seed_count("scenario_runner", "--seeds", value);
    } else if (std::strcmp(flag, "--days") == 0) {
      days = bench::parse_positive_double("scenario_runner", "--days", value);
    } else if (std::strcmp(flag, "--shard-workers") == 0) {
      shard::set_worker_count(static_cast<std::size_t>(
          bench::parse_positive_long("scenario_runner", "--shard-workers", value)));
    } else if (std::strcmp(flag, "--timing-csv") == 0) {
      timing_csv = value;
    } else if (std::strcmp(flag, "--adversary") == 0) {
      adversary = value;
    } else if (std::strcmp(flag, "--reorg") == 0) {
      reorg_name = value;
    } else if (std::strcmp(flag, "--commitment") == 0) {
      commitment = value;
    } else {
      return usage(flag);
    }
  }

  std::size_t p = 0;
  while (p < std::size(kPresetNames) && std::strcmp(preset_name, kPresetNames[p]) != 0)
    ++p;
  if (p == std::size(kPresetNames)) {
    std::fprintf(stderr, "scenario_runner: unknown preset '%s'\n", preset_name);
    return 2;
  }
  const auto preset = static_cast<Preset>(p);
  const char* misplaced = nullptr;
  if (preset != Preset::kDelta && reorg_name != nullptr) misplaced = "--reorg";
  if (preset != Preset::kDelta && commitment != nullptr) misplaced = "--commitment";
  if (preset == Preset::kReorgStorm && adversary != nullptr) misplaced = "--adversary";
  if (preset == Preset::kAdversaryCampaign && days > 0) misplaced = "--days";
  if (misplaced != nullptr) {
    std::fprintf(stderr, "scenario_runner: %s does not apply to --preset %s\n",
                 misplaced, preset_name);
    return 2;
  }

  // Window times are placeholders: each cell rebuilds its tables against
  // its own post-handshake clock; only the names matter here.
  if (reorg_name != nullptr &&
      adversary::find_scenario(adversary::reorg_scenarios(0.0, 1.0), reorg_name) ==
          nullptr) {
    std::fprintf(stderr, "scenario_runner: unknown reorg scenario '%s'\n", reorg_name);
    return 2;
  }
  const std::string reorg = reorg_name != nullptr ? reorg_name : "";
  const bool rooted = commitment != nullptr && std::strcmp(commitment, "rooted") == 0;
  if (commitment != nullptr && !rooted && std::strcmp(commitment, "processed") != 0) {
    std::fprintf(stderr,
                 "scenario_runner: --commitment expects processed|rooted, got '%s'\n",
                 commitment);
    return 2;
  }
  const auto shipped = adversary::campaign_scenarios(0.0, 1.0);
  if (adversary != nullptr && adversary::find_scenario(shipped, adversary) == nullptr) {
    std::fprintf(stderr, "scenario_runner: unknown adversary scenario '%s'\n", adversary);
    return 2;
  }
  if (seeds == 0) seeds = preset == Preset::kDelta ? 4 : 2;
  if (days == 0) days = preset == Preset::kDelta ? 0.05 : 0.02;

  // Static grid in a fixed order that does not depend on scheduling.
  std::vector<Cell> grid;
  std::string header;
  switch (preset) {
    case Preset::kDelta:
      for (const double delta : {600.0, 3600.0})
        for (long s = 0; s < seeds; ++s)
          grid.push_back(Cell{42 + static_cast<std::uint64_t>(s), delta,
                              adversary != nullptr ? adversary : "", reorg, rooted});
      header =
          "cell,seed,delta_s,blocks,sends,finalised,cp_sends,mean_latency_s,state_root";
      if (adversary != nullptr) {
        header += ",";
        header += adversary::AdversaryCounters::csv_header();
        header += ",banned";
      }
      if (!reorg.empty() || rooted)
        header +=
            ",mean_rooted_latency_s,reorgs,slots_rolled_back,txs_replayed,"
            "txs_reorged_out,pipeline_reorged_out";
      break;
    case Preset::kReorgStorm:
      for (long s = 0; s < seeds; ++s) {
        const std::uint64_t seed = 42 + static_cast<std::uint64_t>(s);
        grid.push_back(Cell{seed, 600.0, "", "", false});
        grid.push_back(Cell{seed, 600.0, "", "storm90", false});
        grid.push_back(Cell{seed, 600.0, "", "storm90", true});
      }
      header =
          "cell,seed,mode,blocks,sends,executed,finalised,rooted,lost,"
          "mean_finalised_latency_s,mean_rooted_latency_s,mean_fee_usd,reorgs,"
          "slots_rolled_back,txs_replayed,txs_reorged_out,pipeline_reorged_out,"
          "reorg_repairs,state_root";
      break;
    case Preset::kAdversaryCampaign:
      for (const adversary::ScenarioSpec& spec : shipped) {
        if (adversary != nullptr && spec.name != adversary) continue;
        for (long s = 0; s < seeds; ++s)
          grid.push_back(
              Cell{42 + static_cast<std::uint64_t>(s), 300.0, spec.name, "", false});
      }
      header = std::string("cell,scenario,seed,sends,delivered,acked,recv_mean_s,"
                           "recv_p99_s,") +
               adversary::AdversaryCounters::csv_header() +
               ",offenders,banned,slashed,stake_slashed,reporter_reward,stake_burned,"
               "detect_n,detect_mean_s,detect_max_s,attacker_usd,fisherman_usd,"
               "state_root";
      break;
  }

  std::fprintf(stderr, "scenario_runner: preset %s, %zu cells, %zu shard workers\n",
               preset_name, grid.size(), shard::worker_count());

  const bench::GridResult g = bench::run_grid(grid.size(), [&](std::size_t i) {
    return run_cell(preset, i, grid[i], days);
  });

  std::printf("%s\n", header.c_str());
  bench::print_cells(g);

  std::fprintf(stderr, "scenario_runner: wall=%.3fs\n", g.wall_s);
  bench::write_timing(g, timing_csv, "scenario_runner");

  // Violations are not part of the CSV artifact: report on stderr and
  // fail the run.
  if (!g.verdict.clean())
    std::fprintf(stderr, "scenario_runner: AUDIT %s\n", g.verdict.report.c_str());
  return g.verdict.clean() ? 0 : 1;
}
