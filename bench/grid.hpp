// Shared grid execution for the evaluation harnesses (PR 7).
//
// Every grid-capable driver — scenario_runner's presets, the fig2/fig6
// grid modes, the parameter-sweep ablations — has the same shape: a static
// list of independent cells, each a complete deterministic simulation,
// whose formatted output must appear on stdout in grid order and be
// byte-identical at every worker count.  This header hoists the one
// implementation of that contract onto the shard pool
// (common/shard_pool.hpp) so each driver is only its cell body:
//
//   * cells run on the shard workers (--shard-workers /
//     BMG_SHARD_WORKERS), at most worker_count() in flight;
//   * each cell returns its artifact text and (optionally) an
//     InvariantAuditor verdict *by value*; both land in slots indexed
//     by grid position, so the merge is the concatenation in grid
//     order no matter which worker finished when;
//   * wall/CPU timing per cell is collected on the side and written
//     only to the timing sink (--timing-csv) or stderr — never into
//     the stdout artifact, which is what the determinism CI diffs.
#pragma once

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "audit/auditor.hpp"
#include "bench_common.hpp"
#include "common/shard_pool.hpp"
#include "parse.hpp"

namespace bmg::bench {

/// What one grid cell hands back across the pool boundary.  `table` is
/// the cell's slice of the stdout artifact (CSV rows or table lines,
/// newline-terminated); `verdict` defaults to clean for drivers that
/// do not audit.
struct CellOutput {
  std::string table;
  audit::Verdict verdict;
};

/// A deployment under audit, as every scoreboard cell and
/// restart_recovery build it: the InvariantAuditor re-checks
/// conservation / sequence / commit-root / client-height invariants
/// after every block from before `open_ibc` on, and watches the guest's
/// client on the counterparty and the SOL/PICA transfer lane.  It runs
/// inline inside existing event handlers, so the artifact is
/// byte-identical with or without it.  Not copyable: the auditor holds
/// references into the deployment.
struct AuditedDeployment {
  relayer::Deployment deployment;
  audit::InvariantAuditor auditor;

  explicit AuditedDeployment(const relayer::DeploymentConfig& cfg)
      : deployment(cfg),
        auditor(deployment.sim(), deployment.host(), deployment.guest(),
                deployment.cp()) {
    auditor.start();
    deployment.open_ibc();
    auditor.watch_client(deployment.guest_client_on_cp());
    auditor.watch_transfer_lane(audit::TransferLane{
        deployment.guest_channel(), deployment.cp_channel(), "SOL", "PICA"});
  }
  AuditedDeployment(const AuditedDeployment&) = delete;
  AuditedDeployment& operator=(const AuditedDeployment&) = delete;
};

struct GridResult {
  std::vector<CellOutput> cells;        ///< grid order
  std::vector<shard::CellStats> stats;  ///< grid order
  audit::Verdict verdict;               ///< merged in grid order
  double wall_s = 0;                    ///< whole-grid wall clock
};

/// Runs `cell(0) .. cell(n-1)` on the shard pool and merges results in
/// grid order.  Cells must be pure functions of their index (build the
/// whole simulation inside the body; write nothing shared).
inline GridResult run_grid(std::size_t n,
                           const std::function<CellOutput(std::size_t)>& cell) {
  GridResult g;
  g.cells.resize(n);
  const auto t0 = std::chrono::steady_clock::now();
  g.stats = shard::run_cells(n, [&](std::size_t i) { g.cells[i] = cell(i); });
  g.wall_s = std::chrono::duration_cast<std::chrono::duration<double>>(
                 std::chrono::steady_clock::now() - t0)
                 .count();
  std::vector<audit::Verdict> verdicts;
  verdicts.reserve(n);
  for (const CellOutput& c : g.cells) verdicts.push_back(c.verdict);
  g.verdict = audit::merge_verdicts(verdicts);
  return g;
}

/// Prints every cell's artifact slice in grid order (the deterministic
/// stdout artifact).
inline void print_cells(const GridResult& g, std::FILE* out = stdout) {
  for (const CellOutput& c : g.cells) std::fputs(c.table.c_str(), out);
}

/// Timing CSV schema (one row per cell, grid order):
///   cell,worker,shard_workers,cell_wall_s,cell_cpu_s
/// `cell_cpu_s` is the executing thread's CPU clock — on a 1-CPU host
/// wall-clock cannot scale, but per-cell CPU attributed to distinct
/// workers still demonstrates the work distribution.
inline void write_timing_csv(std::FILE* f, const GridResult& g) {
  std::fprintf(f, "cell,worker,shard_workers,cell_wall_s,cell_cpu_s\n");
  for (const shard::CellStats& s : g.stats)
    std::fprintf(f, "%zu,%zu,%zu,%.6f,%.6f\n", s.cell, s.worker,
                 shard::worker_count(), s.wall_s, s.cpu_s);
}

/// Writes the timing CSV to `path` if non-null; exits with a
/// diagnostic when the file cannot be opened (a silently missing
/// timing sink would fake a clean scaling record).
inline void write_timing(const GridResult& g, const char* path, const char* prog) {
  if (path == nullptr) return;
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "%s: cannot open timing csv '%s'\n", prog, path);
    std::exit(2);
  }
  write_timing_csv(f, g);
  std::fclose(f);
}

// Strict CLI parsing (parse_positive_long / parse_positive_double)
// lives in parse.hpp so bmg_trie-only drivers can use it too.

}  // namespace bmg::bench
