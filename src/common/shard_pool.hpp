// Shard-per-deployment execution layer, the stack's only thread pool.
//
// One deterministic event loop is inherently serial, so the scaling
// axis is whole simulations: a scenario grid cell owns its complete
// simulation (scheduler, chains, agents, RNG streams) and shares no
// mutable state with any other cell.  The shard pool runs those cells
// on persistent worker threads, one whole simulation per cell, and
// each cell runs every kernel (signing, batch verify, trie commit,
// proving) serially on its worker.  Worker count comes from
// BMG_SHARD_WORKERS / --shard-workers.
//
// Determinism.  Cells are dealt out of an atomic counter (which
// *worker* runs which cell is the only scheduling freedom), every cell
// computes a pure function of its grid index, and results land in
// caller-owned slots indexed by cell — so the merged artifact is the
// concatenation in grid order no matter the worker count or
// completion order.  One worker (or an inline run) is the exact
// serial path.
//
// Memory.  Admission is shard-count-limited: at most worker_count()
// cells are in flight, which bounds peak memory to W live simulations
// regardless of grid size.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace bmg::shard {

/// Per-cell execution record, returned in grid order.  `worker` is
/// informational (which pool worker ran the cell; 0 is the submitting
/// thread) — artifacts must never depend on it.  `cpu_s` is the
/// executing thread's CPU clock, which is what demonstrates work
/// distribution on hosts where wall-clock cannot scale (1-CPU boxes).
struct CellStats {
  std::size_t cell = 0;
  std::size_t worker = 0;
  double wall_s = 0;
  double cpu_s = 0;
};

/// Number of shard workers (>= 1) the next run_cells() will use.
/// First call reads BMG_SHARD_WORKERS (unset/0 → hardware
/// concurrency).  The submitting thread participates as worker 0, so
/// `worker_count() == 1` means no pool threads at all.
[[nodiscard]] std::size_t worker_count();

/// Reconfigures the pool to exactly `n` workers (0 → re-read the
/// BMG_SHARD_WORKERS/hardware default).  Joins existing workers
/// first; must not be called from inside a cell.
void set_worker_count(std::size_t n);

/// A cell body: run grid cell `cell` (a complete, isolated
/// simulation).  Results are returned by writing to caller-owned
/// storage indexed by `cell` — never to anything shared.
using CellFn = std::function<void(std::size_t cell)>;

/// Runs fn(0) .. fn(n-1) across the shard workers and blocks until
/// all cells finish.  Returns per-cell stats in grid order.  If any
/// cell throws, the exception from the *lowest-indexed* failing cell
/// is rethrown after the join (deterministic error propagation);
/// remaining cells still run.
std::vector<CellStats> run_cells(std::size_t n, const CellFn& fn);

}  // namespace bmg::shard
