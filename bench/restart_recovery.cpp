// Crash-restart recovery latency (PR 5).
//
// How long does a relayer restarted from nothing but on-chain state
// take to finish delivering a counterparty->guest transfer, as a
// function of *where* in the chunked light-client-update protocol the
// crash lands?  state.range(0) picks the crash phase:
//
//     0 — before any staging chunk was uploaded (resync restarts the
//         update from scratch);
//    50 — mid chunk-upload (staged buffer abandoned, update rebuilt);
//    90 — after BeginClientUpdate, during signature verification (the
//         resync resumes the contract's pending update in place).
//
// The interesting output is the *simulated* recovery time (counter
// `recovery_s`), not the wall-clock time of the event loop.  An
// invariant auditor runs throughout; any violation aborts the bench.
#include <benchmark/benchmark.h>

#include <stdexcept>

#include "grid.hpp"

namespace {

using namespace bmg;

struct RunResult {
  double recovery_s = 0;   ///< restart -> packet delivered on the guest
  double downtime_s = 0;   ///< crash -> restart
  bool delivered = false;
};

RunResult run_once(int phase_pct, std::uint64_t seed) {
  relayer::DeploymentConfig cfg = bench::paper_config(seed);
  cfg.guest.delta_seconds = 600.0;
  bench::AuditedDeployment audited(cfg);
  relayer::Deployment& d = audited.deployment;

  const ibc::Packet packet = d.send_transfer_from_cp(50);
  const auto delivered = [&] {
    return d.guest().ibc().packet_received("transfer", d.guest_channel(),
                                           packet.sequence);
  };

  // Advance to the requested crash phase.
  relayer::RelayerAgent& r = d.relayer();
  switch (phase_pct) {
    case 0:
      break;  // crash before the relayer stages anything
    case 50:
      (void)d.run_until(
          [&] { return !d.guest().staging_buffers_of(r.payer()).empty(); }, 600.0);
      break;
    default:  // 90: pending update exists on-chain, signatures partly verified
      (void)d.run_until(
          [&] { return d.guest().pending_update_info().has_value(); }, 600.0);
      break;
  }

  RunResult out;
  if (delivered()) {
    // The phase passed before we could crash (shouldn't happen at the
    // paper's update sizes); report zero recovery.
    out.delivered = true;
    return out;
  }

  const double crashed_at = d.sim().now();
  r.crash();
  d.run_for(30.0);
  out.downtime_s = d.sim().now() - crashed_at;
  r.restart();
  const double restarted_at = d.sim().now();
  out.delivered = d.run_until(delivered, 3600.0);
  out.recovery_s = d.sim().now() - restarted_at;

  if (!audited.auditor.clean())
    throw std::runtime_error("restart_recovery: " + audited.auditor.report());
  return out;
}

// state.range(0) = crash phase (percent through the update protocol).
void BM_RestartRecovery(benchmark::State& state) {
  const int phase = static_cast<int>(state.range(0));
  double recovery_sum = 0, downtime_sum = 0;
  std::uint64_t runs = 0, delivered = 0;
  std::uint64_t seed = 42;
  for (auto _ : state) {
    const RunResult r = run_once(phase, seed++);
    benchmark::DoNotOptimize(r.recovery_s);
    recovery_sum += r.recovery_s;
    downtime_sum += r.downtime_s;
    delivered += r.delivered ? 1 : 0;
    ++runs;
  }
  const double n = static_cast<double>(runs);
  state.counters["recovery_s"] = recovery_sum / n;
  state.counters["downtime_s"] = downtime_sum / n;
  state.counters["delivery_rate"] = static_cast<double>(delivered) / n;
}
BENCHMARK(BM_RestartRecovery)->Arg(0)->Arg(50)->Arg(90)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
