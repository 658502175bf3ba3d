// Micro-benchmark of the resilient submission pipeline under host
// congestion: how much simulated latency, fee cost and retry traffic a
// fixed 10-transaction sequence incurs as the congestion multiplier
// collapses from 1.0 (clean host) toward 0.0 (nothing lands until the
// window passes).  The interesting output is the *simulated* metrics
// (reported as counters), not the wall-clock time of the event loop.
#include <benchmark/benchmark.h>

#include <memory>

#include "host/chain.hpp"
#include "host/constants.hpp"
#include "relayer/tx_pipeline.hpp"

namespace {

using namespace bmg;

class NoopProgram : public host::Program {
 public:
  void execute(host::TxContext&, ByteView) override {}
};

struct RunResult {
  relayer::SequenceOutcome outcome;
  std::uint64_t retries = 0;
  std::uint64_t escalations = 0;
  std::uint64_t events = 0;
};

// One full simulated run: a 10-tx base-fee sequence against a host
// whose inclusion probabilities are multiplied by `severity` for the
// first 120 s.  Deterministic per (severity, seed).  Inside the window
// every inclusion draw comes from the fault stream, so the seed varies
// it too; seed 1 keeps the chain's default fault stream.
RunResult run_sequence(double severity, std::uint64_t seed,
                       const relayer::PipelineConfig& pcfg) {
  sim::Simulation sim;
  host::ChainConfig cfg;
  cfg.fault.congestion(0.0, 120.0, severity);
  cfg.fault_seed ^= seed - 1;
  host::Chain chain(sim, Rng(seed), cfg);
  chain.register_program("noop", std::make_unique<NoopProgram>());
  const crypto::PublicKey payer = crypto::PrivateKey::from_label("bench-payer").public_key();
  chain.airdrop(payer, 1000 * host::kLamportsPerSol);
  chain.start();

  relayer::TxPipeline pipe(sim, chain, Rng(seed ^ 0x9E3779B97F4A7C15ull), pcfg);
  std::vector<host::Transaction> txs;
  for (int i = 0; i < 10; ++i) {
    host::Transaction tx;
    tx.payer = payer;
    tx.label = "bench";
    tx.instructions.push_back(host::Instruction{"noop", Bytes{}});
    txs.push_back(std::move(tx));
  }

  RunResult r;
  bool done = false;
  pipe.submit_sequence(std::move(txs), [&](const relayer::SequenceOutcome& out) {
    r.outcome = out;
    done = true;
  });
  sim.run_until(3600.0);
  if (!done) r.outcome.ok = false;
  r.retries = pipe.retries_total();
  r.escalations = pipe.escalations_total();
  r.events = sim.events_processed();
  return r;
}

// state.range(0) = congestion multiplier in percent (100 = clean).
void run_congestion_bench(benchmark::State& state, const relayer::PipelineConfig& pcfg) {
  const double severity = static_cast<double>(state.range(0)) / 100.0;
  double latency_sum = 0, cost_sum = 0;
  std::uint64_t retries_sum = 0, escalations_sum = 0, runs = 0, delivered = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const RunResult r = run_sequence(severity, seed++, pcfg);
    benchmark::DoNotOptimize(r.events);
    latency_sum += r.outcome.finished_at;
    cost_sum += r.outcome.cost_usd;
    retries_sum += static_cast<std::uint64_t>(r.outcome.retries);
    escalations_sum += r.escalations;
    delivered += r.outcome.ok ? 1 : 0;
    ++runs;
  }
  const double n = static_cast<double>(runs);
  state.counters["sim_latency_s"] = latency_sum / n;
  state.counters["cost_usd"] = cost_sum / n;
  state.counters["retries"] = static_cast<double>(retries_sum) / n;
  state.counters["fee_escalations"] = static_cast<double>(escalations_sum) / n;
  state.counters["delivery_rate"] = static_cast<double>(delivered) / n;
}

void BM_PipelineUnderCongestion(benchmark::State& state) {
  run_congestion_bench(state, relayer::PipelineConfig{});
}
BENCHMARK(BM_PipelineUnderCongestion)->Arg(100)->Arg(50)->Arg(30)->Arg(10)->Arg(0);

// The pre-pipeline submitter, expressed as a pipeline with all budgets
// set to one attempt: no deadline, no retry, no fee escalation — the
// sequence aborts on the first lost transaction.
void BM_NaiveSubmitterUnderCongestion(benchmark::State& state) {
  relayer::PipelineConfig naive;
  naive.tx_deadline_s = 0;
  naive.max_attempts_per_tx = 1;
  naive.max_exec_failures = 1;
  naive.escalate_fees = false;
  run_congestion_bench(state, naive);
}
BENCHMARK(BM_NaiveSubmitterUnderCongestion)->Arg(100)->Arg(50)->Arg(30)->Arg(10)->Arg(0);

}  // namespace

BENCHMARK_MAIN();
