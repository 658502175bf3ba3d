// The stack's end-to-end benchmark driver.
//
// One run executes one workload in rounds.  A round is a grid of four
// complete deployments (cells) on the shard pool, one cell per worker.
// Every cell of the run has its own seed, RNG stream i of --seed for
// cell i, and the run has a fixed number of rounds sized from
// --seconds (Workload::round_s), so all simulated outputs depend on the
// seed alone.  Outputs and CPU per packet are pooled over all cells;
// wall time is the median round.
//
//   perfbench --workload NAME --seed N --seconds S [--workers W] [--scale F]
//   perfbench --workload NAME --seed N --setup-only --cell C
//
//   --workers W    shard workers (default 4)
//   --scale F      multiplies the traffic horizon (run.py --self-test)
//   --setup-only   build cell C's deployment, open its channel, print
//                  "open" and exit (run.py times this from process
//                  start, so one-time initialisation is included)
//
// The last line of stdout is one JSON object (see README.md).
//
// Cells are built only from public APIs: relayer::Deployment and its
// config (bench::paper_config), host::FaultPlan::reorg,
// audit::InvariantAuditor and shard::run_cells.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "audit/auditor.hpp"
#include "bench_common.hpp"
#include "common/shard_pool.hpp"
#include "parse.hpp"
#include "relayer/deployment.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_TRACED
#define PERFBENCH_TRACED 0
#endif

namespace {

using namespace bmg;
namespace trace = perfbench::trace;

constexpr bool kTraced = PERFBENCH_TRACED != 0;
constexpr std::size_t kCells = 4;
const char* const kPort = "transfer";

/// One benchmark workload.  All traffic is open-loop Poisson in
/// simulated time over `horizon_s`; the cell then drains until every
/// packet is received on its destination chain.
struct Workload {
  const char* name;
  double horizon_s;
  double guest_send_mean_s;  ///< guest -> counterparty inter-arrival
  double cp_send_mean_s;     ///< counterparty -> guest inter-arrival
  bool reorg_storm;          ///< fork-aware host under the storm preset
  /// Seconds of --seconds that buy one round.  A run of S seconds is
  /// round(S / round_s) rounds: a fixed amount of simulated work, so
  /// every simulated output is a function of the seed alone.  On a
  /// 4-vCPU x86-64 VM a 20 s run takes 20-40 s, depending on how busy
  /// the host is.  reorg_storm gets more rounds per second than its
  /// wall time alone would give, because its cells vary the most.
  double round_s;
};

constexpr Workload kWorkloads[] = {
    {"dense_mix", 0.05 * 86400.0, 120.0, 300.0, false, 1.8},
    {"paper_sparse", 0.5 * 86400.0, 1500.0, 1200.0, false, 2.5},
    {"reorg_storm", 0.05 * 86400.0, 120.0, 300.0, true, 3.3},
};

// scenario_runner's `storm` preset: shallow frequent forks, no tx loss.
constexpr std::uint64_t kStormDepth = 4;
constexpr double kStormProbability = 0.08;
constexpr double kStormSurvival = 1.0;

/// Guest sends time out after this long instead of scenario_runner's
/// 1 h, so a send stalled behind a validator outage (Table I #1: mean
/// 12,000 s) is still delivered once finality resumes and no packet of
/// the workload fails by timing out.
constexpr double kGuestSendTimeoutS = 3.0 * 86400.0;
constexpr double kDrainStepS = 60.0;
constexpr double kDrainCapS = 2.0 * 86400.0;

/// bench::GuestSendWorkload (same RNG draws, same client fees) with the
/// send timeout above.
class GuestSends {
 public:
  GuestSends(relayer::Deployment& d, double mean_s, double until)
      : d_(d), mean_(mean_s), until_(until), rng_(d.rng().fork()) {
    schedule_next();
  }
  GuestSends(const GuestSends&) = delete;
  GuestSends& operator=(const GuestSends&) = delete;

  [[nodiscard]] const std::vector<std::shared_ptr<relayer::Deployment::SendRecord>>&
  records() const {
    return records_;
  }

 private:
  void schedule_next() {
    const double at = d_.sim().now() + rng_.exponential(mean_);
    if (at > until_) return;
    d_.sim().at(at, [this] {
      records_.push_back(
          d_.send_transfer_from_guest(100, bench::sample_client_fee(rng_), kGuestSendTimeoutS));
      schedule_next();
    });
  }

  relayer::Deployment& d_;
  double mean_;
  double until_;
  Rng rng_;
  std::vector<std::shared_ptr<relayer::Deployment::SendRecord>> records_;
};

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void appendf(std::string& out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));
void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) out.append(buf, std::min<std::size_t>(static_cast<std::size_t>(n), sizeof(buf) - 1));
}

/// A deployment with its auditor, up to an open channel.
struct OpenCell {
  std::unique_ptr<relayer::Deployment> d;
  std::unique_ptr<audit::InvariantAuditor> auditor;
  std::uint64_t open_retries = 0;
};

/// Opens cell `cell` of the run: RNG stream `cell` of `seed`.  A stream
/// whose handshake stalls (a validator outage at genesis keeps a guest
/// block unfinalised past open_ibc's 600 s wait; stream 6 of seed 1
/// does) is replaced by stream cell + k * 2^32, the first k that opens.
OpenCell open_cell(const Workload& w, std::uint64_t seed, std::uint64_t cell) {
  constexpr std::uint64_t kMaxOpenRetries = 8;
  for (std::uint64_t k = 0;; ++k) {
    relayer::DeploymentConfig cfg = bench::paper_config(seed);
    cfg.rng_stream = cell + (k << 32);
    if (w.reorg_storm) cfg.host.fork_aware = true;
    OpenCell c;
    c.open_retries = k;
    c.d = std::make_unique<relayer::Deployment>(cfg);
    relayer::Deployment& d = *c.d;
    c.auditor = std::make_unique<audit::InvariantAuditor>(d.sim(), d.host(), d.guest(), d.cp());
    c.auditor->start();
    try {
      d.open_ibc();
    } catch (const std::runtime_error&) {
      if (k == kMaxOpenRetries) throw;
      continue;
    }
    c.auditor->watch_client(d.guest_client_on_cp());
    c.auditor->watch_transfer_lane(
        audit::TransferLane{d.guest_channel(), d.cp_channel(), "SOL", "PICA"});
    return c;
  }
}

/// Everything one cell hands back across the shard boundary.  All
/// counts cover the measured span (after the channel opened).
struct CellResult {
  // simulated outputs (deterministic per seed)
  std::vector<double> send_final_s;  ///< +inf: never finalised
  std::vector<double> lc_update_s;
  std::uint64_t attempted = 0;
  std::uint64_t delivered = 0;
  double relayer_usd = 0;
  std::uint64_t events = 0;
  std::uint64_t host_executed = 0, host_failed = 0, host_dropped = 0;
  host::FaultCounters faults;
  double lc_update_txs = 0;
  std::uint64_t relay_retries = 0;
  std::uint64_t open_retries = 0;
  bool clean = false;
  std::string verdict;
  std::uint64_t digest = 0;
  // measured
  double run_cpu_s = 0;  ///< cell thread CPU after the channel opened
  trace::Totals layers;
};

CellResult run_cell(const Workload& w, double scale, std::uint64_t seed, std::uint64_t cell) {
  OpenCell oc = open_cell(w, seed, cell);
  relayer::Deployment& d = *oc.d;
  audit::InvariantAuditor& auditor = *oc.auditor;

  CellResult r;
  r.open_retries = oc.open_retries;
  const double cpu0 = thread_cpu_s();
  trace::begin_cell();
  const std::uint64_t events0 = d.sim().events_processed();
  const std::uint64_t fees0 = d.host().payer_stats(d.relayer().payer()).fees_lamports;
  const std::size_t lc0 = d.relayer().update_durations().count();
  const std::uint64_t retries0 = d.relayer().pipeline().retries_total();
  const std::uint64_t executed0 = d.host().executed_count();
  const std::uint64_t failed0 = d.host().failed_count();
  const std::uint64_t dropped0 = d.host().dropped_count();
  const std::uint64_t guest_seq0 = d.guest().ibc().next_send_sequence(kPort, d.guest_channel());
  const std::uint64_t cp_seq0 = d.cp().ibc().next_send_sequence(kPort, d.cp_channel());

  const double start = d.sim().now();
  const double until = start + w.horizon_s * scale;
  if (w.reorg_storm)
    d.host().fault_plan().reorg(start + 30.0, until, kStormDepth, kStormProbability,
                                kStormSurvival);
  const GuestSends guest_load(d, w.guest_send_mean_s, until);
  const bench::CpSendWorkload cp_load(d, w.cp_send_mean_s, until);
  d.run_for(until - start);
  const auto& sends = guest_load.records();
  const auto cp_sends = static_cast<std::uint64_t>(cp_load.sent());

  // Drain until every guest send has settled on the host and every
  // packet that made it on chain is received on its destination.  A
  // guest send the host failed never becomes a packet; it still counts
  // as attempted, so it counts as failed.
  const auto received = [&](ibc::IbcModule& dst, const ibc::ChannelId& dst_channel,
                            std::uint64_t first, std::uint64_t end) {
    std::uint64_t n = 0;
    for (std::uint64_t s = first; s < end; ++s) n += dst.packet_received(kPort, dst_channel, s);
    return n;
  };
  const auto delivered = [&] {
    return received(d.cp().ibc(), d.cp_channel(), guest_seq0,
                    d.guest().ibc().next_send_sequence(kPort, d.guest_channel())) +
           received(d.guest().ibc(), d.guest_channel(), cp_seq0,
                    d.cp().ibc().next_send_sequence(kPort, d.cp_channel()));
  };
  const auto drained = [&] {
    std::uint64_t packets = cp_sends;
    for (const auto& s : sends) {
      if (!s->executed && !s->failed) return false;
      packets += s->executed ? 1 : 0;
    }
    return delivered() == packets;
  };
  r.attempted = sends.size() + cp_sends;
  while (d.sim().now() < until + kDrainCapS && !drained()) d.run_for(kDrainStepS);
  auditor.check_now("final");
  const double end = d.sim().now();

  r.run_cpu_s = thread_cpu_s() - cpu0;
  r.layers = trace::end_cell();

  r.delivered = delivered();
  r.events = d.sim().events_processed() - events0;
  r.relayer_usd = host::lamports_to_usd(
      d.host().payer_stats(d.relayer().payer()).fees_lamports - fees0);
  for (const auto& s : sends)
    r.send_final_s.push_back(s->finalised ? s->finalised_at - s->submitted_at
                                          : std::numeric_limits<double>::infinity());
  const auto& durations = d.relayer().update_durations().samples();
  const auto& tx_counts = d.relayer().update_tx_counts().samples();
  r.lc_update_s.assign(durations.begin() + static_cast<std::ptrdiff_t>(lc0), durations.end());
  for (std::size_t i = lc0; i < tx_counts.size(); ++i) r.lc_update_txs += tx_counts[i];
  r.relay_retries = d.relayer().pipeline().retries_total() - retries0;
  r.host_executed = d.host().executed_count() - executed0;
  r.host_failed = d.host().failed_count() - failed0;
  r.host_dropped = d.host().dropped_count() - dropped0;
  r.faults = d.host().fault_counters();
  const audit::Verdict v = auditor.verdict(std::string(w.name) + " cell " + std::to_string(cell));
  r.clean = v.clean();
  r.verdict = v.report;

  // Transcript: the cell's simulated outputs and final state roots, and
  // nothing that names the cell, so two cells that simulate the same
  // thing share a digest.
  std::string t;
  appendf(t, "end=%.6f\n", end);
  appendf(t, "guest blocks=%zu root=%s\n", d.guest().block_count(),
          d.guest().store().root_hash().hex().c_str());
  appendf(t, "cp height=%llu root=%s\n", static_cast<unsigned long long>(d.cp().height()),
          d.cp().store().root_hash().hex().c_str());
  for (const auto& s : sends)
    appendf(t, "send seq=%llu exec=%d fin=%d %.6f %.6f %.6f\n",
            static_cast<unsigned long long>(s->sequence), s->executed ? 1 : 0,
            s->finalised ? 1 : 0, s->submitted_at, s->executed_at, s->finalised_at);
  for (std::size_t i = lc0; i < durations.size(); ++i)
    appendf(t, "lc %.6f %.0f\n", durations[i], tx_counts[i]);
  appendf(t, "attempted=%llu delivered=%llu cp_sends=%llu fees=%.9f events=%llu\n",
          static_cast<unsigned long long>(r.attempted),
          static_cast<unsigned long long>(r.delivered),
          static_cast<unsigned long long>(cp_sends), r.relayer_usd,
          static_cast<unsigned long long>(r.events));
  appendf(t, "host exec=%llu failed=%llu dropped=%llu reorgs=%llu rolled=%llu replayed=%llu\n",
          static_cast<unsigned long long>(r.host_executed),
          static_cast<unsigned long long>(r.host_failed),
          static_cast<unsigned long long>(r.host_dropped),
          static_cast<unsigned long long>(r.faults.reorgs_triggered),
          static_cast<unsigned long long>(r.faults.slots_rolled_back),
          static_cast<unsigned long long>(r.faults.txs_replayed));
  appendf(t, "audit checks=%llu violations=%llu\n",
          static_cast<unsigned long long>(v.checks),
          static_cast<unsigned long long>(v.violations));
  r.digest = fnv1a(t);
  return r;
}

/// Nearest-rank quantile; +inf samples rank last.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Minimal JSON object writer (numbers at full precision).
class Json {
 public:
  Json& num(const std::string& key, double v) {
    sep(key);
    if (std::isfinite(v)) {
      appendf(s_, "%.17g", v);
    } else {
      s_ += "null";
    }
    return *this;
  }
  Json& boolean(const std::string& key, bool v) {
    sep(key);
    s_ += v ? "true" : "false";
    return *this;
  }
  Json& str(const std::string& key, const std::string& v) {
    sep(key);
    s_ += '"';
    for (const char c : v) {
      if (c == '"' || c == '\\') s_ += '\\';
      s_ += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    s_ += '"';
    return *this;
  }
  Json& raw(const std::string& key, const std::string& json) {
    sep(key);
    s_ += json;
    return *this;
  }
  [[nodiscard]] std::string done() const { return s_ + "}"; }

 private:
  void sep(const std::string& key) {
    s_ += s_.size() > 1 ? ", \"" : "\"";
    s_ += key;
    s_ += "\": ";
  }
  std::string s_ = "{";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload dense_mix|paper_sparse|reorg_storm "
               "--seed N (--seconds S [--workers W] [--scale F] | --setup-only --cell C)\n",
               why.c_str());
  std::exit(2);
}

/// One grid of kCells cells on the shard pool.
struct Round {
  std::vector<CellResult> cells;
  std::vector<shard::CellStats> stats;
  double wall_s = 0;
};

Round run_round(const Workload& w, double scale, std::uint64_t seed, std::uint64_t first_cell) {
  Round r;
  r.cells.resize(kCells);
  const auto t0 = std::chrono::steady_clock::now();
  r.stats = shard::run_cells(
      kCells, [&](std::size_t c) { r.cells[c] = run_cell(w, scale, seed, first_cell + c); });
  r.wall_s = seconds_since(t0);
  return r;
}

/// Per-layer metrics of the traced build: each count and CPU total per
/// round (summed over the run's cells, divided by rounds), per
/// delivered packet, and each CPU total as a share of run CPU.
std::string layer_json(const std::vector<CellResult>& cells, double rounds) {
  using trace::Layer;
  trace::Totals t;
  double run_cpu_s = 0, packets = 0, lc_txs = 0;
  std::uint64_t executed = 0, failed = 0, dropped = 0, reorgs = 0, rolled = 0, replayed = 0;
  std::uint64_t lc_updates = 0, retries = 0, events = 0, open_retries = 0;
  for (const CellResult& c : cells) {
    t += c.layers;
    run_cpu_s += c.run_cpu_s;
    packets += static_cast<double>(c.delivered);
    executed += c.host_executed;
    failed += c.host_failed;
    dropped += c.host_dropped;
    reorgs += c.faults.reorgs_triggered;
    rolled += c.faults.slots_rolled_back;
    replayed += c.faults.txs_replayed;
    lc_updates += c.lc_update_s.size();
    lc_txs += c.lc_update_txs;
    retries += c.relay_retries;
    events += c.events;
    open_retries += c.open_retries;
  }
  packets = std::max(packets, 1.0);
  const auto calls = [&](Layer l) {
    return static_cast<double>(t.calls[static_cast<std::size_t>(l)]);
  };
  const auto cpu = [&](Layer l) { return t.self_s[static_cast<std::size_t>(l)]; };
  Json j;
  // Each takes a run total.
  const auto count = [&](const std::string& name, double v) {
    j.num(name, v / rounds).num(name + "_per_packet", v / packets);
  };
  const auto seconds = [&](const std::string& layer, double v) {
    j.num(layer + ".cpu_s", v / rounds)
        .num(layer + ".cpu_s_per_packet", v / packets)
        .num(layer + ".cpu_share", v / run_cpu_s);
  };
  const auto submits = static_cast<double>(t.host_submits);
  const double residual = run_cpu_s - (t.self_total_s() + t.outside_overhead_s);

  count("crypto.sign.calls", calls(Layer::kSign));
  seconds("crypto.sign", cpu(Layer::kSign));
  count("crypto.sign.counterparty_calls", static_cast<double>(t.sign_under_header));
  count("crypto.verify.items", static_cast<double>(t.verify_items));
  count("crypto.verify.batches", calls(Layer::kVerifyBatch));
  seconds("crypto.verify", cpu(Layer::kVerifyBatch) + cpu(Layer::kVerifySingle));
  j.num("crypto.verify.unique_ratio", t.verify_items > 0
                                          ? static_cast<double>(t.verify_distinct) /
                                                static_cast<double>(t.verify_items)
                                          : 0.0);
  count("crypto.sha256.calls", calls(Layer::kSha256));
  seconds("crypto.sha256", cpu(Layer::kSha256));
  count("trie.writes", calls(Layer::kTrieSet) + calls(Layer::kTrieSeal));
  seconds("trie.writes", cpu(Layer::kTrieSet) + cpu(Layer::kTrieSeal));
  count("trie.commit.calls", calls(Layer::kTrieCommit));
  seconds("trie.commit", cpu(Layer::kTrieCommit));
  count("trie.prove.calls", calls(Layer::kTrieProve));
  seconds("trie.prove", cpu(Layer::kTrieProve));
  count("trie.verify_proof.calls", calls(Layer::kTrieVerifyProof));
  seconds("trie.verify_proof", cpu(Layer::kTrieVerifyProof));
  count("ibc.update_client.calls", calls(Layer::kIbcUpdateClient));
  seconds("ibc.update_client", cpu(Layer::kIbcUpdateClient));
  count("ibc.packet.calls", calls(Layer::kIbcPacket));
  seconds("ibc.packet", cpu(Layer::kIbcPacket));
  count("counterparty.header.calls", calls(Layer::kCpHeader));
  seconds("counterparty.header", cpu(Layer::kCpHeader));
  count("host.txs_submitted", submits);
  count("host.txs_executed", static_cast<double>(executed));
  count("host.txs_failed", static_cast<double>(failed));
  count("host.txs_dropped", static_cast<double>(dropped));
  j.num("host.inclusion_ratio", submits > 0 ? static_cast<double>(executed) / submits : 0.0);
  count("host.reorgs", static_cast<double>(reorgs));
  count("host.slots_rolled_back", static_cast<double>(rolled));
  count("host.txs_replayed", static_cast<double>(replayed));
  count("relayer.sequences", static_cast<double>(t.sequences));
  count("relayer.lc_updates", static_cast<double>(lc_updates));
  j.num("relayer.txs_per_lc_update",
        lc_updates > 0 ? lc_txs / static_cast<double>(lc_updates) : 0.0);
  count("relayer.retries", static_cast<double>(retries));
  count("sim.events", static_cast<double>(events));
  seconds("sim.residual", residual);
  j.num("sim.residual_us_per_event", 1e6 * residual / static_cast<double>(events));
  j.num("run.cpu_s", run_cpu_s / rounds);
  j.num("setup.open_retries", static_cast<double>(open_retries));
  return j.done();
}

}  // namespace

int main(int argc, char** argv) {
  const char* const prog = "perfbench";
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = -1;
  double scale = 1.0;
  std::size_t workers = kCells;
  bool setup_only = false;
  std::size_t setup_cell = 0;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&] {
      if (i + 1 >= argc) usage(std::string(argv[i]) + " needs a value");
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--workload") == 0) {
      const char* name = value();
      for (const Workload& cand : kWorkloads)
        if (std::strcmp(cand.name, name) == 0) w = &cand;
      if (w == nullptr) usage(std::string("unknown workload ") + name);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      seed = bench::parse_uint64(prog, "--seed", value());
      have_seed = true;
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      seconds = static_cast<double>(bench::parse_uint64(prog, "--seconds", value()));
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      workers = static_cast<std::size_t>(bench::parse_positive_long(prog, "--workers", value()));
    } else if (std::strcmp(argv[i], "--scale") == 0) {
      scale = bench::parse_positive_double(prog, "--scale", value());
    } else if (std::strcmp(argv[i], "--setup-only") == 0) {
      setup_only = true;
    } else if (std::strcmp(argv[i], "--cell") == 0) {
      setup_cell = static_cast<std::size_t>(bench::parse_uint64(prog, "--cell", value()));
    } else {
      usage(std::string("unknown flag ") + argv[i]);
    }
  }
  if (w == nullptr || !have_seed) usage("--workload and --seed are required");
  if (setup_only) {
    const OpenCell c = open_cell(*w, seed, setup_cell);
    std::printf("open\n");
    std::fflush(stdout);
    return 0;
  }
  if (seconds < 0) usage("--seconds is required");
  if (kTraced && !trace::check_boundaries()) return 3;

  shard::set_worker_count(workers);
  // Every round runs new cells (its own RNG streams), so the run pools
  // 4 x rounds distinct deployments.
  const auto rounds = static_cast<std::uint64_t>(std::max(1.0, std::round(seconds / w->round_s)));
  std::vector<CellResult> cells;
  std::vector<double> walls, shard_cpu, efficiency, straggler;
  for (std::uint64_t round = 0; round < rounds; ++round) {
    Round r = run_round(*w, scale, seed, round * kCells);
    walls.push_back(r.wall_s);
    double cell_cpu = 0;
    std::vector<double> cell_walls;
    for (const shard::CellStats& s : r.stats) {
      cell_cpu += s.cpu_s;
      cell_walls.push_back(s.wall_s);
    }
    shard_cpu.push_back(cell_cpu);
    efficiency.push_back(cell_cpu / (static_cast<double>(workers) * r.wall_s));
    straggler.push_back(*std::max_element(cell_walls.begin(), cell_walls.end()) /
                        median(cell_walls));
    for (CellResult& c : r.cells) cells.push_back(std::move(c));
  }

  // Outputs pooled over every cell of the run.
  std::vector<double> send_final, lc_update;
  std::uint64_t attempted = 0, delivered = 0, failed = 0, unfinalised = 0;
  double relayer_usd = 0, run_cpu_s = 0;
  bool clean = true;
  std::string digest_text, cell_digests, verdicts;
  std::set<std::uint64_t> distinct;
  for (const CellResult& c : cells) {
    send_final.insert(send_final.end(), c.send_final_s.begin(), c.send_final_s.end());
    lc_update.insert(lc_update.end(), c.lc_update_s.begin(), c.lc_update_s.end());
    for (const double s : c.send_final_s) unfinalised += std::isinf(s) ? 1 : 0;
    attempted += c.attempted;
    delivered += c.delivered;
    // Every packet of a cell whose audit is not clean counts as failed.
    failed += c.clean ? c.attempted - c.delivered : c.attempted;
    relayer_usd += c.relayer_usd;
    run_cpu_s += c.run_cpu_s;
    clean = clean && c.clean;
    verdicts += c.verdict;
    digest_text += hex64(c.digest);
    cell_digests += (cell_digests.empty() ? "\"" : ", \"") + hex64(c.digest) + "\"";
    distinct.insert(c.digest);
  }
  const double packets = static_cast<double>(std::max<std::uint64_t>(delivered, 1));

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  Json e2e;
  e2e.num("cpu_s_per_packet", run_cpu_s / packets)
      .num("wall_s", median(walls))
      .num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0)
      .num("send_final_p50_s", quantile(send_final, 0.50))
      .num("lc_update_p50_s", quantile(lc_update, 0.50))
      .num("lc_update_p90_s", quantile(lc_update, 0.90))
      .num("relayer_usd_per_packet", relayer_usd / packets);

  // Simulated-time figures with a heavy tail across seeds (validator
  // outages), reported beside the per-layer metrics.
  Json sim;
  sim.num("guest.send_final_p90_s", quantile(send_final, 0.90))
      .num("guest.send_final_samples", static_cast<double>(send_final.size()))
      .num("guest.send_unfinalised", static_cast<double>(unfinalised))
      .num("relayer.lc_update_samples", static_cast<double>(lc_update.size()))
      .num("shard.cpu_s", median(shard_cpu))
      .num("shard.parallel_efficiency", median(efficiency))
      .num("shard.straggler_ratio", median(straggler));

  Json out;
  out.str("workload", w->name)
      .num("seed", static_cast<double>(seed))
      .num("workers", static_cast<double>(workers))
      .num("scale", scale)
      .boolean("traced", kTraced)
      .num("rounds", static_cast<double>(rounds))
      .boolean("distinct_cells", distinct.size() == cells.size())
      .boolean("clean", clean)
      .str("verdict", verdicts)
      .str("digest", hex64(fnv1a(digest_text)))
      .raw("cell_digests", "[" + cell_digests + "]")
      .num("attempted", static_cast<double>(attempted))
      .num("delivered", static_cast<double>(delivered))
      .num("failed", static_cast<double>(failed))
      .raw("e2e", e2e.done())
      .raw("sim", sim.done());
  if (kTraced) out.raw("layers", layer_json(cells, static_cast<double>(rounds)));
  std::printf("%s\n", out.done().c_str());
  return 0;
}
