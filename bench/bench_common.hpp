// Shared setup for the evaluation harnesses: the paper-configured
// deployment (Table I validator roster, Δ = 1 h, mixed client fee
// policies) and Poisson workload drivers.
//
// Every binary prints its seed and is exactly reproducible.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>

#include "common/shard_pool.hpp"
#include "parse.hpp"
#include "relayer/deployment.hpp"

namespace bmg::bench {

/// Command-line knobs shared by the harnesses:
///   --days N           simulated days (default varies per bench)
///   --seed N           RNG seed (default 42)
///   --shard-workers W  shard-pool workers for grid-capable drivers
///                      (default: BMG_SHARD_WORKERS or hardware)
///   --grid-seeds N     figure drivers: run an N-seed grid (N ≤
///                      kMaxSeeds) instead of the single classic run
///   --timing-csv PATH  write per-cell wall/CPU timing rows to PATH
///                      (timing is never part of the stdout artifact)
/// Each driver names the ones it reads; any other exits 2.
struct Args {
  enum Flag : unsigned {
    kDays = 1u << 0,
    kSeed = 1u << 1,
    kShardWorkers = 1u << 2,
    kGridSeeds = 1u << 3,
    kTimingCsv = 1u << 4,
    /// A single deployment: fig3–fig5, table1.
    kSingleRun = kDays | kSeed,
    /// A grid of cells on the shard pool.
    kGrid = kSingleRun | kShardWorkers | kTimingCsv,
  };

  double days = 0;
  std::uint64_t seed = 42;
  long grid_seeds = 0;
  const char* timing_csv = nullptr;

  /// Strict parsing: malformed values, unknown flags and shared flags
  /// outside `reads` (a mask of Flag bits) exit 2 instead of silently
  /// running a configuration the caller did not ask for.  Drivers with
  /// their own flag loops list those flags in `extra_value_flags` (each
  /// takes exactly one value, which is skipped here).
  static Args parse(int argc, char** argv, double default_days, unsigned reads,
                    std::initializer_list<const char*> extra_value_flags = {}) {
    Args a;
    a.days = default_days;
    const char* prog = argc > 0 ? argv[0] : "bench";
    for (int i = 1; i < argc; ++i) {
      const auto value = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "%s: %s needs a value\n", prog, argv[i]);
          std::exit(2);
        }
        return argv[++i];
      };
      const auto shared = [&](const char* flag, Flag bit) {
        if (std::strcmp(argv[i], flag) != 0) return false;
        if ((reads & bit) == 0) {
          std::fprintf(stderr, "%s: %s does not apply to this driver\n", prog, flag);
          std::exit(2);
        }
        return true;
      };
      if (shared("--days", kDays))
        a.days = parse_positive_double(prog, "--days", value());
      else if (shared("--seed", kSeed))
        a.seed = static_cast<std::uint64_t>(parse_uint64(prog, "--seed", value()));
      else if (shared("--shard-workers", kShardWorkers))
        shard::set_worker_count(static_cast<std::size_t>(
            parse_positive_long(prog, "--shard-workers", value())));
      else if (shared("--grid-seeds", kGridSeeds))
        a.grid_seeds = parse_seed_count(prog, "--grid-seeds", value());
      else if (shared("--timing-csv", kTimingCsv))
        a.timing_csv = value();
      else {
        bool extra = false;
        for (const char* f : extra_value_flags)
          if (std::strcmp(argv[i], f) == 0) {
            extra = true;
            break;
          }
        if (extra) {
          (void)value();  // the driver's own loop validated it
          continue;
        }
        std::fprintf(stderr, "%s: unknown flag '%s'\n", prog, argv[i]);
        std::exit(2);
      }
    }
    return a;
  }
};

/// The paper's deployment configuration (§IV-§V): 24 validators with
/// Table I profiles, Δ = 1 h, 12-hour epochs (disabled by default for
/// run-length control), and a counterparty whose commits force ~36-tx
/// light client updates.
inline relayer::DeploymentConfig paper_config(std::uint64_t seed) {
  relayer::DeploymentConfig cfg;
  cfg.seed = seed;
  cfg.guest.delta_seconds = 3600.0;           // Δ = 1 h
  cfg.guest.epoch_length_host_slots = 1'000'000'000;  // no rotation unless asked
  cfg.validators = relayer::paper_validators();
  cfg.counterparty.num_validators = 160;
  cfg.counterparty.participation_min = 0.70;
  cfg.counterparty.participation_max = 1.00;
  cfg.counterparty.block_interval_s = 6.0;
  cfg.relayer.sigs_per_update_tx = 4;
  return cfg;
}

/// Client fee policies of §V-A: 17% priority fees (~1.40 USD), 83%
/// Jito-style bundles (~3.02 USD).
inline host::FeePolicy sample_client_fee(Rng& rng) {
  if (rng.chance(0.17)) {
    // Send transaction uses ~61k CU.
    return relayer::priority_fee_for_usd(1.40, 61'000);
  }
  return host::FeePolicy::bundle(host::usd_to_lamports(3.02 - 0.001));
}

/// Schedules Poisson guest->counterparty transfers with the given mean
/// inter-arrival time, recording each SendRecord.
class GuestSendWorkload {
 public:
  GuestSendWorkload(relayer::Deployment& d, double mean_interarrival_s, double until)
      : d_(d), mean_(mean_interarrival_s), until_(until), rng_(d.rng().fork()) {
    schedule_next();
  }

  [[nodiscard]] const std::vector<std::shared_ptr<relayer::Deployment::SendRecord>>&
  records() const {
    return records_;
  }

 private:
  void schedule_next() {
    const double at = d_.sim().now() + rng_.exponential(mean_);
    if (at > until_) return;
    d_.sim().at(at, [this] {
      records_.push_back(d_.send_transfer_from_guest(100, sample_client_fee(rng_)));
      schedule_next();
    });
  }

  relayer::Deployment& d_;
  double mean_;
  double until_;
  Rng rng_;
  std::vector<std::shared_ptr<relayer::Deployment::SendRecord>> records_;
};

/// Schedules Poisson counterparty->guest transfers.
class CpSendWorkload {
 public:
  CpSendWorkload(relayer::Deployment& d, double mean_interarrival_s, double until)
      : d_(d), mean_(mean_interarrival_s), until_(until), rng_(d.rng().fork()) {
    schedule_next();
  }

  [[nodiscard]] int sent() const { return sent_; }

 private:
  void schedule_next() {
    const double at = d_.sim().now() + rng_.exponential(mean_);
    if (at > until_) return;
    d_.sim().at(at, [this] {
      (void)d_.send_transfer_from_cp(10);
      ++sent_;
      schedule_next();
    });
  }

  relayer::Deployment& d_;
  double mean_;
  double until_;
  Rng rng_;
  int sent_ = 0;
};

inline void print_header(const char* title, const Args& args) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("seed=%llu  simulated_days=%.2f\n",
              static_cast<unsigned long long>(args.seed), args.days);
  std::printf("==============================================================\n");
}

}  // namespace bmg::bench
