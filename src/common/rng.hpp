// Deterministic random number generation for simulations.
//
// We implement xoshiro256** plus our own variate transforms (Box-Muller
// normal, inverse-CDF exponential) instead of <random> distributions so
// that streams are bit-identical across standard libraries — every
// evaluation harness prints its seed and is exactly reproducible.
#pragma once

#include <cstdint>

namespace bmg {

/// Deterministically derives the state seed of independent stream
/// `stream` of base `seed` (two splitmix64 rounds over the pair).
/// This is how grid runners split one user-facing seed into per-cell
/// streams: a cell's stream is a pure function of (seed, grid index),
/// so its transcript is identical whether the cell runs serially,
/// sharded, or alone — and unrelated to every sibling cell's stream.
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed,
                                        std::uint64_t stream) noexcept;

class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;

  /// The generator for stream `stream` of base `seed`; exactly
  /// Rng(stream_seed(seed, stream)).  Unlike fork(), splitting is
  /// stateless: it neither draws from nor perturbs any existing
  /// generator, so grid cells can derive their streams in any order
  /// (or concurrently) and always get the same sequences.
  [[nodiscard]] static Rng split(std::uint64_t seed, std::uint64_t stream) noexcept {
    return Rng(stream_seed(seed, stream));
  }

  /// Uniform 64-bit value.
  [[nodiscard]] std::uint64_t next() noexcept;

  /// Uniform in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Uniform in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n).  n must be > 0.
  [[nodiscard]] std::uint64_t uniform_int(std::uint64_t n) noexcept;

  /// Standard normal via Box-Muller (caches the second variate).
  [[nodiscard]] double normal() noexcept;

  /// Normal with given mean / stddev.
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  /// Log-normal: exp(N(mu, sigma)).
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept;

  /// Exponential with the given mean (inverse CDF).
  [[nodiscard]] double exponential(double mean) noexcept;

  /// Bernoulli with probability p.
  [[nodiscard]] bool chance(double p) noexcept;

  /// Derives an independent child stream (for per-agent RNGs).
  [[nodiscard]] Rng fork() noexcept;

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace bmg
