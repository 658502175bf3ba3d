#include "common/rng.hpp"

#include <cmath>

namespace bmg {

namespace {
// splitmix64, used for seeding xoshiro state from a single 64-bit seed.
std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

constexpr double kPi = 3.14159265358979323846;
}  // namespace

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  // Mix the seed, fold the stream index into the advanced state, mix
  // again, then a final avalanche round: adjacent (seed, stream)
  // pairs land in unrelated regions of the seeding space.  Stateless
  // and order-independent by construction.
  std::uint64_t x = seed;
  std::uint64_t h = splitmix64(x);
  x += stream;
  h ^= splitmix64(x);
  std::uint64_t y = h;
  return splitmix64(y);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t n) noexcept {
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~0ULL - ~0ULL % n;
  std::uint64_t v;
  do {
    v = next();
  } while (v >= limit);
  return v % n;
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  cached_normal_ = r * std::sin(2.0 * kPi * u2);
  has_cached_normal_ = true;
  return r * std::cos(2.0 * kPi * u2);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

double Rng::exponential(double mean) noexcept {
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

bool Rng::chance(double p) noexcept { return uniform() < p; }

Rng Rng::fork() noexcept { return Rng(next() ^ 0xA5A5A5A5DEADBEEFULL); }

}  // namespace bmg
