#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace bmg {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng r(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntInRange) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.uniform_int(17), 17u);
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng r(5);
  bool seen[7] = {};
  for (int i = 0; i < 1000; ++i) seen[r.uniform_int(7)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, NormalMoments) {
  Rng r(13);
  const int n = 200000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng r(17);
  const int n = 200000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += r.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, LognormalMedian) {
  // Median of lognormal(mu, sigma) is exp(mu).
  Rng r(19);
  const int n = 100001;
  std::vector<double> v(n);
  for (auto& x : v) x = r.lognormal(1.0, 0.5);
  std::nth_element(v.begin(), v.begin() + n / 2, v.end());
  EXPECT_NEAR(v[n / 2], std::exp(1.0), 0.1);
}

TEST(Rng, ChanceExtremes) {
  Rng r(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ForkIndependentStreams) {
  Rng parent(31);
  Rng child = parent.fork();
  // Child stream differs from parent's continuation.
  int same = 0;
  for (int i = 0; i < 50; ++i) same += (parent.next() == child.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, StreamSeedIsAPureFunction) {
  // Unlike fork(), stream splitting is stateless: the same (seed,
  // stream) pair always derives the same sub-seed, so grid cell i gets
  // the same RNG whether it runs first, last, or on another worker.
  EXPECT_EQ(stream_seed(42, 0), stream_seed(42, 0));
  EXPECT_EQ(stream_seed(42, 7), stream_seed(42, 7));
  EXPECT_NE(stream_seed(42, 0), stream_seed(42, 1));
  EXPECT_NE(stream_seed(42, 0), stream_seed(43, 0));
}

TEST(Rng, StreamSeedsPairwiseDistinct) {
  // No collisions across a realistic grid of (seed, stream) pairs, and
  // stream 0 must not degenerate to the base seed.
  std::set<std::uint64_t> seen;
  for (std::uint64_t seed : {0ull, 1ull, 42ull, 0xdeadbeefull}) {
    EXPECT_NE(stream_seed(seed, 0), seed);
    for (std::uint64_t stream = 0; stream < 64; ++stream)
      seen.insert(stream_seed(seed, stream));
  }
  EXPECT_EQ(seen.size(), 4u * 64u);
}

TEST(Rng, SplitMatchesStreamSeedConstruction) {
  Rng a = Rng::split(42, 5);
  Rng b(stream_seed(42, 5));
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SplitStreamsIndependent) {
  Rng a = Rng::split(42, 1);
  Rng b = Rng::split(42, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

}  // namespace
}  // namespace bmg
