// Strict CLI parsing shared by every bench driver (PR 6 gave this to
// scenario_runner; PR 9 hoists it so the trie drivers reject bad input
// too).  std::atoi would silently return 0 and corrupt a run.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace bmg::bench {

inline long parse_positive_long(const char* prog, const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v <= 0) {
    std::fprintf(stderr, "%s: %s expects a positive integer, got '%s'\n", prog, flag,
                 text);
    std::exit(2);
  }
  return v;
}

/// Grids run 1–8 seeds; the cap turns a typo into an error instead of
/// an allocation failure or a silently truncated grid.
inline constexpr long kMaxSeeds = 10'000;

/// Seed count of a grid (`--seeds`, `--grid-seeds`): an integer in
/// [1, kMaxSeeds].
inline long parse_seed_count(const char* prog, const char* flag, const char* text) {
  const long v = parse_positive_long(prog, flag, text);
  if (v > kMaxSeeds) {
    std::fprintf(stderr, "%s: %s expects at most %ld, got '%s'\n", prog, flag, kMaxSeeds,
                 text);
    std::exit(2);
  }
  return v;
}

/// Strictly positive, finite decimal with the same rejection rules:
/// strtod also accepts "inf" and "nan", and a simulated horizon of
/// `inf` days never ends.
inline double parse_positive_double(const char* prog, const char* flag,
                                    const char* text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !(v > 0) || !std::isfinite(v)) {
    std::fprintf(stderr, "%s: %s expects a positive finite number, got '%s'\n", prog,
                 flag, text);
    std::exit(2);
  }
  return v;
}

/// Non-negative integer (seeds and counts where zero is meaningful).
inline unsigned long long parse_uint64(const char* prog, const char* flag,
                                       const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || text[0] == '-') {
    std::fprintf(stderr, "%s: %s expects a non-negative integer, got '%s'\n", prog,
                 flag, text);
    std::exit(2);
  }
  return v;
}

/// Non-negative decimal in [0, 1] (seal rates, fractions).
inline double parse_fraction(const char* prog, const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !(v >= 0.0) || v > 1.0) {
    std::fprintf(stderr, "%s: %s expects a fraction in [0,1], got '%s'\n", prog, flag,
                 text);
    std::exit(2);
  }
  return v;
}

}  // namespace bmg::bench
