#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace bmg {

void Series::ensure_sorted() const {
  if (!sorted_valid_ || sorted_.size() != samples_.size()) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double Series::min() const {
  if (empty()) throw std::logic_error("Series::min on empty series");
  ensure_sorted();
  return sorted_.front();
}

double Series::max() const {
  if (empty()) throw std::logic_error("Series::max on empty series");
  ensure_sorted();
  return sorted_.back();
}

double Series::mean() const {
  if (empty()) throw std::logic_error("Series::mean on empty series");
  double sum = 0;
  for (double v : samples_) sum += v;
  return sum / static_cast<double>(samples_.size());
}

double Series::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0;
  for (double v : samples_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double Series::quantile(double q) const {
  if (empty()) throw std::logic_error("Series::quantile on empty series");
  ensure_sorted();
  if (q <= 0) return sorted_.front();
  if (q >= 1) return sorted_.back();
  const double pos = q * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted_.size()) return sorted_.back();
  return sorted_[lo] * (1 - frac) + sorted_[lo + 1] * frac;
}

double Series::cdf_at(double x) const {
  if (empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

double pearson(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2)
    throw std::invalid_argument("pearson: need two equally-long series, n >= 2");
  const auto n = static_cast<double>(x.size());
  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / n, my = sy / n;
  double num = 0, dx = 0, dy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    num += (x[i] - mx) * (y[i] - my);
    dx += (x[i] - mx) * (x[i] - mx);
    dy += (y[i] - my) * (y[i] - my);
  }
  if (dx == 0 || dy == 0) return 0.0;
  return num / std::sqrt(dx * dy);
}

std::string render_cdf(const Series& s, int points, const std::string& x_label) {
  if (s.empty()) return "  (no samples)\n";
  std::string out = "  " + x_label + "        CDF\n";
  char line[128];
  for (int i = 1; i <= points; ++i) {
    const double q = static_cast<double>(i) / points;
    std::snprintf(line, sizeof line, "  %10.3f  %6.4f\n", s.quantile(q), q);
    out += line;
  }
  return out;
}

std::string render_histogram(const Series& s, int bins, const std::string& x_label) {
  if (s.empty()) return "  (no samples)\n";
  const double lo = s.min();
  const double hi = s.max();
  const double width = (hi - lo) / bins > 0 ? (hi - lo) / bins : 1.0;
  std::vector<std::size_t> counts(static_cast<std::size_t>(bins), 0);
  for (double v : s.samples()) {
    auto b = static_cast<std::size_t>((v - lo) / width);
    if (b >= counts.size()) b = counts.size() - 1;
    ++counts[b];
  }
  const std::size_t peak = *std::max_element(counts.begin(), counts.end());
  std::string out = "  " + x_label + " histogram (" + std::to_string(s.count()) + " samples)\n";
  char line[192];
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const double left = lo + width * static_cast<double>(b);
    const int bar = peak == 0 ? 0 : static_cast<int>(50.0 * static_cast<double>(counts[b]) /
                                                     static_cast<double>(peak));
    std::snprintf(line, sizeof line, "  [%10.3f, %10.3f) %7zu |%s\n", left, left + width,
                  counts[b], std::string(static_cast<std::size_t>(bar), '#').c_str());
    out += line;
  }
  return out;
}

std::string render_quantile_row(const Series& s) {
  char line[256];
  std::snprintf(line, sizeof line, "%8.1f %8.1f %8.1f %8.1f %10.1f %8.1f %9.1f", s.min(),
                s.quantile(0.25), s.quantile(0.5), s.quantile(0.75), s.max(), s.mean(),
                s.stddev());
  return line;
}

}  // namespace bmg
