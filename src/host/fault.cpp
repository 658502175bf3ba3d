#include "host/fault.hpp"

#include <algorithm>

namespace bmg::host {

namespace {

bool label_matches(const FaultWindow& w, const std::string& label) {
  if (w.label_prefix.empty()) return true;
  return label.compare(0, w.label_prefix.size(), w.label_prefix) == 0;
}

bool active(const FaultWindow& w, double t) { return t >= w.start && t < w.end; }

}  // namespace

FaultPlan& FaultPlan::add(FaultWindow w) {
  if (w.kind == FaultKind::kReorg) {
    if (w.severity >= 1.0) ++reorg_windows_;  // depth-0 windows are inert
  } else if (w.kind <= FaultKind::kFeeSpike) {
    ++chain_windows_;
  }
  windows_.push_back(std::move(w));
  return *this;
}

FaultPlan& FaultPlan::append(const FaultPlan& other) {
  for (const FaultWindow& w : other.windows_) add(w);
  return *this;
}

FaultPlan& FaultPlan::congestion(double start, double end, double severity,
                                 std::string label_prefix) {
  return add({FaultKind::kCongestion, start, end, severity, 1.0,
              std::move(label_prefix)});
}

FaultPlan& FaultPlan::outage(double start, double end) {
  return add({FaultKind::kOutage, start, end, 0.0, 1.0, {}});
}

FaultPlan& FaultPlan::blackhole(double start, double end, double probability,
                                std::string label_prefix) {
  return add({FaultKind::kBlackhole, start, end, 1.0, probability,
              std::move(label_prefix)});
}

FaultPlan& FaultPlan::duplicate(double start, double end, double probability,
                                std::string label_prefix) {
  return add({FaultKind::kDuplicate, start, end, 1.0, probability,
              std::move(label_prefix)});
}

FaultPlan& FaultPlan::fee_spike(double start, double end, double multiplier) {
  return add({FaultKind::kFeeSpike, start, end, multiplier, 1.0, {}});
}

FaultPlan& FaultPlan::crash(double start, double end, std::string agent) {
  return add({FaultKind::kCrash, start, end, 1.0, 1.0, std::move(agent)});
}

FaultPlan& FaultPlan::reorg(double start, double end, std::uint64_t max_depth,
                            double probability, double survival,
                            std::string label_prefix) {
  return add({FaultKind::kReorg, start, end, static_cast<double>(max_depth),
              probability, std::move(label_prefix), survival});
}

FaultPlan& FaultPlan::equivocate(double start, double end, int validators,
                                 double rate) {
  return add({FaultKind::kEquivocate, start, end, 1.0, rate, {}, 1.0, validators});
}

FaultPlan& FaultPlan::fork_sign(double start, double end, int validators, double rate) {
  return add({FaultKind::kForkSign, start, end, 1.0, rate, {}, 1.0, validators});
}

FaultPlan& FaultPlan::collude(double start, double end, int members, double rate) {
  return add({FaultKind::kCollude, start, end, 1.0, rate, {}, 1.0, members});
}

FaultPlan& FaultPlan::update_clobber(double start, double end) {
  return add({FaultKind::kUpdateClobber, start, end, 1.0, 1.0, {}});
}

FaultPlan& FaultPlan::ack_withhold(double start, double end, double delay_s) {
  return add({FaultKind::kAckWithhold, start, end, 1.0, 1.0, {}, 1.0, 1, delay_s});
}

FaultPlan& FaultPlan::stale_replay(double start, double end, double rate) {
  return add({FaultKind::kStaleReplay, start, end, 1.0, rate, {}});
}

FaultPlan& FaultPlan::fee_spam(double start, double end, double fee_multiplier,
                               double inclusion_factor, double interval_s) {
  add({FaultKind::kFeeSpam, start, end, fee_multiplier, 1.0, {}, 1.0, 1, interval_s});
  // The market-wide effects of sustained fee pressure are chain
  // properties: every submitter pays the spiked fee floor and sees
  // squeezed inclusion, which is what forces the TxPipeline into
  // bundle escalation.
  fee_spike(start, end, fee_multiplier);
  if (inclusion_factor < 1.0) congestion(start, end, inclusion_factor);
  return *this;
}

std::vector<FaultWindow> FaultPlan::crash_windows() const {
  std::vector<FaultWindow> out;
  for (const auto& w : windows_)
    if (w.kind == FaultKind::kCrash) out.push_back(w);
  return out;
}

double FaultPlan::rate_at(FaultKind kind, double t) const noexcept {
  double rate = 0.0;
  for (const auto& w : windows_)
    if (w.kind == kind && active(w, t)) rate = std::max(rate, w.probability);
  return rate;
}

const FaultWindow* FaultPlan::open_window(FaultKind kind, double t) const noexcept {
  for (const auto& w : windows_)
    if (w.kind == kind && active(w, t)) return &w;
  return nullptr;
}

std::optional<double> FaultPlan::next_window_start(FaultKind kind,
                                                   double t) const noexcept {
  std::optional<double> next;
  for (const auto& w : windows_) {
    if (w.kind != kind || w.start <= t) continue;
    if (!next || w.start < *next) next = w.start;
  }
  return next;
}

int FaultPlan::max_agents(FaultKind kind) const noexcept {
  int n = 0;
  for (const auto& w : windows_)
    if (w.kind == kind) n = std::max(n, w.agents);
  return n;
}

bool FaultPlan::has(FaultKind kind) const noexcept {
  return std::any_of(windows_.begin(), windows_.end(),
                     [kind](const FaultWindow& w) { return w.kind == kind; });
}

double FaultPlan::congestion_multiplier(double t, const std::string& label) const {
  double m = 1.0;
  for (const auto& w : windows_)
    if (w.kind == FaultKind::kCongestion && active(w, t) && label_matches(w, label))
      m *= w.severity;
  return m;
}

bool FaultPlan::in_outage(double t) const {
  for (const auto& w : windows_)
    if (w.kind == FaultKind::kOutage && active(w, t)) return true;
  return false;
}

double FaultPlan::blackhole_probability(double t, const std::string& label) const {
  double p_none = 1.0;
  for (const auto& w : windows_)
    if (w.kind == FaultKind::kBlackhole && active(w, t) && label_matches(w, label))
      p_none *= 1.0 - w.probability;
  return 1.0 - p_none;
}

double FaultPlan::duplicate_probability(double t, const std::string& label) const {
  double p_none = 1.0;
  for (const auto& w : windows_)
    if (w.kind == FaultKind::kDuplicate && active(w, t) && label_matches(w, label))
      p_none *= 1.0 - w.probability;
  return 1.0 - p_none;
}

double FaultPlan::fee_multiplier(double t) const {
  double m = 1.0;
  for (const auto& w : windows_)
    if (w.kind == FaultKind::kFeeSpike && active(w, t)) m *= w.severity;
  return m;
}

double FaultPlan::reorg_probability(double t) const {
  double p_none = 1.0;
  for (const auto& w : windows_)
    if (w.kind == FaultKind::kReorg && w.severity >= 1.0 && active(w, t))
      p_none *= 1.0 - w.probability;
  return 1.0 - p_none;
}

std::uint64_t FaultPlan::reorg_max_depth(double t) const {
  std::uint64_t depth = 0;
  for (const auto& w : windows_)
    if (w.kind == FaultKind::kReorg && active(w, t))
      depth = std::max(depth, static_cast<std::uint64_t>(w.severity));
  return depth;
}

double FaultPlan::reorg_survival(double t, const std::string& label) const {
  double s = 1.0;
  for (const auto& w : windows_)
    if (w.kind == FaultKind::kReorg && w.severity >= 1.0 && active(w, t) &&
        label_matches(w, label))
      s *= w.survival;
  return s;
}

}  // namespace bmg::host
