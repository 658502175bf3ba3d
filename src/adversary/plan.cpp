#include "adversary/plan.hpp"

#include <algorithm>
#include <cstdio>

namespace bmg::adversary {

namespace {
bool window_open(const AdversaryWindow& w, double t) noexcept {
  return t >= w.start && t < w.end;
}
}  // namespace

const char* AdversaryCounters::csv_header() noexcept {
  return "equivocations,fork_signs,collusion_headers,fork_pushes_rejected,"
         "fork_pushes_accepted,forged_packet_mints,updates_clobbered,front_runs,"
         "acks_withheld,acks_released,stale_replays,spam_txs";
}

std::string AdversaryCounters::csv_row() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu",
                static_cast<unsigned long long>(equivocations),
                static_cast<unsigned long long>(fork_signs),
                static_cast<unsigned long long>(collusion_headers),
                static_cast<unsigned long long>(fork_pushes_rejected),
                static_cast<unsigned long long>(fork_pushes_accepted),
                static_cast<unsigned long long>(forged_packet_mints),
                static_cast<unsigned long long>(updates_clobbered),
                static_cast<unsigned long long>(front_runs),
                static_cast<unsigned long long>(acks_withheld),
                static_cast<unsigned long long>(acks_released),
                static_cast<unsigned long long>(stale_replays),
                static_cast<unsigned long long>(spam_txs));
  return buf;
}

AdversaryPlan& AdversaryPlan::equivocate(double start, double end, int validators,
                                         double rate) {
  AdversaryWindow w;
  w.kind = AdversaryKind::kEquivocate;
  w.start = start;
  w.end = end;
  w.agents = validators;
  w.rate = rate;
  windows_.push_back(w);
  return *this;
}

AdversaryPlan& AdversaryPlan::fork_sign(double start, double end, int validators,
                                        double rate) {
  AdversaryWindow w;
  w.kind = AdversaryKind::kForkSign;
  w.start = start;
  w.end = end;
  w.agents = validators;
  w.rate = rate;
  windows_.push_back(w);
  return *this;
}

AdversaryPlan& AdversaryPlan::collude(double start, double end, int members,
                                      double rate) {
  AdversaryWindow w;
  w.kind = AdversaryKind::kCollude;
  w.start = start;
  w.end = end;
  w.agents = members;
  w.rate = rate;
  windows_.push_back(w);
  return *this;
}

AdversaryPlan& AdversaryPlan::update_clobber(double start, double end) {
  AdversaryWindow w;
  w.kind = AdversaryKind::kUpdateClobber;
  w.start = start;
  w.end = end;
  windows_.push_back(w);
  return *this;
}

AdversaryPlan& AdversaryPlan::ack_withhold(double start, double end, double delay_s) {
  AdversaryWindow w;
  w.kind = AdversaryKind::kAckWithhold;
  w.start = start;
  w.end = end;
  w.delay_s = delay_s;
  windows_.push_back(w);
  return *this;
}

AdversaryPlan& AdversaryPlan::stale_replay(double start, double end, double rate) {
  AdversaryWindow w;
  w.kind = AdversaryKind::kStaleReplay;
  w.start = start;
  w.end = end;
  w.rate = rate;
  windows_.push_back(w);
  return *this;
}

AdversaryPlan& AdversaryPlan::fee_spam(double start, double end, double fee_multiplier,
                                       double inclusion_factor, double interval_s) {
  AdversaryWindow w;
  w.kind = AdversaryKind::kFeeSpam;
  w.start = start;
  w.end = end;
  w.fee_multiplier = fee_multiplier;
  w.inclusion_factor = inclusion_factor;
  w.interval_s = interval_s;
  windows_.push_back(w);
  return *this;
}

int AdversaryPlan::byzantine_validators() const noexcept {
  int n = 0;
  for (const auto& w : windows_)
    if (w.kind == AdversaryKind::kEquivocate || w.kind == AdversaryKind::kForkSign)
      n = std::max(n, w.agents);
  return n;
}

int AdversaryPlan::clique_size() const noexcept {
  int n = 0;
  for (const auto& w : windows_)
    if (w.kind == AdversaryKind::kCollude) n = std::max(n, w.agents);
  return n;
}

bool AdversaryPlan::has_griefing() const noexcept {
  return std::any_of(windows_.begin(), windows_.end(), [](const AdversaryWindow& w) {
    return w.kind == AdversaryKind::kUpdateClobber ||
           w.kind == AdversaryKind::kAckWithhold ||
           w.kind == AdversaryKind::kStaleReplay;
  });
}

bool AdversaryPlan::has_fee_attack() const noexcept {
  return std::any_of(windows_.begin(), windows_.end(), [](const AdversaryWindow& w) {
    return w.kind == AdversaryKind::kFeeSpam;
  });
}

double AdversaryPlan::rate_at(AdversaryKind kind, double t) const noexcept {
  double rate = 0.0;
  for (const auto& w : windows_)
    if (w.kind == kind && window_open(w, t)) rate = std::max(rate, w.rate);
  return rate;
}

bool AdversaryPlan::clobber_active(double t) const noexcept {
  return std::any_of(windows_.begin(), windows_.end(), [t](const AdversaryWindow& w) {
    return w.kind == AdversaryKind::kUpdateClobber && window_open(w, t);
  });
}

std::optional<double> AdversaryPlan::ack_withhold_delay(double t) const noexcept {
  for (const auto& w : windows_)
    if (w.kind == AdversaryKind::kAckWithhold && window_open(w, t)) return w.delay_s;
  return std::nullopt;
}

const AdversaryWindow* AdversaryPlan::fee_spam_window(double t) const noexcept {
  for (const auto& w : windows_)
    if (w.kind == AdversaryKind::kFeeSpam && window_open(w, t)) return &w;
  return nullptr;
}

std::optional<double> AdversaryPlan::next_window_start(AdversaryKind kind,
                                                       double t) const noexcept {
  std::optional<double> next;
  for (const auto& w : windows_) {
    if (w.kind != kind || w.start <= t) continue;
    if (!next || w.start < *next) next = w.start;
  }
  return next;
}

void AdversaryPlan::compile_host_faults(host::FaultPlan& plan) const {
  for (const auto& w : windows_) {
    if (w.kind != AdversaryKind::kFeeSpam) continue;
    // The market-wide effects of sustained fee pressure are chain
    // properties, so they ride on the PR 3 fault machinery: every
    // submitter pays the spiked fee floor and sees squeezed inclusion,
    // which is what forces the TxPipeline into bundle escalation.
    plan.fee_spike(w.start, w.end, w.fee_multiplier);
    if (w.inclusion_factor < 1.0) plan.congestion(w.start, w.end, w.inclusion_factor);
  }
}

}  // namespace bmg::adversary
