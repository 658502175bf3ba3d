#include "audit/auditor.hpp"

#include <sstream>

#include "ibc/transfer.hpp"

namespace bmg::audit {

void InvariantAuditor::start() {
  if (started_) return;
  started_ = true;
  // Both subscriptions run the checks inline inside the chains' own
  // event dispatch — no new simulation events, no RNG draws.
  host_.subscribe(guest::kProgramName, [this](const host::Event& ev) {
    if (ev.name == guest::GuestContract::kEvNewBlock ||
        ev.name == guest::GuestContract::kEvFinalisedBlock)
      check_now(std::string("guest:") + ev.name);
  });
  cp_.on_new_block([this](ibc::Height) { check_now("cp:block"); });
}

void InvariantAuditor::check_now(const std::string& trigger) {
  if (host_.fork_mode() && host_.fork_epoch() != last_fork_epoch_) {
    // A reorg rewound guest state: monotonicity baselines recorded on
    // the losing fork are void, and the rebuilt rooted-and-finalised
    // prefix is re-audited from the start.
    last_fork_epoch_ = host_.fork_epoch();
    prev_seqs_.clear();
    prev_guest_client_height_ = 0;
    prev_cp_client_height_ = 0;
    next_root_check_ = 1;
  }
  ++checks_run_;
  check_conservation(trigger);
  check_sequences(trigger);
  check_commit_roots(trigger);
  check_client_heights(trigger);
}

// --- invariant 1: conservation ----------------------------------------------

std::uint64_t InvariantAuditor::in_flight_value(const ibc::IbcModule& src,
                                                const ibc::IbcModule& dst,
                                                const ibc::PortId& port,
                                                const ibc::ChannelId& src_channel,
                                                const ibc::ChannelId& dst_channel,
                                                const std::string& denom) const {
  std::uint64_t sum = 0;
  for (const std::uint64_t seq : src.pending_send_sequences(port, src_channel)) {
    const ibc::Packet* p = src.sent_packet(port, src_channel, seq);
    if (p == nullptr) continue;
    ibc::TokenPacketData data;
    try {
      data = ibc::TokenPacketData::decode(p->data);
    } catch (...) {
      continue;  // not an ICS-20 packet
    }
    if (data.denom != denom) continue;
    // Value is settled on the destination only once the packet is both
    // received *and* acked successfully; an error ack means the funds
    // travel back (refund on ack delivery), so they still count.
    if (!dst.packet_received(port, dst_channel, seq)) {
      sum += data.amount;
      continue;
    }
    const auto ack = dst.ack_for(port, dst_channel, seq);
    if (!ack || !ack->success) sum += data.amount;
  }
  return sum;
}

void InvariantAuditor::check_conservation(const std::string& trigger) {
  for (const TransferLane& lane : lanes_) {
    const ibc::IbcModule& gm = guest_.ibc();
    const ibc::IbcModule& cm = cp_.ibc();
    struct Direction {
      const ibc::IbcModule& src;
      const ibc::IbcModule& dst;
      ibc::Bank& src_bank;
      ibc::Bank& dst_bank;
      const ibc::ChannelId& src_channel;
      const ibc::ChannelId& dst_channel;
      const std::string& native;
      const char* tag;
    };
    const Direction dirs[2] = {
        {gm, cm, guest_.bank(), cp_.bank(), lane.guest_channel, lane.cp_channel,
         lane.guest_native_denom, "guest->cp"},
        {cm, gm, cp_.bank(), guest_.bank(), lane.cp_channel, lane.guest_channel,
         lane.cp_native_denom, "cp->guest"},
    };
    for (const Direction& d : dirs) {
      if (d.native.empty()) continue;
      const std::string voucher =
          lane.port + "/" + d.dst_channel + "/" + d.native;
      const std::uint64_t escrowed = d.src_bank.balance(
          ibc::TokenTransferApp::escrow_account(d.src_channel), d.native);
      const std::uint64_t minted = d.dst_bank.total_supply(voucher);
      // Native tokens travelling outward...
      const std::uint64_t outbound = in_flight_value(
          d.src, d.dst, lane.port, d.src_channel, d.dst_channel, d.native);
      // ...and vouchers travelling home (burned at send, escrow not
      // yet released).
      const std::uint64_t returning = in_flight_value(
          d.dst, d.src, lane.port, d.dst_channel, d.src_channel, voucher);
      if (escrowed != minted + outbound + returning) {
        std::ostringstream os;
        os << d.tag << " " << d.native << ": escrowed " << escrowed
           << " != minted " << minted << " + outbound " << outbound
           << " + returning " << returning;
        record("conservation", os.str(), trigger);
      }
    }
  }
}

// --- invariant 2: sequence monotonicity -------------------------------------

void InvariantAuditor::check_sequences(const std::string& trigger) {
  const auto audit_module = [&](const ibc::IbcModule& m, const char* tag) {
    for (const auto& [port, channel] : m.channels()) {
      const auto s = m.sequences(port, channel);
      if (s.resolved_watermark >= s.next_send) {
        std::ostringstream os;
        os << tag << " " << port << "/" << channel << ": resolved watermark "
           << s.resolved_watermark << " overtook next_send " << s.next_send;
        record("sequence", os.str(), trigger);
      }
      const std::string key = std::string(tag) + "|" + port + "|" + channel;
      const auto it = prev_seqs_.find(key);
      if (it != prev_seqs_.end()) {
        const auto& p = it->second;
        const auto regressed = [&](const char* what, std::uint64_t prev,
                                   std::uint64_t cur) {
          if (cur >= prev) return;
          std::ostringstream os;
          os << tag << " " << port << "/" << channel << ": " << what
             << " regressed " << prev << " -> " << cur;
          record("sequence", os.str(), trigger);
        };
        regressed("next_send", p.next_send, s.next_send);
        regressed("resolved_watermark", p.resolved_watermark, s.resolved_watermark);
        regressed("receipts_watermark", p.receipts_watermark, s.receipts_watermark);
        regressed("acks_watermark", p.acks_watermark, s.acks_watermark);
      }
      prev_seqs_[key] = s;
    }
  };
  audit_module(guest_.ibc(), "guest");
  audit_module(cp_.ibc(), "cp");
}

// --- invariant 3: commitment-root consistency -------------------------------

void InvariantAuditor::check_commit_roots(const std::string& trigger) {
  // Guest blocks finalise strictly in height order, so a cursor over
  // the finalised prefix audits each block exactly once.
  while (next_root_check_ < guest_.block_count()) {
    const guest::GuestBlock& b = guest_.block_at(next_root_check_);
    if (!b.finalised) break;
    const auto snapshot = guest_.snapshot_root_at(next_root_check_);
    if (snapshot && *snapshot != b.header.state_root) {
      std::ostringstream os;
      os << "guest block " << next_root_check_
         << ": header state_root != retained trie snapshot root";
      record("commit-root", os.str(), trigger);
    }
    ++next_root_check_;
  }
}

// --- invariant 4: client-height no-regression -------------------------------

void InvariantAuditor::check_client_heights(const std::string& trigger) {
  const ibc::Height gh = guest_.counterparty_client().latest_height();
  if (gh < prev_guest_client_height_) {
    std::ostringstream os;
    os << "guest's counterparty client regressed " << prev_guest_client_height_
       << " -> " << gh;
    record("client-height", os.str(), trigger);
  }
  prev_guest_client_height_ = gh;

  if (!guest_client_on_cp_.empty()) {
    const ibc::Height ch = cp_.ibc().client(guest_client_on_cp_).latest_height();
    if (ch < prev_cp_client_height_) {
      std::ostringstream os;
      os << "cp's guest client regressed " << prev_cp_client_height_ << " -> " << ch;
      record("client-height", os.str(), trigger);
    }
    prev_cp_client_height_ = ch;
  }
}

// --- bookkeeping ------------------------------------------------------------

void InvariantAuditor::record(std::string invariant, std::string detail,
                              const std::string& trigger) {
  ++violations_total_;
  if (violations_.size() >= kMaxRecorded) return;
  violations_.push_back(
      Violation{std::move(invariant), std::move(detail), sim_.now(), trigger});
}

std::string InvariantAuditor::report() const {
  std::ostringstream os;
  os << violations_total_ << " violation(s) over " << checks_run_ << " check(s)";
  for (const Violation& v : violations_)
    os << "\n  [" << v.invariant << "] t=" << v.time << " (" << v.trigger << ") "
       << v.detail;
  return os.str();
}

Verdict InvariantAuditor::verdict(std::string label) const {
  Verdict v;
  v.label = std::move(label);
  v.checks = checks_run_;
  v.violations = violations_total_;
  if (violations_total_ != 0) v.report = report();
  return v;
}

std::string token_state_digest(const ibc::Bank& bank) {
  std::ostringstream os;
  for (const auto& [key, amount] : bank.balances()) {
    if (amount == 0) continue;  // emptied accounts are not state
    os << key.first << "|" << key.second << "=" << amount << ";";
  }
  os << "#";
  for (const auto& [denom, supply] : bank.supplies()) {
    if (supply == 0) continue;
    os << denom << "=" << supply << ";";
  }
  return os.str();
}

Verdict merge_verdicts(const std::vector<Verdict>& cells) {
  Verdict merged;
  for (const Verdict& v : cells) {
    merged.checks += v.checks;
    merged.violations += v.violations;
    if (v.report.empty()) continue;
    if (!merged.report.empty()) merged.report += "\n";
    merged.report += v.label.empty() ? v.report : v.label + ": " + v.report;
  }
  return merged;
}

}  // namespace bmg::audit
