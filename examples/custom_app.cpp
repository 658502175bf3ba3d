// Writing a custom IBC application against the public API: a
// cross-chain governance module (one of the use cases motivating the
// paper's introduction).  A DAO on the counterparty chain sends
// parameter-change packets; a registry app bound to the "gov" port on
// the guest chain applies them, acknowledging success or failure.
//
//   $ ./examples/custom_app
#include <cstdio>
#include <map>

#include "relayer/deployment.hpp"

using namespace bmg;

namespace {

/// Packet payload: set `key` to `value`.
struct GovAction {
  std::string key;
  std::uint64_t value = 0;

  [[nodiscard]] Bytes encode() const {
    Encoder e;
    e.str(key).u64(value);
    return e.take();
  }
  [[nodiscard]] static GovAction decode(ByteView wire) {
    Decoder d(wire);
    GovAction a;
    a.key = d.str();
    a.value = d.u64();
    d.expect_done();
    return a;
  }
};

/// The guest-side app: a governed parameter registry.
class ParameterRegistry final : public ibc::IbcApp {
 public:
  explicit ParameterRegistry(ibc::IbcModule& module) { module.bind_port("gov", this); }

  ibc::Acknowledgement on_recv_packet(const ibc::Packet& packet) override {
    const GovAction action = GovAction::decode(packet.data);
    if (action.key.empty()) return ibc::Acknowledgement::fail("empty key");
    if (action.key == "frozen") return ibc::Acknowledgement::fail("parameter is immutable");
    params_[action.key] = action.value;
    std::printf("    [guest gov] set %-16s = %llu  (packet #%llu)\n",
                action.key.c_str(), (unsigned long long)action.value,
                (unsigned long long)packet.sequence);
    return ibc::Acknowledgement::ok();
  }
  void on_acknowledge(const ibc::Packet&, const ibc::Acknowledgement&) override {}
  void on_timeout(const ibc::Packet&) override {}

  [[nodiscard]] std::uint64_t get(const std::string& key) const {
    const auto it = params_.find(key);
    return it == params_.end() ? 0 : it->second;
  }

 private:
  std::map<std::string, std::uint64_t> params_;
};

/// The counterparty-side app: the DAO that issues proposals.
class Dao final : public ibc::IbcApp {
 public:
  Dao(ibc::IbcModule& module) : module_(module) { module.bind_port("gov", this); }

  void propose(const ibc::ChannelId& channel, const std::string& key,
               std::uint64_t value, double now) {
    const GovAction action{key, value};
    (void)module_.send_packet("gov", channel, action.encode(), 0, now + 3600.0);
    std::printf("    [dao] proposed %s = %llu\n", key.c_str(),
                (unsigned long long)value);
  }

  ibc::Acknowledgement on_recv_packet(const ibc::Packet&) override {
    return ibc::Acknowledgement::fail("dao receives nothing");
  }
  void on_acknowledge(const ibc::Packet& packet, const ibc::Acknowledgement& ack) override {
    const GovAction action = GovAction::decode(packet.data);
    std::printf("    [dao] proposal '%s' %s%s%s\n", action.key.c_str(),
                ack.success ? "ENACTED" : "REJECTED (",
                ack.success ? "" : ack.error.c_str(), ack.success ? "" : ")");
  }
  void on_timeout(const ibc::Packet& packet) override {
    std::printf("    [dao] proposal timed out (#%llu)\n",
                (unsigned long long)packet.sequence);
  }

 private:
  ibc::IbcModule& module_;
};

}  // namespace

int main() {
  std::printf("== custom IBC app: cross-chain governance over the guest chain ==\n\n");

  relayer::DeploymentConfig cfg;
  cfg.seed = 77;
  cfg.guest.delta_seconds = 60.0;
  for (int i = 0; i < 4; ++i) {
    relayer::ValidatorProfile p;
    p.name = "gov-val-" + std::to_string(i);
    p.stake = 100;
    p.latency = sim::LatencyProfile::from_quantiles(1.5, 2.5, 0.3);
    p.fee = host::FeePolicy::priority(1'000'000);
    cfg.validators.push_back(std::move(p));
  }
  cfg.counterparty.num_validators = 12;
  relayer::Deployment d(std::move(cfg));
  d.open_ibc();  // opens the "transfer" channel; we add a "gov" channel

  // Bind the custom apps on both chains.
  ParameterRegistry registry(d.guest().ibc());
  Dao dao(d.cp().ibc());

  // Open a second channel (port "gov") over the existing connection,
  // through the same guest-initiated handshake as "transfer".
  std::printf("opening a dedicated 'gov' channel...\n");
  const auto [gov_guest, gov_cp] = d.open_channel("gov");
  std::printf("gov channel open: cp %s <-> guest %s\n\n", gov_cp.c_str(),
              gov_guest.c_str());

  // --- governance in action --------------------------------------------
  dao.propose(gov_cp, "max_packet_bytes", 4096, d.sim().now());
  dao.propose(gov_cp, "fee_bps", 25, d.sim().now());
  dao.propose(gov_cp, "frozen", 1, d.sim().now());  // will be rejected

  if (!d.run_until([&] { return registry.get("fee_bps") == 25; }, 1800.0)) {
    std::printf("proposals did not land\n");
    return 1;
  }
  d.run_for(120.0);

  std::printf("\nfinal registry state on the guest chain:\n");
  std::printf("  max_packet_bytes = %llu\n",
              (unsigned long long)registry.get("max_packet_bytes"));
  std::printf("  fee_bps          = %llu\n", (unsigned long long)registry.get("fee_bps"));
  std::printf("  frozen           = %llu (proposal rejected by the app)\n",
              (unsigned long long)registry.get("frozen"));
  return 0;
}
