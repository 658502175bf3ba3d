// Test fixture: a light client that trusts whatever consensus states a
// test seeds into it, so the IBC module can be tested without a chain.
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <string>

#include "ibc/client.hpp"

namespace bmg::ibc {

/// Accepts pre-seeded consensus states without verification.
class TrustingLightClient final : public LightClient {
 public:
  void update(ByteView) override {
    throw IbcError("trusting client: use seed() in tests");
  }
  void seed(Height h, const ConsensusState& cs) {
    states_[h] = cs;
    latest_ = std::max(latest_, h);
  }
  [[nodiscard]] std::optional<ConsensusState> consensus_at(Height h) const override {
    const auto it = states_.find(h);
    if (it == states_.end()) return std::nullopt;
    return it->second;
  }
  [[nodiscard]] Height latest_height() const override { return latest_; }
  [[nodiscard]] std::string client_type() const override { return "trusting"; }

 private:
  std::map<Height, ConsensusState> states_;
  Height latest_ = 0;
};

}  // namespace bmg::ibc
