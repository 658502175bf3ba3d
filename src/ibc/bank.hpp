// Minimal multi-denomination bank ledger used by the ICS-20 transfer
// app (escrow / mint / burn semantics).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "ibc/types.hpp"

namespace bmg::ibc {

class Bank {
 public:
  using Denom = std::string;
  using Account = std::string;

  void mint(const Account& to, const Denom& denom, std::uint64_t amount);
  /// Throws IbcError on insufficient balance.
  void burn(const Account& from, const Denom& denom, std::uint64_t amount);
  /// Throws IbcError on insufficient balance.
  void transfer(const Account& from, const Account& to, const Denom& denom,
                std::uint64_t amount);

  [[nodiscard]] std::uint64_t balance(const Account& who, const Denom& denom) const;
  [[nodiscard]] std::uint64_t total_supply(const Denom& denom) const;

  /// Full ledger views, for convergence digests.
  [[nodiscard]] const std::map<std::pair<Account, Denom>, std::uint64_t>& balances()
      const noexcept {
    return balances_;
  }
  [[nodiscard]] const std::map<Denom, std::uint64_t>& supplies() const noexcept {
    return supply_;
  }

 private:
  std::map<std::pair<Account, Denom>, std::uint64_t> balances_;
  std::map<Denom, std::uint64_t> supply_;
};

}  // namespace bmg::ibc
