#include "ibc/bank.hpp"

namespace bmg::ibc {

void Bank::mint(const Account& to, const Denom& denom, std::uint64_t amount) {
  add_delta(undo_, balances_[{to, denom}], amount);
  add_delta(undo_, supply_[denom], amount);
}

void Bank::burn(const Account& from, const Denom& denom, std::uint64_t amount) {
  auto& bal = balances_[{from, denom}];
  if (bal < amount) throw IbcError("bank: insufficient balance to burn");
  add_delta(undo_, bal, 0 - amount);
  add_delta(undo_, supply_[denom], 0 - amount);
}

void Bank::transfer(const Account& from, const Account& to, const Denom& denom,
                    std::uint64_t amount) {
  auto& src = balances_[{from, denom}];
  if (src < amount) throw IbcError("bank: insufficient balance");
  add_delta(undo_, src, 0 - amount);
  add_delta(undo_, balances_[{to, denom}], amount);
}

std::uint64_t Bank::balance(const Account& who, const Denom& denom) const {
  const auto it = balances_.find({who, denom});
  return it == balances_.end() ? 0 : it->second;
}

std::uint64_t Bank::total_supply(const Denom& denom) const {
  const auto it = supply_.find(denom);
  return it == supply_.end() ? 0 : it->second;
}

}  // namespace bmg::ibc
