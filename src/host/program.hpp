// The smart-contract execution interface of the host runtime.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/keys.hpp"
#include "host/constants.hpp"
#include "host/transaction.hpp"

namespace bmg::host {

/// Aborts the current transaction with a program-level error
/// (the contract "assert" of Alg. 1).
class TxError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Transaction exceeded its compute budget.
class ComputeBudgetExceeded : public TxError {
 public:
  ComputeBudgetExceeded() : TxError("compute budget exceeded") {}
};

/// Account data grew beyond the maximum account size.
class AccountSizeExceeded : public TxError {
 public:
  AccountSizeExceeded() : TxError("account size exceeded") {}
};

class Chain;

/// Per-transaction execution context handed to programs.  Provides
/// compute metering, the verified pre-compile signatures, event
/// emission and block introspection.
class TxContext {
 public:
  TxContext(Chain& chain, const Transaction& tx, std::uint64_t slot, double time,
            std::uint64_t max_cu = kMaxComputeUnits)
      : chain_(chain), tx_(tx), slot_(slot), time_(time), max_cu_(max_cu) {}

  /// Charges `n` compute units; throws ComputeBudgetExceeded past the cap.
  void consume_cu(std::uint64_t n) {
    cu_used_ += n;
    if (cu_used_ > max_cu_) throw ComputeBudgetExceeded();
  }
  [[nodiscard]] std::uint64_t cu_used() const noexcept { return cu_used_; }

  /// Signatures verified by the runtime's Ed25519 pre-compile before
  /// execution started.  Contracts trust these (Solana's instruction
  /// introspection pattern).
  [[nodiscard]] const std::vector<SigVerify>& verified_signatures() const noexcept {
    return tx_.sig_verifies;
  }

  [[nodiscard]] const crypto::PublicKey& payer() const noexcept { return tx_.payer; }
  [[nodiscard]] std::uint64_t slot() const noexcept { return slot_; }
  [[nodiscard]] double time() const noexcept { return time_; }

  /// Emits an on-chain event visible to off-chain agents.
  void emit_event(std::string name, Bytes data);

  /// Moves lamports from the payer to `to`; throws TxError on
  /// insufficient funds.
  void transfer_from_payer(const crypto::PublicKey& to, std::uint64_t lamports);

  /// Current lamport balance of an account (read-only).
  [[nodiscard]] std::uint64_t balance(const crypto::PublicKey& who) const;

  /// Program-initiated transfer between accounts the program controls
  /// (e.g. its stake vault).  Buffered and applied only if the
  /// transaction succeeds; throws TxError on insufficient funds.
  void transfer(const crypto::PublicKey& from, const crypto::PublicKey& to,
                std::uint64_t lamports);

 private:
  friend class Chain;
  Chain& chain_;
  const Transaction& tx_;
  std::uint64_t slot_;
  double time_;
  std::uint64_t max_cu_;
  std::uint64_t cu_used_ = 0;
};

/// A deployed smart contract.
class Program {
 public:
  virtual ~Program() = default;

  /// Executes one instruction.  Throw TxError (or derived) to abort
  /// the whole transaction.
  virtual void execute(TxContext& ctx, ByteView instruction_data) = 0;

  /// Serialized size of the program's account data; the runtime
  /// enforces kMaxAccountSize after every successful transaction.
  [[nodiscard]] virtual std::size_t account_bytes() const { return 0; }

  // --- fork/reorg support (host fork-aware mode) -----------------------
  /// Whether this program can be rolled back across a host fork.  A
  /// chain armed with reorg windows refuses to start with programs
  /// that cannot (Chain::start throws).
  [[nodiscard]] virtual bool fork_supported() const { return false; }
  /// Save an independent copy of all program state: transactions
  /// executed afterwards must not change it.  An armed chain calls this
  /// at Chain::start(), before any transaction executes, and again
  /// during every reorg once replay has brought the state to the newest
  /// rooted slot.
  virtual void fork_checkpoint() {}
  /// Restore the state saved by the last fork_checkpoint().  The chain
  /// then silently re-executes the journal behind the checkpoint and
  /// checkpoints again before it can roll back again, so this may move
  /// the saved state back instead of copying it.
  virtual void fork_rollback() {}
};

}  // namespace bmg::host
