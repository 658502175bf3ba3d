// Host-chain (Solana-like) runtime constants.
//
// These are the documented Solana limits the paper's §IV names as the
// constraints the Guest Contract had to engineer around, plus the fee
// constants used throughout the paper's evaluation (SOL = 200 USD,
// 0.1 cents per transaction and per signature).
#pragma once

#include <cstdint>

namespace bmg::host {

/// Maximum serialized transaction size in bytes (§IV).
inline constexpr std::size_t kMaxTransactionSize = 1232;

/// Maximum compute units a transaction may consume (§IV).
inline constexpr std::uint64_t kMaxComputeUnits = 1'400'000;

/// Compute units available per slot (block) for all transactions.
inline constexpr std::uint64_t kBlockComputeUnits = 48'000'000;

/// Largest possible account, 10 MiB (§V-D).
inline constexpr std::size_t kMaxAccountSize = 10ull * 1024 * 1024;

/// Slot (block) time in seconds — Solana's sub-second cadence.
inline constexpr double kSlotSeconds = 0.4;

inline constexpr std::uint64_t kLamportsPerSol = 1'000'000'000ull;

/// Evaluation's price assumption: 1 SOL = 200 USD (§V).
inline constexpr double kUsdPerSol = 200.0;

/// Base fee: 5000 lamports per signature = 0.1 cents at 200 USD/SOL,
/// matching §V-B ("0.1 cents per transaction and 0.1 per signature").
inline constexpr std::uint64_t kLamportsPerSignature = 5000;

/// Rent-exempt deposit per byte of account data.  2 years of Solana's
/// 3480 lamports/byte-year; 10 MiB => ~73 SOL ~= 14.6 k$ (§V-D).
inline constexpr std::uint64_t kRentLamportsPerByte = 6960;

/// Per-signature cost charged for Ed25519 pre-compile verification.
inline constexpr std::uint64_t kCuEd25519PerSig = 30'000;
/// Flat per-instruction dispatch cost.
inline constexpr std::uint64_t kCuInstructionBase = 1'000;

/// Serialized bytes per Ed25519 pre-compile verification entry:
/// 64-byte signature + 32-byte public key + offsets/header.
inline constexpr std::size_t kSigVerifyBytesOverhead = 112;

/// Fixed transaction envelope overhead (signature, header, blockhash,
/// account table) before instruction payloads.
inline constexpr std::size_t kTxEnvelopeBytes = 200;

/// Transactions expire when not included within this many slots
/// (Solana's recent-blockhash lifetime).
inline constexpr std::uint64_t kTxExpirySlots = 151;

[[nodiscard]] inline double lamports_to_usd(std::uint64_t lamports) {
  return static_cast<double>(lamports) / static_cast<double>(kLamportsPerSol) * kUsdPerSol;
}

[[nodiscard]] inline std::uint64_t usd_to_lamports(double usd) {
  return static_cast<std::uint64_t>(usd / kUsdPerSol * static_cast<double>(kLamportsPerSol));
}

}  // namespace bmg::host
