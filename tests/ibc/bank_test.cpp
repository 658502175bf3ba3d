#include "ibc/bank.hpp"

#include <gtest/gtest.h>

namespace bmg::ibc {
namespace {

TEST(Bank, MintAndBalance) {
  Bank b;
  b.mint("alice", "SOL", 100);
  EXPECT_EQ(b.balance("alice", "SOL"), 100u);
  EXPECT_EQ(b.total_supply("SOL"), 100u);
  EXPECT_EQ(b.balance("alice", "PICA"), 0u);
  EXPECT_EQ(b.balance("bob", "SOL"), 0u);
}

TEST(Bank, TransferMovesFunds) {
  Bank b;
  b.mint("alice", "SOL", 100);
  b.transfer("alice", "bob", "SOL", 40);
  EXPECT_EQ(b.balance("alice", "SOL"), 60u);
  EXPECT_EQ(b.balance("bob", "SOL"), 40u);
  EXPECT_EQ(b.total_supply("SOL"), 100u);  // conserved
}

TEST(Bank, TransferInsufficientThrows) {
  Bank b;
  b.mint("alice", "SOL", 10);
  EXPECT_THROW(b.transfer("alice", "bob", "SOL", 11), IbcError);
  EXPECT_EQ(b.balance("alice", "SOL"), 10u);
}

TEST(Bank, BurnReducesSupply) {
  Bank b;
  b.mint("alice", "SOL", 100);
  b.burn("alice", "SOL", 30);
  EXPECT_EQ(b.balance("alice", "SOL"), 70u);
  EXPECT_EQ(b.total_supply("SOL"), 70u);
}

TEST(Bank, BurnInsufficientThrows) {
  Bank b;
  EXPECT_THROW(b.burn("alice", "SOL", 1), IbcError);
}

TEST(Bank, DenomsAreIndependent) {
  Bank b;
  b.mint("alice", "SOL", 5);
  b.mint("alice", "transfer/channel-0/SOL", 7);
  EXPECT_EQ(b.balance("alice", "SOL"), 5u);
  EXPECT_EQ(b.balance("alice", "transfer/channel-0/SOL"), 7u);
  EXPECT_EQ(b.total_supply("SOL"), 5u);
}

TEST(Bank, SelfTransferIsIdempotent) {
  Bank b;
  b.mint("alice", "SOL", 10);
  b.transfer("alice", "alice", "SOL", 10);
  EXPECT_EQ(b.balance("alice", "SOL"), 10u);
}

TEST(Bank, RecordedWritesUnwindAsDeltas) {
  // A mint made while no transaction records survives the unwinding of
  // the recorded writes around it.
  Bank b;
  b.mint("alice", "SOL", 100);
  UndoRecorder undo;
  UndoRecorder::Log log;
  b.set_undo(&undo);
  undo.open(log, 1);
  b.mint("bob", "SOL", 30);
  b.transfer("alice", "bob", "SOL", 40);
  b.burn("bob", "SOL", 50);
  undo.close();
  b.mint("alice", "SOL", 7);
  log.unwind();
  EXPECT_EQ(b.balance("alice", "SOL"), 107u);
  EXPECT_EQ(b.balance("bob", "SOL"), 0u);
  EXPECT_EQ(b.total_supply("SOL"), 107u);
}

}  // namespace
}  // namespace bmg::ibc
