// Counterparty (Tendermint-like) chain tests: block production,
// commits, historical proofs and validator-set properties.
#include "counterparty/chain.hpp"

#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

namespace bmg::counterparty {
namespace {

Config small_config() {
  Config cfg;
  cfg.num_validators = 8;
  cfg.block_interval_s = 6.0;
  cfg.background_state_keys = 64;
  return cfg;
}

TEST(Counterparty, ProducesBlocksOnSchedule) {
  sim::Simulation sim;
  CounterpartyChain chain(sim, Rng(1), small_config());
  chain.start();
  sim.run_until(60.0);
  EXPECT_EQ(chain.height(), 10u);  // 60 / 6
}

TEST(Counterparty, BlockCallbacksFire) {
  sim::Simulation sim;
  CounterpartyChain chain(sim, Rng(1), small_config());
  std::vector<ibc::Height> seen;
  chain.on_new_block([&](ibc::Height h) { seen.push_back(h); });
  chain.start();
  sim.run_until(30.0);
  EXPECT_EQ(seen, (std::vector<ibc::Height>{1, 2, 3, 4, 5}));
}

TEST(Counterparty, HeadersCarryQuorumCommits) {
  sim::Simulation sim;
  CounterpartyChain chain(sim, Rng(1), small_config());
  chain.start();
  sim.run_until(30.0);
  for (ibc::Height h = 1; h <= 5; ++h) {
    const ibc::SignedQuorumHeader& sh = chain.header_at(h);
    EXPECT_EQ(sh.header.height, h);
    EXPECT_EQ(sh.header.chain_id, "picasso-1");
    // Commit always reaches quorum and all signatures verify.
    EXPECT_GE(ibc::QuorumLightClient::verify_signatures(sh, chain.validators()),
              chain.validators().quorum_stake());
  }
}

TEST(Counterparty, HeadersFeedQuorumLightClient) {
  sim::Simulation sim;
  CounterpartyChain chain(sim, Rng(1), small_config());
  chain.start();
  sim.run_until(30.0);
  ibc::QuorumLightClient client(chain.chain_id(), chain.validators());
  for (ibc::Height h = 1; h <= 5; ++h) client.update(chain.header_at(h).encode());
  EXPECT_EQ(client.latest_height(), 5u);
}

TEST(Counterparty, HeaderAtUnknownHeightThrows) {
  sim::Simulation sim;
  CounterpartyChain chain(sim, Rng(1), small_config());
  chain.start();
  sim.run_until(12.0);
  EXPECT_THROW((void)chain.header_at(99), ibc::IbcError);
}

TEST(Counterparty, EvictedHeaderIsSignedAgainByteForByte) {
  // 160 validators span three words of the signer bitmap.  The digests
  // pin the signed headers to the chain that kept signer index lists.
  for (const auto& [validators, digest] :
       {std::pair<int, const char*>{8, "3e8a28047146e808"}, {160, "f95d69587d44048e"}}) {
    Config cfg = small_config();
    cfg.num_validators = validators;
    cfg.participation_min = 0.7;
    sim::Simulation sim;
    CounterpartyChain chain(sim, Rng(1), cfg);
    chain.start();
    sim.run_until(12.0);
    const ibc::Height h = chain.height();
    const Bytes first = chain.header_at(h).encode();
    EXPECT_EQ(crypto::Sha256::digest(first).hex().substr(0, 16), digest) << validators;
    // 300 more blocks push height h out of the 256-height header cache.
    sim.run_until(12.0 + 300 * cfg.block_interval_s);
    ASSERT_GE(chain.height(), h + 300);
    EXPECT_EQ(chain.header_at(h).encode(), first) << validators;
  }
}

TEST(Counterparty, HistoricalProofsMatchBlockRoots) {
  sim::Simulation sim;
  CounterpartyChain chain(sim, Rng(1), small_config());
  chain.start();
  sim.run_until(12.0);

  // Mutate the store after block 2; a proof at height 2 must verify
  // against block 2's root, not the live root.
  const ibc::Height h = chain.height();
  const Hash32 root_then = chain.header_at(h).header.state_root;
  const auto key = ibc::packet_key(ibc::KeyKind::kPacketReceipt, "transfer", "c", 1);
  chain.store().set(key, crypto::Sha256::digest(bytes_of("later")));
  ASSERT_NE(chain.store().root_hash(), root_then);

  const trie::Proof proof = chain.prove_at(h, key);
  EXPECT_EQ(trie::verify_proof(root_then, key, proof).kind,
            trie::VerifyOutcome::Kind::kAbsent);
}

TEST(Counterparty, BackgroundStateDeepensProofs) {
  sim::Simulation sim;
  Config no_bg = small_config();
  no_bg.background_state_keys = 0;
  Config big_bg = small_config();
  big_bg.background_state_keys = 4096;
  CounterpartyChain empty_chain(sim, Rng(1), no_bg);
  CounterpartyChain full_chain(sim, Rng(1), big_bg);

  const auto key = ibc::packet_key(ibc::KeyKind::kPacketCommitment, "transfer", "c", 1);
  empty_chain.store().set(key, crypto::Sha256::digest(bytes_of("v")));
  full_chain.store().set(key, crypto::Sha256::digest(bytes_of("v")));
  EXPECT_GT(full_chain.store().prove(key).byte_size(),
            empty_chain.store().prove(key).byte_size());
  // Realistic app state pushes IBC proofs to ~2 KB (drives the 4-5 tx
  // ReceivePacket splits of §V-A).
  EXPECT_GT(full_chain.store().prove(key).byte_size(), 1200u);
}

TEST(Counterparty, CommitSizesVary) {
  sim::Simulation sim;
  Config cfg = small_config();
  cfg.num_validators = 40;
  cfg.participation_min = 0.7;
  cfg.participation_max = 1.0;
  CounterpartyChain chain(sim, Rng(7), cfg);
  chain.start();
  sim.run_until(400.0);
  std::size_t min_sigs = 1000, max_sigs = 0;
  for (ibc::Height h = 1; h <= chain.height(); ++h) {
    const auto n = chain.header_at(h).signatures.size();
    min_sigs = std::min(min_sigs, n);
    max_sigs = std::max(max_sigs, n);
  }
  EXPECT_LT(min_sigs, max_sigs);  // the spread behind Figs. 4-5
}

}  // namespace
}  // namespace bmg::counterparty
