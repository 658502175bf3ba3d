// §V-D — Storage costs: the 10 MiB guest account, its rent-exempt
// deposit (~14.6 k$), how many key-value pairs fit (paper: >72k), and
// how the sealable trie keeps long-term usage bounded.
//
// A storage-growth vs seal-rate sweep reports the trie's nodes after
// inserting, live after sealing and freed, so sealing shows up as
// released nodes, not just smaller byte counters.  Scale it with
// --sweep-entries.
//
// Flags (all strictly validated; bad input exits 2):
//   --churn-packets N   packets in the sealing-churn section (default 200000)
//   --window N          in-flight window for the churn section (default 64)
//   --cadence-writes N  writes in the commit-cadence section (default 50000)
//   --per-block N       writes per block for the deferred cadence (default 128)
//   --sweep-entries N   entries per cell of the seal-rate sweep (default 1000000)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_common.hpp"
#include "ibc/commitment.hpp"
#include "parse.hpp"
#include "trie/trie.hpp"

namespace {

using namespace bmg;

Bytes sweep_key(std::uint64_t i) {
  Encoder e;
  e.u64(0xB3B3).u64(i);
  return e.take();
}

/// One cell of the sweep: N monotonic inserts (committed once per
/// 4096 writes, a block cadence), then a bulk seal of the oldest
/// fraction `seal_rate` — the window-pruning pattern, where history
/// behind the in-flight window is retired wholesale and every node
/// of the sealed region is freed.  Returns wall seconds; the node
/// count after the inserts goes to `inserted_nodes`.
double run_seal_rate_cell(trie::SealableTrie& t, std::size_t entries, double seal_rate,
                          std::size_t& inserted_nodes) {
  Hash32 v;
  v.bytes[0] = 9;
  const auto sealed = static_cast<std::uint64_t>(
      static_cast<double>(entries) * seal_rate);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < entries; ++i) {
    t.set(sweep_key(i), v);
    if ((i + 1) % 4096 == 0) t.commit();
  }
  t.commit();
  inserted_nodes = t.stats().node_count();
  for (std::uint64_t i = 0; i < sealed; ++i) {
    t.seal(sweep_key(i));
    if ((i + 1) % 4096 == 0) t.commit();
  }
  t.commit();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bmg;
  const char* prog = argv[0];
  std::size_t churn_packets = 200'000;
  std::size_t window = 64;
  std::size_t cadence_writes = 50'000;
  std::size_t per_block = 128;
  std::size_t sweep_entries = 1'000'000;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", prog, argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--churn-packets") == 0)
      churn_packets = static_cast<std::size_t>(
          bench::parse_positive_long(prog, "--churn-packets", next()));
    else if (std::strcmp(argv[i], "--window") == 0)
      window =
          static_cast<std::size_t>(bench::parse_positive_long(prog, "--window", next()));
    else if (std::strcmp(argv[i], "--cadence-writes") == 0)
      cadence_writes = static_cast<std::size_t>(
          bench::parse_positive_long(prog, "--cadence-writes", next()));
    else if (std::strcmp(argv[i], "--per-block") == 0)
      per_block = static_cast<std::size_t>(
          bench::parse_positive_long(prog, "--per-block", next()));
    else if (std::strcmp(argv[i], "--sweep-entries") == 0)
      sweep_entries = static_cast<std::size_t>(
          bench::parse_positive_long(prog, "--sweep-entries", next()));
    // Any other flag goes to bench::Args below, which reads none of the
    // shared ones.
  }

  const bench::Args args = bench::Args::parse(
      argc, argv, 0.0, 0,
      {"--churn-packets", "--window", "--cadence-writes", "--per-block",
       "--sweep-entries"});
  bench::print_header("Section V-D: storage costs", args);

  // Rent for the largest possible account.
  const std::uint64_t deposit = host::kRentLamportsPerByte * host::kMaxAccountSize;
  std::printf("10 MiB account rent-exempt deposit: %.0f USD  (paper: ~14.6 k$)\n\n",
              host::lamports_to_usd(deposit));

  // How many key-value pairs fit into 10 MiB of trie storage.
  trie::SealableTrie trie;
  Hash32 value;
  value.bytes[0] = 1;
  std::size_t pairs = 0;
  while (true) {
    const auto key =
        ibc::packet_key(ibc::KeyKind::kPacketReceipt, "transfer", "channel-0", pairs);
    trie.set(key, value);
    ++pairs;
    if (pairs % 4096 == 0 && trie.stats().byte_size > host::kMaxAccountSize) break;
  }
  std::printf("key-value pairs fitting in 10 MiB: %zu  (paper: >72k)\n", pairs);
  std::printf("  bytes per pair: %.1f   (leaves + amortized interior nodes)\n\n",
              static_cast<double>(trie.stats().byte_size) / static_cast<double>(pairs));

  // Long-term behaviour: with sealing, state tracks the in-flight
  // window instead of history.
  trie::SealableTrie churn;
  std::size_t peak = 0;
  for (std::size_t i = 0; i < churn_packets; ++i) {
    churn.set(ibc::packet_key(ibc::KeyKind::kPacketReceipt, "transfer", "channel-0",
                              i + 1),
              value);
    if (i + 1 > window)
      churn.seal(ibc::packet_key(ibc::KeyKind::kPacketReceipt, "transfer", "channel-0",
                                 i + 1 - window));
    peak = std::max(peak, churn.stats().byte_size);
  }
  std::printf("sealable trie under %zuk-packet churn (%zu in flight):\n",
              churn_packets / 1000, window);
  std::printf("  peak live storage: %zu bytes (%.4f%% of the 10 MiB account)\n", peak,
              100.0 * static_cast<double>(peak) /
                  static_cast<double>(host::kMaxAccountSize));
  std::printf("  => the account never grows with history; deposit is recoverable\n\n");

  // Commit cadence: Alg. 1 computes the state root once per guest
  // block, so trie writes between blocks can defer their hashing and
  // be batched.  Compare root-after-every-write (the eager model)
  // against root-once-per-block at a realistic packets-per-block rate.
  const auto timed = [&](std::size_t cadence) {
    trie::SealableTrie t;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < cadence_writes; ++i) {
      t.set(ibc::packet_key(ibc::KeyKind::kPacketCommitment, "transfer", "channel-0",
                            i + 1),
            value);
      if ((i + 1) % cadence == 0) t.commit();
    }
    (void)t.root_hash();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
  };
  const double eager_s = timed(1);
  const double deferred_s = timed(per_block);
  std::printf("state-root commit cadence over %zu packet writes:\n", cadence_writes);
  std::printf("  root after every write:      %.1f k writes/s\n",
              static_cast<double>(cadence_writes) / eager_s / 1e3);
  std::printf("  root once per %zu-write block: %.1f k writes/s  (%.1fx)\n", per_block,
              static_cast<double>(cadence_writes) / deferred_s / 1e3,
              eager_s / deferred_s);

  // --- Storage growth vs seal rate -------------------------------------
  //
  // Same insert stream at four seal rates.  The column to watch is
  // nodes freed: a sealed subtree's nodes are released, so reclamation
  // scales with the seal rate while the insert count stays flat.
  std::printf("\nstorage growth vs seal rate  (entries=%zu)\n", sweep_entries);
  std::printf("%10s %14s %12s %12s %12s %12s\n", "seal rate", "nodes inserted",
              "nodes live", "nodes freed", "live KiB", "ops/s");
  const double rates[] = {0.0, 0.50, 0.90, 0.99};
  for (const double r : rates) {
    trie::SealableTrie t;
    std::size_t inserted = 0;
    const double secs = run_seal_rate_cell(t, sweep_entries, r, inserted);
    const trie::TrieStats st = t.stats();
    const double ops = static_cast<double>(sweep_entries) * (1.0 + r);
    std::printf("%10.2f %14zu %12zu %12zu %12.1f %12.0f\n", r, inserted,
                st.node_count(), inserted - st.node_count(),
                static_cast<double>(st.byte_size) / 1024.0, ops / secs);
  }
  std::printf("  => nodes freed scales with the seal rate; live nodes (and hence\n"
              "     memory) track the unsealed window, not history.\n");
  return 0;
}
