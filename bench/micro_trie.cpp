// Micro-benchmarks of the sealable trie: insert/lookup/seal and proof
// generation/verification costs, proof sizes (what a relayer pays to
// ship in transaction bytes), inserts at a block cadence, the
// per-block snapshot publish and batch proving against a published
// snapshot.
#include <benchmark/benchmark.h>

#include <vector>

#include "crypto/sha256.hpp"
#include "trie/snapshot.hpp"
#include "trie/trie.hpp"

namespace {

using namespace bmg;

Bytes key_of(std::uint64_t i) {
  Encoder e;
  e.u64(0x1234).u64(i);
  return e.take();
}

trie::SealableTrie prefilled(std::uint64_t n) {
  trie::SealableTrie t;
  Hash32 v;
  v.bytes[0] = 1;
  for (std::uint64_t i = 0; i < n; ++i) t.set(key_of(i), v);
  return t;
}

void BM_TrieInsert(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  Hash32 v;
  v.bytes[0] = 1;
  for (auto _ : state) {
    trie::SealableTrie t;
    for (std::uint64_t i = 0; i < n; ++i) t.set(key_of(i), v);
    benchmark::DoNotOptimize(t.root_hash());
  }
  // Report per-insert cost.
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_TrieInsert)->Arg(100)->Arg(1000)->Arg(10000);

void BM_TrieBatchCommit(benchmark::State& state) {
  // The deferred-commit path in isolation: n sets accumulate dirty
  // refs, then one commit() hashes the whole batch (Alg. 1's per-block
  // root computation).
  const auto n = static_cast<std::uint64_t>(state.range(0));
  Hash32 v;
  v.bytes[0] = 1;
  for (auto _ : state) {
    trie::SealableTrie t;
    for (std::uint64_t i = 0; i < n; ++i) t.set(key_of(i), v);
    t.commit();
    benchmark::DoNotOptimize(t.root_hash());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_TrieBatchCommit)->Arg(1000)->Arg(10000);

void BM_TrieSingleSetRoot(benchmark::State& state) {
  // The latency floor: one set() followed immediately by root_hash()
  // on an already-committed trie — the workload where deferral buys
  // nothing and must cost nothing.
  const auto n = static_cast<std::uint64_t>(state.range(0));
  trie::SealableTrie t = prefilled(n);
  benchmark::DoNotOptimize(t.root_hash());
  Hash32 v;
  std::uint64_t i = n;
  for (auto _ : state) {
    v.bytes[0] = static_cast<std::uint8_t>(i);
    t.set(key_of(i++), v);
    benchmark::DoNotOptimize(t.root_hash());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TrieSingleSetRoot)->Arg(1000);

void BM_TrieLookup(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const trie::SealableTrie t = prefilled(n);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.get(key_of(i++ % n)));
  }
}
BENCHMARK(BM_TrieLookup)->Arg(1000)->Arg(100000);

void BM_TrieSeal(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  Hash32 v;
  v.bytes[0] = 1;
  for (auto _ : state) {
    state.PauseTiming();
    trie::SealableTrie t = prefilled(n);
    state.ResumeTiming();
    // Seal the oldest half (contiguous prefix, newest kept live).
    for (std::uint64_t i = 0; i < n / 2; ++i) t.seal(key_of(i));
    benchmark::DoNotOptimize(t.stats());
  }
}
BENCHMARK(BM_TrieSeal)->Arg(1000);

void BM_TrieProve(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const trie::SealableTrie t = prefilled(n);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.prove(key_of(i++ % n)));
  }
}
BENCHMARK(BM_TrieProve)->Arg(1000)->Arg(100000);

void BM_TrieVerifyProof(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const trie::SealableTrie t = prefilled(n);
  const Bytes key = key_of(n / 2);
  const trie::Proof proof = t.prove(key);
  const Hash32 root = t.root_hash();
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie::verify_proof(root, key, proof));
  }
}
BENCHMARK(BM_TrieVerifyProof)->Arg(1000)->Arg(100000);

void BM_ProofByteSize(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const trie::SealableTrie t = prefilled(n);
  std::size_t total = 0, count = 0;
  for (auto _ : state) {
    const trie::Proof p = t.prove(key_of(count % n));
    total += p.byte_size();
    ++count;
    benchmark::DoNotOptimize(p);
  }
  state.counters["proof_bytes"] =
      benchmark::Counter(static_cast<double>(total) / static_cast<double>(count));
}
BENCHMARK(BM_ProofByteSize)->Arg(64)->Arg(1000)->Arg(100000);

// --- Block-cadence inserts, snapshot publish and batch proving --------

void BM_TrieBlockCadenceInsert(benchmark::State& state) {
  // n inserts with a 128-write block cadence.
  const auto n = static_cast<std::uint64_t>(state.range(0));
  Hash32 v;
  v.bytes[0] = 1;
  for (auto _ : state) {
    trie::SealableTrie t;
    for (std::uint64_t i = 0; i < n; ++i) {
      t.set(key_of(i), v);
      if ((i + 1) % 128 == 0) t.commit();
    }
    benchmark::DoNotOptimize(t.root_hash());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_TrieBlockCadenceInsert)->Arg(10000)->Arg(100000);

void BM_TrieSnapshotPublish(benchmark::State& state) {
  // The per-block snapshot handoff: one write, one commit, one
  // publish.  This is the whole cost the guest/counterparty chains add
  // per block to let proofs read the frozen state.
  const auto n = static_cast<std::uint64_t>(state.range(0));
  trie::SealableTrie t = prefilled(n);
  t.commit();
  Hash32 v;
  std::uint64_t i = n;
  for (auto _ : state) {
    v.bytes[0] = static_cast<std::uint8_t>(i);
    t.set(key_of(i++), v);
    t.commit();
    benchmark::DoNotOptimize(t.snapshot());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TrieSnapshotPublish)->Arg(10000);

void BM_TrieProveBatch(benchmark::State& state) {
  // Batch proving against one snapshot, on the calling thread.
  const auto n = static_cast<std::uint64_t>(state.range(0));
  trie::SealableTrie t = prefilled(n);
  const trie::TrieSnapshot snap = t.snapshot();
  std::vector<Bytes> keys;
  keys.reserve(256);
  for (std::uint64_t i = 0; i < 256; ++i) keys.push_back(key_of(i % n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie::ProofService::prove_batch(snap, keys));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_TrieProveBatch)->Arg(10000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
