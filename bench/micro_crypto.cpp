// Micro-benchmarks of the cryptographic substrate (google-benchmark):
// these costs are what the host chain's compute-unit model abstracts.
#include <benchmark/benchmark.h>

#include "common/bytes.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/ed25519_impl.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"
#include "crypto/sha512_impl.hpp"

namespace {

using namespace bmg;

void BM_Sha256(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::digest(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(32)->Arg(256)->Arg(1232)->Arg(65536);

// Each backend the runtime dispatcher can pick, measured on the same
// input sizes as BM_Sha256 (which reports whatever the dispatcher
// chose on this CPU).
void BM_Sha256Backend(benchmark::State& state) {
  const auto impl = static_cast<crypto::Sha256Impl>(state.range(0));
  if (!crypto::sha256_impl_available(impl)) {
    state.SkipWithError("backend not available on this CPU");
    return;
  }
  const Bytes data(static_cast<std::size_t>(state.range(1)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256_digest_with(impl, data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(1));
}
BENCHMARK(BM_Sha256Backend)
    ->ArgsProduct({{static_cast<long>(crypto::Sha256Impl::kScalar),
                    static_cast<long>(crypto::Sha256Impl::kShaNi)},
                   {256, 65536}});

// The batch API the trie's deferred commit() drives: many short
// fixed-shape preimages hashed in one call.
void BM_Sha256Batch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Bytes> msgs(n, Bytes(107, 0xAB));  // ~ext/leaf preimage size
  std::vector<ByteView> views(n);
  for (std::size_t i = 0; i < n; ++i) views[i] = msgs[i];
  std::vector<Hash32> out(n);
  for (auto _ : state) {
    crypto::sha256_batch(views.data(), n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Sha256Batch)->Arg(8)->Arg(64)->Arg(512);

void BM_Sha512(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xCD);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha512::digest(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha512)->Arg(64)->Arg(96)->Arg(1232);

// n one-block messages of 96 bytes, the size of an Ed25519 challenge
// R || A || M over a 32-byte digest, in one pass of the eight-lane
// compression.  per_msg is the time per message, to set against
// BM_Sha512/96.
void BM_Sha512Lanes(benchmark::State& state) {
  if (!crypto::detail::cpu_has_avx512f()) {
    state.SkipWithError("no AVX-512F on this CPU");
    return;
  }
  const auto n = static_cast<std::size_t>(state.range(0));
  const Bytes data(96, 0xCD);
  std::vector<crypto::detail::Sha512Parts> msgs(n, {ByteView{data}, {}, {}});
  std::vector<crypto::Digest512> out(n);
  for (auto _ : state) {
    crypto::detail::sha512_lanes(msgs, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["per_msg"] = benchmark::Counter(
      static_cast<double>(n), benchmark::Counter::kIsIterationInvariantRate |
                                  benchmark::Counter::kInvert);
}
BENCHMARK(BM_Sha512Lanes)->Arg(1)->Arg(3)->Arg(8);

void BM_Ed25519Sign(benchmark::State& state) {
  const crypto::PrivateKey key = crypto::PrivateKey::from_label("bench");
  const Bytes msg = bytes_of("a guest block digest: 32 bytes..");
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.sign(msg));
  }
}
BENCHMARK(BM_Ed25519Sign);

// One counterparty commit: n validator keys sign one digest in one
// call, eight nonce multiplies at a time where the CPU has AVX-512
// IFMA.  Per-signature time against BM_Ed25519Sign is what batching
// the commit saves.
void BM_Ed25519SignBatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<crypto::PrivateKey> keys;
  for (std::size_t i = 0; i < n; ++i)
    keys.push_back(crypto::PrivateKey::from_label("commit-" + std::to_string(i)));
  std::vector<const crypto::PrivateKey*> ptrs;
  for (const crypto::PrivateKey& k : keys) ptrs.push_back(&k);
  const Bytes msg = bytes_of("a guest block digest: 32 bytes..");
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sign_all(ptrs, msg));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Ed25519SignBatch)->Arg(136);

// The key turns warm (ed25519::kWarmKeyUses) within the first
// iterations, so this times the comb path: one comb multiply and one
// inversion per verify.
void BM_Ed25519Verify(benchmark::State& state) {
  const crypto::PrivateKey key = crypto::PrivateKey::from_label("bench");
  const Bytes msg = bytes_of("a guest block digest: 32 bytes..");
  const crypto::Signature sig = key.sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::verify(key.public_key(), msg, sig));
  }
}
BENCHMARK(BM_Ed25519Verify);

// Batched verification at several batch sizes.  Per-signature time is
// the headline number.  The keys repeat every iteration, so they turn
// warm within the first iterations and this times the comb path: each
// item's own comb multiply, with one inversion shared by the batch.
// `time / batch` here vs. BM_Ed25519Verify shows what sharing that
// inversion saves.
void BM_Ed25519VerifyBatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Bytes> msgs;
  std::vector<crypto::ed25519::VerifyItem> items;
  msgs.reserve(n);
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const crypto::PrivateKey key =
        crypto::PrivateKey::from_label("batch-" + std::to_string(i));
    msgs.push_back(bytes_of("a guest block digest: 32 bytes.."));
    const crypto::Signature sig = key.sign(msgs.back());
    items.push_back({key.public_key().raw(), ByteView{msgs.back()}, sig.raw()});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ed25519::verify_batch(items));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
// 4 and 17 are the shapes the workloads send: a light-client update
// transaction carries 4 commit signatures, and the counterparty's
// client of the guest checks 17 at a time.
BENCHMARK(BM_Ed25519VerifyBatch)->Arg(1)->Arg(4)->Arg(8)->Arg(17)->Arg(32)->Arg(128);

// Warm batches on each backend verify_batch can pick: the scalar comb,
// or eight lanes of AVX-512 IFMA (BM_Ed25519VerifyBatch reports
// whichever this CPU runs).  On the lanes one warm item spreads over
// all eight, four take two each, eight fill them, and 17 are two full
// passes and a lone item.
void BM_Ed25519VerifyBatchBackend(benchmark::State& state) {
  const auto backend = static_cast<crypto::ed25519::detail::Backend>(state.range(0));
  if (!crypto::ed25519::detail::backend_available(backend)) {
    state.SkipWithError("backend not available on this CPU");
    return;
  }
  const auto n = static_cast<std::size_t>(state.range(1));
  std::vector<Bytes> msgs;
  std::vector<crypto::ed25519::VerifyItem> items;
  msgs.reserve(n);
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const crypto::PrivateKey key =
        crypto::PrivateKey::from_label("batch-" + std::to_string(i));
    msgs.push_back(bytes_of("a guest block digest: 32 bytes.."));
    const crypto::Signature sig = key.sign(msgs.back());
    items.push_back({key.public_key().raw(), ByteView{msgs.back()}, sig.raw()});
  }
  for (std::size_t u = 0; u <= crypto::ed25519::kWarmKeyUses; ++u)
    benchmark::DoNotOptimize(crypto::ed25519::verify_batch(items));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ed25519::detail::verify_batch_with(backend, items));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Ed25519VerifyBatchBackend)
    ->ArgsProduct({{static_cast<long>(crypto::ed25519::detail::Backend::kScalar),
                    static_cast<long>(crypto::ed25519::detail::Backend::kIfma)},
                   {1, 4, 8, 17}});

// Single verifies that always miss the per-thread key memo: the keys
// cycle through four times its capacity, so every call decodes its
// key and builds its tables.  This is a key's first-sighting cost.  It
// stays one only because key uses are counted per memo lifetime: no
// key is used kWarmKeyUses times before the memo clears, so none gets
// a comb.  Counted over the process, every key would turn warm.
void BM_Ed25519VerifyColdKey(benchmark::State& state) {
  struct Signed {
    crypto::ed25519::PublicKeyBytes pub;
    crypto::ed25519::SignatureBytes sig;
  };
  static const Bytes msg = bytes_of("a guest block digest: 32 bytes..");
  static const std::vector<Signed> keys = [] {
    std::vector<Signed> out(4 * crypto::ed25519::kKeyMemoCapacity);
    for (std::size_t i = 0; i < out.size(); ++i) {
      const crypto::PrivateKey key = crypto::PrivateKey::from_label("cold-" + std::to_string(i));
      out[i] = {key.public_key().raw(), key.sign(msg).raw()};
    }
    return out;
  }();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ed25519::verify(keys[i].pub, msg, keys[i].sig));
    i = (i + 1) % keys.size();
  }
}
BENCHMARK(BM_Ed25519VerifyColdKey);

// The same work done one verify at a time — the baseline the batch
// amortization is measured against.
void BM_Ed25519VerifySequential(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Bytes> msgs;
  std::vector<crypto::ed25519::VerifyItem> items;
  msgs.reserve(n);
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const crypto::PrivateKey key =
        crypto::PrivateKey::from_label("batch-" + std::to_string(i));
    msgs.push_back(bytes_of("a guest block digest: 32 bytes.."));
    const crypto::Signature sig = key.sign(msgs.back());
    items.push_back({key.public_key().raw(), ByteView{msgs.back()}, sig.raw()});
  }
  for (auto _ : state) {
    bool all = true;
    for (const auto& it : items)
      all = all && crypto::ed25519::verify(it.pub, it.msg, it.sig);
    benchmark::DoNotOptimize(all);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Ed25519VerifySequential)->Arg(32);

// Public-key derivation, i.e. key expansion: one SHA-512 of the seed
// and one base-point multiply, paid once per key.
void BM_Ed25519DerivePublic(benchmark::State& state) {
  crypto::ed25519::Seed seed{};
  seed[0] = 42;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::ed25519::expand(seed));
  }
}
BENCHMARK(BM_Ed25519DerivePublic);

// One field inversion mod p, the step that compresses each signature's
// R, each verify run's results and each key table.  Its running time
// depends on the input, so the inputs cycle through 256 pseudo-random
// field elements.
void BM_Ed25519FieldInvert(benchmark::State& state) {
  std::vector<Hash32> inputs(256);
  for (std::size_t i = 0; i < inputs.size(); ++i)
    inputs[i] = crypto::Sha256::digest(bytes_of("field element " + std::to_string(i)));
  std::uint8_t out[32];
  std::size_t i = 0;
  for (auto _ : state) {
    crypto::ed25519::detail::fe_invert_bytes(out, inputs[i].bytes.data());
    benchmark::DoNotOptimize(out);
    benchmark::ClobberMemory();
    i = (i + 1) % inputs.size();
  }
}
BENCHMARK(BM_Ed25519FieldInvert);

}  // namespace

BENCHMARK_MAIN();
