// Trie-page determinism check (PR 9, wired into CI).
//
// Runs one deterministic workload — inserts, overwrites, seals,
// block-cadence commits, snapshot publishes and batched proofs — on
// each page-store backend (in-RAM, file-backed with a tiny resident
// set), and digests each run: every checkpoint root and every
// serialized proof byte feeds one SHA-256.  Both backends must produce
// the same digest; any divergence means page layout or eviction order
// leaked into commitments, and the check exits 1.
//
// Flags (strictly validated):
//   --steps N   workload steps (default 4000)
//   --seed N    workload RNG seed (default 42)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "parse.hpp"
#include "trie/snapshot.hpp"
#include "trie/trie.hpp"

namespace {

using namespace bmg;

Bytes seq_key(std::uint64_t space, std::uint64_t seq) {
  Encoder e;
  e.u64(space).u64(seq);
  return e.take();
}

Hash32 val(std::uint64_t v) {
  Encoder e;
  e.u64(v);
  return crypto::Sha256::digest(e.out());
}

struct Backend {
  const char* name;
  trie::PageStoreConfig cfg;
};

/// One full workload run; returns the digest over every checkpoint
/// root and proof byte.
Hash32 run_backend(const Backend& backend, std::size_t steps, std::uint64_t seed) {
  trie::SealableTrie t{backend.cfg};
  Rng rng(seed);
  std::vector<std::uint64_t> live;
  std::uint64_t next = 0;
  crypto::Sha256 digest;

  for (std::size_t step = 0; step < steps; ++step) {
    if (live.size() < 4 || rng.chance(0.65)) {
      t.set(seq_key(7, next), val(next * 31 + 1));
      live.push_back(next++);
    } else if (rng.chance(0.5)) {
      // Overwrite a random live entry.
      const std::size_t pick = rng.uniform_int(live.size());
      t.set(seq_key(7, live[pick]), val(rng.next()));
    } else {
      // Seal a random non-maximum live entry.
      const std::size_t pick = rng.uniform_int(live.size() - 1);
      t.seal(seq_key(7, live[pick]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    if ((step + 1) % 128 == 0) t.commit();
    if ((step + 1) % 500 != 0) continue;

    // Checkpoint: root + a batched proof sweep over the live window,
    // proved against a published snapshot (the concurrent-path bytes).
    const Hash32 root = t.root_hash();
    digest.update(root.view());
    const trie::TrieSnapshot snap = t.snapshot();
    std::vector<Bytes> keys;
    const std::size_t limit = std::min<std::size_t>(live.size(), 96);
    for (std::size_t i = 0; i < limit; ++i) keys.push_back(seq_key(7, live[i]));
    const std::vector<trie::Proof> proofs = trie::ProofService::prove_batch(snap, keys);
    for (const trie::Proof& p : proofs) {
      const Bytes wire = p.serialize();
      digest.update(wire);
    }
  }
  const Hash32 root = t.root_hash();
  digest.update(root.view());
  return digest.finish();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bmg;
  const char* prog = argv[0];
  std::size_t steps = 4000;
  std::uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", prog, argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--steps") == 0)
      steps =
          static_cast<std::size_t>(bmg::bench::parse_positive_long(prog, "--steps", next()));
    else if (std::strcmp(argv[i], "--seed") == 0)
      seed =
          static_cast<std::uint64_t>(bmg::bench::parse_positive_long(prog, "--seed", next()));
    else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", prog, argv[i]);
      return 2;
    }
  }

  trie::PageStoreConfig mem;
  trie::PageStoreConfig file;
  file.backend = trie::PageStoreConfig::Backend::kFile;
  file.page_bytes = 2048;
  file.max_resident_pages = 8;  // constant eviction churn

  const Backend backends[] = {{"mem", mem}, {"file", file}};

  bool ok = true;
  Hash32 reference;
  std::printf("trie page determinism: steps=%zu seed=%llu\n", steps,
              static_cast<unsigned long long>(seed));
  for (std::size_t i = 0; i < std::size(backends); ++i) {
    const Hash32 d = run_backend(backends[i], steps, seed);
    std::printf("  %-8s %s\n", backends[i].name, d.hex().c_str());
    if (i == 0) {
      reference = d;
    } else if (!(d == reference)) {
      std::printf("  ^ MISMATCH vs %s\n", backends[0].name);
      ok = false;
    }
  }
  std::printf(ok ? "OK: both backends agree byte-for-byte\n"
                 : "FAIL: commitments depend on the page backend\n");
  return ok ? 0 : 1;
}
