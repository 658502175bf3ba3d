// Ablation — sealable trie vs. a plain (never-sealed) Merkle trie:
// live storage as a function of processed packets.  This is the
// design choice of §III-A; without sealing the Guest Contract's state
// grows without bound and the 10 MiB account eventually fills.
//
// Flags (strictly validated; bad input exits 2):
//   --packets N   packets to process (default 100000)
//   --window N    in-flight window kept unsealed (default 32)
#include <cstdio>
#include <cstring>

#include "bench_common.hpp"
#include "ibc/commitment.hpp"
#include "parse.hpp"
#include "trie/trie.hpp"

int main(int argc, char** argv) {
  using namespace bmg;
  const char* prog = argv[0];
  std::size_t packets = 100'000;
  std::size_t window = 32;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", prog, argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--packets") == 0)
      packets = static_cast<std::size_t>(
          bench::parse_positive_long(prog, "--packets", next()));
    else if (std::strcmp(argv[i], "--window") == 0)
      window =
          static_cast<std::size_t>(bench::parse_positive_long(prog, "--window", next()));
  }
  const bench::Args args =
      bench::Args::parse(argc, argv, 0.0, 0, {"--packets", "--window"});
  bench::print_header("Ablation: sealable trie vs plain trie growth", args);

  trie::SealableTrie sealed, plain;
  Hash32 value;
  value.bytes[0] = 7;

  std::printf("%10s %18s %18s %12s\n", "packets", "plain bytes", "sealed bytes",
              "ratio");
  for (std::size_t i = 1; i <= packets; ++i) {
    const auto key =
        ibc::packet_key(ibc::KeyKind::kPacketReceipt, "transfer", "channel-0", i);
    sealed.set(key, value);
    plain.set(key, value);
    if (i > window)
      sealed.seal(
          ibc::packet_key(ibc::KeyKind::kPacketReceipt, "transfer", "channel-0",
                          i - window));
    if (i == 100 || i == 1'000 || i == 10'000 || i == 100'000 || i == packets) {
      const auto p = plain.stats().byte_size;
      const auto s = sealed.stats().byte_size;
      std::printf("%10zu %18zu %18zu %11.1fx\n", i, p, s,
                  static_cast<double>(p) / static_cast<double>(s));
    }
  }

  const double plain_pairs_to_full = 10.0 * 1024 * 1024 /
      (static_cast<double>(plain.stats().byte_size) / static_cast<double>(packets));
  std::printf("\nwithout sealing the 10 MiB account fills after ~%.0f packets;\n",
              plain_pairs_to_full);
  std::printf("with sealing, live state is flat at the in-flight window (paper"
              " §III-A).\n");
  return 0;
}
