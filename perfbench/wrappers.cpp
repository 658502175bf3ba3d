// Layer boundaries of the traced build.
//
// Each PERFBENCH_BOUNDARY(symbol, function, wrapper) line names a
// public library function and its mangled symbol.  CMakeLists.txt turns
// every such line into -Wl,--wrap=symbol, so calls into the function
// from other translation units land in `wrapper`, which opens a span
// and calls the original through real_<wrapper>.  Calls inside the
// function's own translation unit are not redirected and stay
// invisible.
//
// Integrity:
//   * real_<wrapper> and <wrapper> are declared with the function's type
//     as the library header declares it (FreeFn below), so a wrapper
//     whose parameters, return type or noexcept drift from the header
//     fails to compile or to link;
//   * check_boundaries() confirms at start-up that the header function's
//     address resolves to its wrapper, which fails if `symbol` is not
//     that function's mangled name.
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "counterparty/chain.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha256.hpp"
#include "host/chain.hpp"
#include "ibc/module.hpp"
#include "relayer/tx_pipeline.hpp"
#include "trie/node.hpp"
#include "trie/snapshot.hpp"
#include "trie/trie.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

/// The free-function type with which a call to `F` is made under the
/// Itanium C++ ABI: member functions take `this` as the first argument.
template <class F>
struct FreeOf;
template <class R, class... A>
struct FreeOf<R (*)(A...)> {
  using type = R(A...);
};
template <class R, class... A>
struct FreeOf<R (*)(A...) noexcept> {
  using type = R(A...) noexcept;
};
template <class R, class C, class... A>
struct FreeOf<R (C::*)(A...)> {
  using type = R(C*, A...);
};
template <class R, class C, class... A>
struct FreeOf<R (C::*)(A...) const> {
  using type = R(const C*, A...);
};
template <auto F>
using FreeFn = typename FreeOf<decltype(F)>::type;

/// Code address of a function or non-virtual member function (an
/// Itanium member-function pointer is {code address, this adjustment}).
template <auto F>
const void* code_address() {
  if constexpr (std::is_member_function_pointer_v<decltype(F)>) {
    const auto pmf = F;
    static_assert(sizeof(pmf) == 2 * sizeof(void*));
    const void* p = nullptr;
    std::memcpy(&p, &pmf, sizeof(p));
    return p;
  } else {
    return reinterpret_cast<const void*>(F);
  }
}

struct Boundary {
  const char* name;
  const void* resolved;  ///< where a call to the header function goes
  const void* wrapper;
};

std::vector<Boundary>& boundaries() {
  static std::vector<Boundary> all;
  return all;
}

struct Register {
  Register(const char* name, const void* resolved, const void* wrapper) {
    boundaries().push_back(Boundary{name, resolved, wrapper});
  }
};

}  // namespace

#define PERFBENCH_BOUNDARY(sym, fn, wrapper)                                     \
  FreeFn<&fn> real_##wrapper __asm__("__real_" #sym);                            \
  FreeFn<&fn> wrapper __asm__("__wrap_" #sym);                                   \
  const Register register_##wrapper{#fn, code_address<&fn>(),                    \
                                    reinterpret_cast<const void*>(&wrapper)};

using trace::Layer;
using trace::Span;
using namespace bmg;

// clang-format off
PERFBENCH_BOUNDARY(_ZNK3bmg6crypto10PrivateKey4signESt4spanIKhLm18446744073709551615EE, bmg::crypto::PrivateKey::sign, wrap_sign)
PERFBENCH_BOUNDARY(_ZN3bmg6crypto7ed2551912verify_batchESt4spanIKNS1_10VerifyItemELm18446744073709551615EE, bmg::crypto::ed25519::verify_batch, wrap_verify_batch)
PERFBENCH_BOUNDARY(_ZN3bmg6crypto6verifyERKNS0_9PublicKeyESt4spanIKhLm18446744073709551615EERKNS0_9SignatureE, bmg::crypto::verify, wrap_verify)
PERFBENCH_BOUNDARY(_ZN3bmg6crypto6Sha2566digestESt4spanIKhLm18446744073709551615EE, bmg::crypto::Sha256::digest, wrap_sha256_digest)
PERFBENCH_BOUNDARY(_ZN3bmg6crypto11sha256_pairERKNS_6Hash32ES3_, bmg::crypto::sha256_pair, wrap_sha256_pair)
PERFBENCH_BOUNDARY(_ZN3bmg6crypto12sha256_batchEPKSt4spanIKhLm18446744073709551615EEmPNS_6Hash32E, bmg::crypto::sha256_batch, wrap_sha256_batch)
PERFBENCH_BOUNDARY(_ZN3bmg4trie12SealableTrie3setESt4spanIKhLm18446744073709551615EERKNS_6Hash32E, bmg::trie::SealableTrie::set, wrap_trie_set)
PERFBENCH_BOUNDARY(_ZN3bmg4trie12SealableTrie4sealESt4spanIKhLm18446744073709551615EE, bmg::trie::SealableTrie::seal, wrap_trie_seal)
PERFBENCH_BOUNDARY(_ZN3bmg4trie12SealableTrie6commitEv, bmg::trie::SealableTrie::commit, wrap_trie_commit)
PERFBENCH_BOUNDARY(_ZNK3bmg4trie12SealableTrie5proveESt4spanIKhLm18446744073709551615EE, bmg::trie::SealableTrie::prove, wrap_trie_prove)
PERFBENCH_BOUNDARY(_ZNK3bmg4trie12TrieSnapshot5proveESt4spanIKhLm18446744073709551615EE, bmg::trie::TrieSnapshot::prove, wrap_snapshot_prove)
PERFBENCH_BOUNDARY(_ZN3bmg4trie12ProofService11prove_batchERKNS0_12TrieSnapshotERKSt6vectorIS5_IhSaIhEESaIS7_EE, bmg::trie::ProofService::prove_batch, wrap_prove_batch)
PERFBENCH_BOUNDARY(_ZN3bmg4trie12verify_proofERKNS_6Hash32ESt4spanIKhLm18446744073709551615EERKNS0_5ProofE, bmg::trie::verify_proof, wrap_verify_proof)
PERFBENCH_BOUNDARY(_ZN3bmg3ibc9IbcModule13update_clientERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEESt4spanIKhLm18446744073709551615EE, bmg::ibc::IbcModule::update_client, wrap_update_client)
PERFBENCH_BOUNDARY(_ZN3bmg3ibc9IbcModule11send_packetERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEES9_St6vectorIhSaIhEEmd, bmg::ibc::IbcModule::send_packet, wrap_send_packet)
PERFBENCH_BOUNDARY(_ZN3bmg3ibc9IbcModule11recv_packetERKNS0_6PacketEmRKNS_4trie5ProofEmd, bmg::ibc::IbcModule::recv_packet, wrap_recv_packet)
PERFBENCH_BOUNDARY(_ZN3bmg3ibc9IbcModule18acknowledge_packetERKNS0_6PacketERKNS0_15AcknowledgementEmRKNS_4trie5ProofE, bmg::ibc::IbcModule::acknowledge_packet, wrap_acknowledge_packet)
PERFBENCH_BOUNDARY(_ZN3bmg3ibc9IbcModule14timeout_packetERKNS0_6PacketEmRKNS_4trie5ProofE, bmg::ibc::IbcModule::timeout_packet, wrap_timeout_packet)
PERFBENCH_BOUNDARY(_ZNK3bmg12counterparty17CounterpartyChain9header_atEm, bmg::counterparty::CounterpartyChain::header_at, wrap_header_at)
PERFBENCH_BOUNDARY(_ZN3bmg4host5Chain6submitENS0_11TransactionESt8functionIFvRKNS0_8TxResultEEE, bmg::host::Chain::submit, wrap_host_submit)
PERFBENCH_BOUNDARY(_ZN3bmg7relayer10TxPipeline15submit_sequenceESt6vectorINS_4host11TransactionESaIS4_EESt8functionIFvRKNS0_15SequenceOutcomeEEENSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE, bmg::relayer::TxPipeline::submit_sequence, wrap_submit_sequence)
// clang-format on

// --- crypto ------------------------------------------------------------

crypto::Signature wrap_sign(const crypto::PrivateKey* self, ByteView msg) {
  const Span span(Layer::kSign);
  return real_wrap_sign(self, msg);
}

std::vector<bool> wrap_verify_batch(std::span<const crypto::ed25519::VerifyItem> items) {
  for (const auto& it : items) trace::note_verified(ByteView{it.pub}, it.msg, ByteView{it.sig});
  const Span span(Layer::kVerifyBatch);
  return real_wrap_verify_batch(items);
}

bool wrap_verify(const crypto::PublicKey& pub, ByteView msg, const crypto::Signature& sig) {
  trace::note_verified(pub.view(), msg, sig.view());
  const Span span(Layer::kVerifySingle);
  return real_wrap_verify(pub, msg, sig);
}

Hash32 wrap_sha256_digest(ByteView data) noexcept {
  const Span span(Layer::kSha256);
  return real_wrap_sha256_digest(data);
}

Hash32 wrap_sha256_pair(const Hash32& a, const Hash32& b) noexcept {
  const Span span(Layer::kSha256);
  return real_wrap_sha256_pair(a, b);
}

void wrap_sha256_batch(const ByteView* msgs, std::size_t n, Hash32* out) {
  const Span span(Layer::kSha256);
  real_wrap_sha256_batch(msgs, n, out);
}

// --- trie --------------------------------------------------------------

void wrap_trie_set(trie::SealableTrie* self, ByteView key, const Hash32& value) {
  const Span span(Layer::kTrieSet);
  real_wrap_trie_set(self, key, value);
}

void wrap_trie_seal(trie::SealableTrie* self, ByteView key) {
  const Span span(Layer::kTrieSeal);
  real_wrap_trie_seal(self, key);
}

void wrap_trie_commit(trie::SealableTrie* self) {
  const Span span(Layer::kTrieCommit);
  real_wrap_trie_commit(self);
}

trie::Proof wrap_trie_prove(const trie::SealableTrie* self, ByteView key) {
  const Span span(Layer::kTrieProve);
  return real_wrap_trie_prove(self, key);
}

trie::Proof wrap_snapshot_prove(const trie::TrieSnapshot* self, ByteView key) {
  const Span span(Layer::kTrieProve);
  return real_wrap_snapshot_prove(self, key);
}

std::vector<trie::Proof> wrap_prove_batch(const trie::TrieSnapshot& snapshot,
                                          const std::vector<Bytes>& keys) {
  const Span span(Layer::kTrieProve);
  return real_wrap_prove_batch(snapshot, keys);
}

trie::VerifyOutcome wrap_verify_proof(const Hash32& root, ByteView key,
                                      const trie::Proof& proof) {
  const Span span(Layer::kTrieVerifyProof);
  return real_wrap_verify_proof(root, key, proof);
}

// --- ibc ---------------------------------------------------------------

void wrap_update_client(ibc::IbcModule* self, const ibc::ClientId& id, ByteView header) {
  const Span span(Layer::kIbcUpdateClient);
  real_wrap_update_client(self, id, header);
}

ibc::Packet wrap_send_packet(ibc::IbcModule* self, const ibc::PortId& port,
                             const ibc::ChannelId& channel, Bytes data,
                             ibc::Height timeout_height, ibc::Timestamp timeout_timestamp) {
  const Span span(Layer::kIbcPacket);
  return real_wrap_send_packet(self, port, channel, std::move(data), timeout_height,
                               timeout_timestamp);
}

ibc::Acknowledgement wrap_recv_packet(ibc::IbcModule* self, const ibc::Packet& packet,
                                      ibc::Height proof_height, const trie::Proof& proof,
                                      ibc::Height self_height, ibc::Timestamp self_time) {
  const Span span(Layer::kIbcPacket);
  return real_wrap_recv_packet(self, packet, proof_height, proof, self_height, self_time);
}

void wrap_acknowledge_packet(ibc::IbcModule* self, const ibc::Packet& packet,
                             const ibc::Acknowledgement& ack, ibc::Height proof_height,
                             const trie::Proof& proof) {
  const Span span(Layer::kIbcPacket);
  real_wrap_acknowledge_packet(self, packet, ack, proof_height, proof);
}

void wrap_timeout_packet(ibc::IbcModule* self, const ibc::Packet& packet,
                         ibc::Height proof_height, const trie::Proof& proof) {
  const Span span(Layer::kIbcPacket);
  real_wrap_timeout_packet(self, packet, proof_height, proof);
}

// --- counterparty, host, relayer ----------------------------------------

const ibc::SignedQuorumHeader& wrap_header_at(const counterparty::CounterpartyChain* self,
                                              ibc::Height h) {
  const Span span(Layer::kCpHeader);
  return real_wrap_header_at(self, h);
}

void wrap_host_submit(host::Chain* self, host::Transaction tx,
                      host::Chain::ResultHandler on_result) {
  trace::count_host_submit();
  real_wrap_host_submit(self, std::move(tx), std::move(on_result));
}

void wrap_submit_sequence(relayer::TxPipeline* self, std::vector<host::Transaction> txs,
                          relayer::SequenceDone done, std::string label) {
  trace::count_sequence();
  real_wrap_submit_sequence(self, std::move(txs), std::move(done), std::move(label));
}

/// Fails when a boundary's symbol does not resolve its header function
/// to the wrapper (a stale or mistyped mangled name).
bool trace::check_boundaries() {
  bool ok = true;
  for (const Boundary& b : boundaries()) {
    if (b.resolved != b.wrapper) {
      std::fprintf(stderr, "perfbench: %s is not wrapped (stale symbol?)\n", b.name);
      ok = false;
    }
  }
  return ok && !boundaries().empty();
}

}  // namespace perfbench
