#include "trie/snapshot.hpp"

#include <utility>

namespace bmg::trie {

const TrieSnapshot::Impl& TrieSnapshot::impl() const {
  if (impl_ == nullptr) throw TrieError("snapshot: null snapshot");
  return *impl_;
}

Hash32 TrieSnapshot::root_hash() const {
  const Impl& im = impl();
  if (im.root.is_empty()) return Hash32{};
  return im.root.hash;
}

Lookup TrieSnapshot::get(ByteView key, Hash32* value_out) const {
  const Impl& im = impl();
  return walk_get(*im.core, im.tables, im.root, key, value_out);
}

Proof TrieSnapshot::prove(ByteView key) const {
  const Impl& im = impl();
  return walk_prove(*im.core, im.tables, im.root, key);
}

TrieStats TrieSnapshot::stats() const { return impl().trie_stats; }

// ---------------------------------------------------------------------------
// ProofService

ProofService::ProofService() : worker_([this] { run(); }) {}

ProofService::~ProofService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

std::future<std::vector<Proof>> ProofService::submit(TrieSnapshot snapshot,
                                                     std::vector<Bytes> keys) {
  Job job;
  job.snapshot = std::move(snapshot);
  job.keys = std::move(keys);
  std::future<std::vector<Proof>> fut = job.done.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
  return fut;
}

void ProofService::run() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop requested and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      job.done.set_value(prove_batch(job.snapshot, job.keys));
    } catch (...) {
      job.done.set_exception(std::current_exception());
    }
  }
}

std::vector<Proof> ProofService::prove_batch(const TrieSnapshot& snapshot,
                                             const std::vector<Bytes>& keys) {
  std::vector<Proof> out(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) out[i] = snapshot.prove(keys[i]);
  return out;
}

}  // namespace bmg::trie
