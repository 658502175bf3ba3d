// Undo records: how a fork-aware host puts back what the slots of a
// reorg wrote (DESIGN §15).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace bmg {

/// Records what host transactions write, one log per slot.  A
/// fork-aware chain owns one and opens it on the slot of each
/// transaction it executes; otherwise it is closed.  An object a
/// transaction can change holds a pointer to it (null: it never
/// records) and records each write before making it.
class UndoRecorder {
 public:
  /// One slot's records, in the order they were made.
  struct Log {
    std::vector<std::function<void()>> records;
    /// Runs every record, newest first, and empties the log.
    void unwind() {
      for (; !records.empty(); records.pop_back()) records.back()();
    }
  };

  [[nodiscard]] bool recording() const noexcept { return log_ != nullptr; }
  /// The slot being recorded (meaningful while recording()).
  [[nodiscard]] std::uint64_t slot() const noexcept { return slot_; }
  void open(Log& log, std::uint64_t slot) noexcept { log_ = &log, slot_ = slot; }
  void close() noexcept { log_ = nullptr; }
  /// Appends `undo`, which reverses the write about to be made.  Only
  /// while recording().
  void record(std::function<void()> undo) { log_->records.push_back(std::move(undo)); }

 private:
  Log* log_ = nullptr;
  std::uint64_t slot_ = 0;
};

[[nodiscard]] inline bool recording(const UndoRecorder* r) noexcept {
  return r != nullptr && r->recording();
}

/// Records `value` whole and returns it for writing: unwinding assigns
/// the recorded value back.
template <typename T>
T& save(UndoRecorder* r, T& value) {
  if (recording(r)) r->record([&value, old = value]() mutable { value = std::move(old); });
  return value;
}

/// Records entry `key` of the map or set `c`: unwinding puts its
/// current value back, or erases it if it is absent now.
template <typename C>
void save_entry(UndoRecorder* r, C& c, const typename C::key_type& key) {
  if (!recording(r)) return;
  if (const auto it = c.find(key); it == c.end())
    r->record([&c, key] { c.erase(key); });
  else if constexpr (requires { typename C::mapped_type; })
    r->record([&c, old = *it]() mutable { c.insert_or_assign(old.first, std::move(old.second)); });
  else
    r->record([&c, key] { c.insert(key); });
}

/// Adds `delta` to `value` modulo 2^64 (0 - n subtracts n); unwinding
/// subtracts it again, so what was added meanwhile outside any
/// transaction (an airdrop, a direct mint) stays.
inline void add_delta(UndoRecorder* r, std::uint64_t& value, std::uint64_t delta) {
  if (recording(r)) r->record([&value, delta] { value -= delta; });
  value += delta;
}

}  // namespace bmg
