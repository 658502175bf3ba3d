// Bump allocation for the per-event hot path.
//
// The per-event work (encode a packet, build a payload, hash a header)
// allocates many short-lived buffers whose lifetimes all end together
// when the event finishes.  A bump arena turns each of those heap
// round-trips into a pointer increment: memory is carved off large
// chunks, never freed individually, and reclaimed wholesale by
// `reset()` (event-scoped) or by an `ArenaScope` rewind (block-scoped
// regions nested inside an event).
//
// Rules (see DESIGN.md §11):
//  - Arena memory is only valid until the owning scope resets.  Never
//    store an arena pointer in a structure that outlives the event.
//  - ArenaScopes must nest strictly.  In particular, an arena-backed
//    Encoder must not grow across a nested scope's lifetime: the inner
//    scope's rewind would reclaim the grown buffer.
//  - Arenas are not thread-safe; `scratch_arena()` is thread_local so
//    shard workers each get their own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace bmg {

class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(std::size_t first_chunk_bytes = kDefaultChunkBytes)
      : next_chunk_bytes_(first_chunk_bytes == 0 ? kDefaultChunkBytes
                                                 : first_chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Allocates `n` bytes aligned to `align` (a power of two).
  /// Never returns nullptr; n == 0 yields a valid one-past pointer.
  [[nodiscard]] void* allocate(std::size_t n,
                               std::size_t align = alignof(std::max_align_t));

  /// Byte-buffer allocation (align 1) — the encoder hot path.
  [[nodiscard]] std::uint8_t* alloc_bytes(std::size_t n) {
    return static_cast<std::uint8_t*>(allocate(n, 1));
  }

  /// Grows an allocation to `new_size` bytes.  If `p` is the most
  /// recent allocation and the chunk has room, this extends in place;
  /// otherwise it allocates fresh space and copies `old_size` bytes.
  /// Only valid for the latest allocation from this arena.
  [[nodiscard]] std::uint8_t* grow(std::uint8_t* p, std::size_t old_size,
                                   std::size_t new_size);

  /// Releases every allocation at once.  Chunk storage is kept for
  /// reuse, so a steady-state event loop stops touching the heap
  /// entirely after warm-up.
  void reset() noexcept;

  /// A rewind point for block-scoped regions; see ArenaScope.
  struct Mark {
    std::size_t chunk = 0;
    std::size_t used = 0;
  };
  [[nodiscard]] Mark mark() const noexcept { return {active_, chunk_used_}; }
  void rewind(Mark m) noexcept;

  /// Bytes handed out since construction or the last reset().
  [[nodiscard]] std::size_t bytes_used() const noexcept;
  /// Total chunk storage owned (the high-water footprint).
  [[nodiscard]] std::size_t bytes_reserved() const noexcept;

 private:
  struct Chunk {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t size = 0;
  };

  void ensure_room(std::size_t n, std::size_t align);

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;      ///< index of the chunk being bumped
  std::size_t chunk_used_ = 0;  ///< bytes used in the active chunk
  std::size_t next_chunk_bytes_;
};

/// RAII rewind-to-mark: everything allocated inside the scope is
/// reclaimed on destruction.  Scopes must nest strictly.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena) : arena_(arena), mark_(arena.mark()) {}
  ~ArenaScope() { arena_.rewind(mark_); }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena& arena_;
  Arena::Mark mark_;
};

/// The per-thread event-scoped scratch arena.  Hot functions that need
/// transient buffers take an ArenaScope on this and leave no trace.
/// thread_local keeps shard workers independent, so using it never
/// perturbs cross-thread determinism.
[[nodiscard]] Arena& scratch_arena();

}  // namespace bmg
