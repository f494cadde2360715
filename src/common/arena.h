// Monotonic bump arena with O(1) scope reset — the request-scoped allocation
// model for the validation fast path (docs/VALIDATION.md).
//
// The serving hot path parses one XML document, encodes it, runs one
// membership pass, and throws everything away. On the general-purpose heap
// that lifecycle costs a malloc/free pair per tree node vector growth and
// scatters a short-lived working set across the allocator's size classes. An
// Arena instead hands out pointers by bumping an offset through a chain of
// geometrically grown blocks; nothing is freed individually, and `Reset()`
// rewinds the whole region in O(1) *while keeping every block mapped*, so a
// steady-state request loop performs zero allocator calls after warm-up.
//
// Arena implements std::pmr::memory_resource, so the pmr-converted containers
// (BinaryTree, UnrankedTree, parser scratch) thread it through uniformly:
// construct the container with `&arena`, and every internal vector lands in
// the region. Copying an arena-backed container escapes to the default heap
// (polymorphic_allocator copies do not propagate the resource), which is
// exactly the semantics a "borrow during the request, copy to keep" model
// wants. Moves stay inside the arena.
//
// Not thread-safe: one Arena per thread, by construction (a validation batch
// runs on its request's thread with one arena, reset between documents).

#ifndef PEBBLETC_COMMON_ARENA_H_
#define PEBBLETC_COMMON_ARENA_H_

#include <cstddef>
#include <memory_resource>
#include <vector>

namespace pebbletc {

class Arena : public std::pmr::memory_resource {
 public:
  static constexpr size_t kDefaultBlockBytes = 64u << 10;  // first block
  static constexpr size_t kMaxBlockBytes = 4u << 20;       // growth ceiling

  explicit Arena(size_t first_block_bytes = kDefaultBlockBytes);
  ~Arena() override;

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Rewinds the arena to empty without releasing any block: the next
  /// allocation sequence re-bumps through the already-mapped chain. O(1).
  void Reset();

  /// Bytes handed out since construction or the last Reset().
  size_t bytes_allocated() const { return bytes_allocated_; }
  /// Largest bytes_allocated() ever observed (across Resets).
  size_t high_water_bytes() const { return high_water_bytes_; }
  /// Total bytes reserved from the upstream heap (never shrinks until
  /// destruction).
  size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  struct Block {
    char* data = nullptr;
    size_t size = 0;
  };

  void* do_allocate(size_t bytes, size_t alignment) override;
  void do_deallocate(void* p, size_t bytes, size_t alignment) override;
  bool do_is_equal(const std::pmr::memory_resource& other) const noexcept
      override;

  // Moves to the next block that fits `bytes` (reusing retained blocks after
  // a Reset), appending a new one if the chain is exhausted.
  void NextBlock(size_t bytes);

  std::vector<Block> blocks_;
  size_t current_ = 0;  // index into blocks_; valid only when !blocks_.empty()
  size_t offset_ = 0;   // bump offset within blocks_[current_]
  size_t bytes_allocated_ = 0;
  size_t high_water_bytes_ = 0;
  size_t bytes_reserved_ = 0;
};

}  // namespace pebbletc

#endif  // PEBBLETC_COMMON_ARENA_H_
