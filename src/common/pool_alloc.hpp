#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace psn {

/// Size-classed recycling arena for node-based containers on hot paths
/// (DESIGN.md §13). Node containers (unordered_map, deque) hit the global
/// allocator once per insert and once per erase; under steady-state churn —
/// the soak server's always-on trace matching — that is one malloc/free pair
/// per event forever. The arena breaks the cycle: deallocated blocks go onto
/// a per-size free list and the next same-size allocation pops them back,
/// so after the working set peaks, insert/erase costs a free-list push/pop
/// and the global allocator is never consulted again.
///
/// Memory therefore grows to the *peak* working set and stays there —
/// exactly the bounded-retention story the stream checker already tells —
/// and every block is released when the arena dies.
///
/// Contracts:
///  - Single-threaded, like the containers it backs (one checker = one
///    session = one thread).
///  - The arena must outlive every container allocating from it: declare it
///    before them in the owning class.
///  - Not movable or copyable (allocators hold stable pointers to it).
class PoolArena {
 public:
  PoolArena() = default;
  PoolArena(const PoolArena&) = delete;
  PoolArena& operator=(const PoolArena&) = delete;

  ~PoolArena() {
    for (void* p : blocks_) ::operator delete(p);
  }

  void* allocate(std::size_t bytes) {
    FreeList& list = free_list_for(bytes);
    if (!list.free.empty()) {
      void* p = list.free.back();
      list.free.pop_back();
      return p;
    }
    void* p = ::operator new(bytes);
    blocks_.push_back(p);
    return p;
  }

  void deallocate(void* p, std::size_t bytes) noexcept {
    // The free-list vector grows to the peak live count and is then
    // capacity-stable; if a growth push ever throws, the block is simply
    // not recycled (it remains owned by blocks_ and is freed at teardown).
    try {
      free_list_for(bytes).free.push_back(p);
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
  }

 private:
  struct FreeList {
    std::size_t bytes = 0;
    std::vector<void*> free;
  };

  /// Linear scan: a container family produces a handful of distinct sizes
  /// (node, bucket array per growth step, deque block), so the list stays
  /// short and the scan beats any map lookup.
  FreeList& free_list_for(std::size_t bytes) {
    for (FreeList& list : lists_) {
      if (list.bytes == bytes) return list;
    }
    lists_.push_back(FreeList{bytes, {}});
    return lists_.back();
  }

  std::vector<FreeList> lists_;
  std::vector<void*> blocks_;  ///< everything ever allocated, for teardown
};

/// Minimal std allocator over a PoolArena. Containers constructed with it
/// route node and bucket-array allocations through the arena's free lists.
/// Two allocators compare equal iff they share an arena; propagation traits
/// are all false — containers keep the allocator they were born with.
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;
  using propagate_on_container_copy_assignment = std::false_type;
  using propagate_on_container_move_assignment = std::false_type;
  using propagate_on_container_swap = std::false_type;
  using is_always_equal = std::false_type;

  explicit PoolAllocator(PoolArena& arena) : arena_(&arena) {}

  template <typename U>
  PoolAllocator(const PoolAllocator<U>& other)  // NOLINT(google-explicit-constructor)
      : arena_(other.arena_) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    arena_->deallocate(p, n * sizeof(T));
  }

  bool operator==(const PoolAllocator& other) const {
    return arena_ == other.arena_;
  }

 private:
  template <typename U>
  friend class PoolAllocator;

  PoolArena* arena_;
};

}  // namespace psn
