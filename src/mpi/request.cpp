#include "mpi/request.h"

#include <cstddef>
#include <new>
#include <stdexcept>

// Recycled blocks are poisoned while they wait on the free list, so ASan
// still reports a use of a released request state, and their slabs, kept
// for the life of the process, are not reported as leaks.
#if defined(__SANITIZE_ADDRESS__)
#define E10_ASAN_POOL 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define E10_ASAN_POOL 1
#endif
#endif
#ifndef E10_ASAN_POOL
#define E10_ASAN_POOL 0
#endif
#if E10_ASAN_POOL
#include <sanitizer/asan_interface.h>
#include <sanitizer/lsan_interface.h>
#endif

namespace e10::mpi {

namespace {

/// Allocator over a free list of fixed-size blocks, one list per block
/// type (allocate_shared rebinds it to its control block, which holds the
/// state). Blocks are carved kSlabBlocks at a time from one heap
/// allocation, and a released block goes back on the list, never to the
/// heap, so the list holds at most the peak number of live blocks,
/// rounded up to a slab: a Flash-IO run creates ~1.9M request states from
/// ~10K blocks, most of them the cache's sync grequests, which stay alive
/// until their file's flush. Carving slabs keeps those blocks together
/// rather than strewn over the heap the rest of the run frees. The list
/// is per thread, like the engine whose fibers use it.
template <typename T>
class RecyclingAllocator {
 public:
  using value_type = T;

  RecyclingAllocator() = default;
  template <typename U>
  RecyclingAllocator(const RecyclingAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    if (n != 1) return static_cast<T*>(::operator new(n * sizeof(T)));
    if (free_ == nullptr) {
      auto* slab =
          static_cast<std::byte*>(::operator new(kSlabBlocks * sizeof(T)));
#if E10_ASAN_POOL
      __lsan_ignore_object(slab);
#endif
      for (std::size_t i = kSlabBlocks; i-- > 0;) {
        release(slab + i * sizeof(T));
      }
    }
    Block* block = free_;
#if E10_ASAN_POOL
    __asan_unpoison_memory_region(block, sizeof(T));
#endif
    free_ = block->next;
    return reinterpret_cast<T*>(block);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (n != 1) {
      ::operator delete(p);
      return;
    }
    release(p);
  }

  friend bool operator==(const RecyclingAllocator&,
                         const RecyclingAllocator&) {
    return true;
  }

 private:
  struct Block {
    Block* next;
  };
  static_assert(sizeof(T) >= sizeof(Block) &&
                alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  static constexpr std::size_t kSlabBlocks = 64;

  /// Puts the block at `p` on the free list.
  static void release(void* p) noexcept {
    Block* block = ::new (p) Block{free_};
    free_ = block;
#if E10_ASAN_POOL
    __asan_poison_memory_region(block, sizeof(T));
#endif
  }

  static inline thread_local Block* free_ = nullptr;
};

}  // namespace

std::shared_ptr<Request::State> Request::new_state(sim::Engine& engine) {
  return std::allocate_shared<State>(RecyclingAllocator<State>(), engine);
}

void Request::wait() {
  if (!valid()) throw std::logic_error("wait on invalid Request");
  sim::Engine& engine = state_->done.engine();
  const Time before = engine.now();
  state_->done.wait();
  // The wait advanced our clock: the request's completion gated us.
  if (sim::CausalObserver* causal = engine.causal_observer();
      causal != nullptr && state_->cause != 0 && engine.now() > before) {
    causal->ack(state_->cause, engine.current(), engine.now());
  }
}

bool Request::test() const {
  if (!valid()) throw std::logic_error("test on invalid Request");
  return state_->done.is_set();
}

const Packet& Request::packet() const {
  if (!valid() || !state_->has_packet) {
    throw std::logic_error("Request::packet: no delivered packet");
  }
  return state_->packet;
}

Packet Request::take_packet() {
  (void)packet();  // throws without a delivered packet
  Packet out = std::move(state_->packet);
  state_->packet = Packet{};
  state_->has_packet = false;
  return out;
}

Request Request::grequest(sim::Engine& engine) {
  return Request(new_state(engine));
}

void Request::complete() {
  if (!valid()) throw std::logic_error("complete on invalid Request");
  sim::Engine& engine = state_->done.engine();
  if (sim::CausalObserver* causal = engine.causal_observer();
      causal != nullptr && engine.in_process()) {
    state_->cause = causal->emit(sim::EdgeKind::grequest, engine.current(),
                                 engine.now());
  }
  state_->done.set();
}

void Request::complete_at(Time at) {
  if (!valid()) throw std::logic_error("complete on invalid Request");
  sim::Engine& engine = state_->done.engine();
  if (sim::CausalObserver* causal = engine.causal_observer();
      causal != nullptr && engine.in_process()) {
    state_->cause =
        causal->emit(sim::EdgeKind::grequest, engine.current(), at);
  }
  state_->done.set_at(at);
}

void Request::wait_all(std::vector<Request>& requests) {
  // Waiting in order is correct: each wait() only moves the clock forward,
  // so the caller ends at the max completion time.
  for (Request& r : requests) {
    if (r.valid()) r.wait();
  }
}

}  // namespace e10::mpi
