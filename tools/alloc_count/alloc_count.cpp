// alloc_count: an LD_PRELOAD shim that counts heap allocations.
//
//   LD_PRELOAD=build/tools/alloc_count/libe10_alloc_count.so <command>
//
// Every malloc, calloc and realloc the process makes (operator new
// included: libstdc++ implements it with malloc), and every aligned
// allocation (posix_memalign, aligned_alloc, memalign, valloc, pvalloc), is
// counted with its requested bytes and forwarded to glibc's own allocator.
// free is interposed too, so each block is counted out as it was counted
// in: the live heap is the sum of malloc_usable_size over the blocks
// handed out and not yet freed. At exit the totals go to stderr as one
// line, with the process's peak resident set (getrusage's ru_maxrss) and
// the live heap's high-water mark:
//
//   alloc_count: calls=N malloc=N calloc=N realloc=N aligned=N bytes=N
//                peak_rss_kib=N peak_live_bytes=N
//
// (one line in the output). The simulator is deterministic, so for one
// binary, glibc and seed the counts and peak_live_bytes repeat exactly;
// they measure allocator pressure and the in-use heap, which gprof's flat
// profile cannot show because it omits libc. peak_rss_kib also holds the
// arena's free chunks, fiber stacks and mapped code, and varies by a few
// hundred KiB from run to run. glibc only: the shim forwards to
// __libc_malloc and friends rather than dlsym(RTLD_NEXT), which itself
// allocates.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>

extern "C" {
void* __libc_malloc(std::size_t size);
void* __libc_calloc(std::size_t count, std::size_t size);
void* __libc_realloc(void* ptr, std::size_t size);
void* __libc_memalign(std::size_t alignment, std::size_t size);
void* __libc_valloc(std::size_t size);
void* __libc_pvalloc(std::size_t size);
void __libc_free(void* ptr);
}

namespace {

std::atomic<std::uint64_t> g_malloc{0};
std::atomic<std::uint64_t> g_calloc{0};
std::atomic<std::uint64_t> g_realloc{0};
std::atomic<std::uint64_t> g_aligned{0};
std::atomic<std::uint64_t> g_bytes{0};
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak_live{0};

void count(std::atomic<std::uint64_t>& calls, std::size_t bytes) {
  calls.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

std::int64_t usable(void* ptr) {
  return ptr == nullptr ? 0
                        : static_cast<std::int64_t>(malloc_usable_size(ptr));
}

void add_live(std::int64_t delta) {
  const std::int64_t live =
      g_live.fetch_add(delta, std::memory_order_relaxed) + delta;
  std::int64_t peak = g_peak_live.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_live.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

void* counted_in(void* ptr) {
  add_live(usable(ptr));
  return ptr;
}

__attribute__((destructor)) void report() {
  const std::uint64_t m = g_malloc.load();
  const std::uint64_t c = g_calloc.load();
  const std::uint64_t r = g_realloc.load();
  const std::uint64_t a = g_aligned.load();
  rusage usage{};
  (void)getrusage(RUSAGE_SELF, &usage);
  char line[256];
  const int n = std::snprintf(
      line, sizeof line,
      "alloc_count: calls=%llu malloc=%llu calloc=%llu realloc=%llu "
      "aligned=%llu bytes=%llu peak_rss_kib=%ld peak_live_bytes=%lld\n",
      static_cast<unsigned long long>(m + c + r + a),
      static_cast<unsigned long long>(m), static_cast<unsigned long long>(c),
      static_cast<unsigned long long>(r), static_cast<unsigned long long>(a),
      static_cast<unsigned long long>(g_bytes.load()), usage.ru_maxrss,
      static_cast<long long>(g_peak_live.load()));
  if (n > 0) {
    (void)!write(STDERR_FILENO, line, static_cast<std::size_t>(n));
  }
}

}  // namespace

extern "C" {

void* malloc(std::size_t size) {
  count(g_malloc, size);
  return counted_in(__libc_malloc(size));
}

void* calloc(std::size_t count_in, std::size_t size) {
  count(g_calloc, count_in * size);
  return counted_in(__libc_calloc(count_in, size));
}

void* realloc(void* ptr, std::size_t size) {
  count(g_realloc, size);
  const std::int64_t before = usable(ptr);
  void* moved = __libc_realloc(ptr, size);
  // A failed realloc leaves the block as it was, except that realloc(p, 0)
  // frees p and returns null.
  if (moved != nullptr) {
    add_live(usable(moved) - before);
  } else if (size == 0) {
    add_live(-before);
  }
  return moved;
}

void free(void* ptr) {
  add_live(-usable(ptr));
  __libc_free(ptr);
}

int posix_memalign(void** out, std::size_t alignment, std::size_t size) {
  if (alignment == 0 || alignment % sizeof(void*) != 0 ||
      (alignment & (alignment - 1)) != 0) {
    return EINVAL;
  }
  count(g_aligned, size);
  void* ptr = counted_in(__libc_memalign(alignment, size));
  if (ptr == nullptr) return ENOMEM;
  *out = ptr;
  return 0;
}

void* aligned_alloc(std::size_t alignment, std::size_t size) {
  count(g_aligned, size);
  return counted_in(__libc_memalign(alignment, size));
}

void* memalign(std::size_t alignment, std::size_t size) {
  count(g_aligned, size);
  return counted_in(__libc_memalign(alignment, size));
}

void* valloc(std::size_t size) {
  count(g_aligned, size);
  return counted_in(__libc_valloc(size));
}

void* pvalloc(std::size_t size) {
  count(g_aligned, size);
  return counted_in(__libc_pvalloc(size));
}

}  // extern "C"
