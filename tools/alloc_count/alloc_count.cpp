// alloc_count: an LD_PRELOAD shim that counts heap allocations.
//
//   LD_PRELOAD=build/tools/alloc_count/libe10_alloc_count.so <command>
//
// Every malloc, calloc and realloc the process makes (operator new
// included: libstdc++ implements it with malloc) is counted with its
// requested bytes, and forwarded to glibc's own allocator. At exit the
// totals go to stderr as one line, with the process's peak resident set
// (getrusage's ru_maxrss) so any run can be measured for memory too:
//
//   alloc_count: calls=N malloc=N calloc=N realloc=N bytes=N peak_rss_kib=N
//
// The simulator is deterministic, so for one binary and seed the counts
// repeat exactly; they measure allocator pressure, which gprof's flat
// profile cannot show because it omits libc. free is not interposed, and
// aligned allocations (posix_memalign, aligned_alloc) are not counted.
// glibc only: the shim forwards to __libc_malloc and friends rather than
// dlsym(RTLD_NEXT), which itself allocates.
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>

extern "C" {
void* __libc_malloc(std::size_t size);
void* __libc_calloc(std::size_t count, std::size_t size);
void* __libc_realloc(void* ptr, std::size_t size);
}

namespace {

std::atomic<std::uint64_t> g_malloc{0};
std::atomic<std::uint64_t> g_calloc{0};
std::atomic<std::uint64_t> g_realloc{0};
std::atomic<std::uint64_t> g_bytes{0};

void count(std::atomic<std::uint64_t>& calls, std::size_t bytes) {
  calls.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

__attribute__((destructor)) void report() {
  const std::uint64_t m = g_malloc.load();
  const std::uint64_t c = g_calloc.load();
  const std::uint64_t r = g_realloc.load();
  rusage usage{};
  (void)getrusage(RUSAGE_SELF, &usage);
  char line[200];
  const int n = std::snprintf(
      line, sizeof line,
      "alloc_count: calls=%llu malloc=%llu calloc=%llu realloc=%llu "
      "bytes=%llu peak_rss_kib=%ld\n",
      static_cast<unsigned long long>(m + c + r),
      static_cast<unsigned long long>(m), static_cast<unsigned long long>(c),
      static_cast<unsigned long long>(r),
      static_cast<unsigned long long>(g_bytes.load()), usage.ru_maxrss);
  if (n > 0) {
    (void)!write(STDERR_FILENO, line, static_cast<std::size_t>(n));
  }
}

}  // namespace

extern "C" {

void* malloc(std::size_t size) {
  count(g_malloc, size);
  return __libc_malloc(size);
}

void* calloc(std::size_t count_in, std::size_t size) {
  count(g_calloc, count_in * size);
  return __libc_calloc(count_in, size);
}

void* realloc(void* ptr, std::size_t size) {
  count(g_realloc, size);
  return __libc_realloc(ptr, size);
}

}  // extern "C"
