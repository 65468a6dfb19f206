// When a cache write's sync request reaches the sync thread: the
// e10_cache_flush_flag hint (paper Table II), parsed by adio::Hints and
// applied by cache::CacheFile. Kept in its own header so the hint parser
// does not pull in the cache layer.
#pragma once

namespace e10::cache {

enum class FlushPolicy {
  immediate,  // dispatch at write time (e10_cache_flush_flag=flush_immediate)
  onclose,    // dispatch at flush/close  (flush_onclose)
  none,       // never sync (harness-only: measures theoretical bandwidth)
};

}  // namespace e10::cache
