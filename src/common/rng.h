// Seeded random-number generation for the simulator's jitter models.
//
// Every component that needs randomness owns its own Rng, derived from the
// experiment seed and a component tag, so adding a component never perturbs
// another component's stream.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string_view>

namespace e10 {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Derives a child seed from a parent seed and a component tag.
  static std::uint64_t derive(std::uint64_t seed, std::string_view tag) {
    std::uint64_t h = seed ^ 0xcbf29ce484222325ULL;
    for (char c : tag) {
      h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
      h *= 0x100000001b3ULL;
    }
    return h;
  }

  /// Uniform in [lo, hi].
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Lognormal multiplier with median 1.0 and shape sigma; used for service
  /// time jitter (the heavy right tail is what makes the slowest writer
  /// dominate collective I/O, per the paper's point (a)).
  double lognormal(double sigma) {
    return std::lognormal_distribution<double>(0.0, sigma)(engine_);
  }

  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// An Rng built from its seed on the first draw. A component that may
/// never draw (a sync thread whose writes never fail) then holds a seed,
/// not the generator's 2.5 KiB of state, and skips its 312-word seeding;
/// one that does draw gets exactly the Rng(seed) stream.
class LazyRng {
 public:
  explicit LazyRng(std::uint64_t seed) : seed_(seed) {}

  Rng& get() {
    if (rng_ == nullptr) rng_ = std::make_unique<Rng>(seed_);
    return *rng_;
  }

 private:
  std::uint64_t seed_;
  std::unique_ptr<Rng> rng_;
};

}  // namespace e10
