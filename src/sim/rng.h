// Deterministic simulation RNG (xoshiro256** + splitmix64 seeding).
//
// NOT cryptographic: this drives experiment randomness (malware arrival
// phases, node mobility, workload generation) where reproducibility across
// runs matters. Cryptographic randomness lives in crypto/hmac_drbg.h.
#pragma once

#include <array>
#include <cstdint>

namespace erasmus::sim {

class Rng {
 public:
  explicit Rng(uint64_t seed) { reseed(seed); }

  void reseed(uint64_t seed);

  uint64_t next_u64();

  /// Uniform in [0, bound). bound == 0 returns 0.
  uint64_t next_below(uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Bernoulli trial with probability p.
  bool chance(double p) { return next_double() < p; }

  /// Uniform in [lo, hi].
  uint64_t uniform(uint64_t lo, uint64_t hi);

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// Creates an independent child stream (for per-node RNGs).
  Rng split();

 private:
  std::array<uint64_t, 4> s_{};
};

}  // namespace erasmus::sim
