// Deterministic pseudo-random number generation.
//
// Experiments must be bit-for-bit reproducible from a seed, so every random
// choice in the project goes through Rng (xoshiro256**) rather than
// std::random_device or rand().
#pragma once

#include <cstdint>

#include "common/types.h"

namespace lcmp {

// Small, fast, seedable PRNG (xoshiro256**, public-domain algorithm).
// Not thread-safe; the simulator is single-threaded by design.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Uniform 64-bit value.
  uint64_t NextU64();

  // Uniform integer in [0, bound). bound must be > 0.
  uint64_t NextBounded(uint64_t bound);

  // Uniform double in [0, 1).
  double NextDouble();

  // Exponentially distributed value with the given mean (> 0). Used for
  // Poisson inter-arrival times in the traffic generator.
  double NextExponential(double mean);

  // Re-seed, resetting the stream.
  void Seed(uint64_t seed);

 private:
  uint64_t s_[4];
};

}  // namespace lcmp
