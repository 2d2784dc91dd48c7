#pragma once

#include <cstdint>
#include <limits>

namespace rc::sim {

/// Deterministic PCG32 random number generator (O'Neill, PCG-XSH-RR).
///
/// Every stochastic decision in the simulator draws from an Rng seeded from
/// the experiment seed, so a run is exactly reproducible given its seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL,
               std::uint64_t stream = 0xda3e39cb94b95bdbULL);

  /// Uniform 32-bit value.
  std::uint32_t next32();

  /// Uniform 64-bit value.
  std::uint64_t next64();

  /// Uniform integer in [0, bound) without modulo bias. bound must be > 0.
  std::uint64_t uniformInt(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double uniformDouble();

  /// Exponentially distributed double with the given mean (> 0).
  double exponential(double mean);

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Derive an independent child generator; deterministic in (state, n).
  Rng fork(std::uint64_t n);

  // Satisfy UniformRandomBitGenerator so <algorithm> shuffles accept Rng.
  using result_type = std::uint32_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }
  result_type operator()() { return next32(); }

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

}  // namespace rc::sim
