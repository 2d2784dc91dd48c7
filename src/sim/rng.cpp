#include "sim/rng.hpp"

#include <cmath>

namespace rc::sim {

Rng::Rng(std::uint64_t seed, std::uint64_t stream)
    : state_(0), inc_((stream << 1u) | 1u) {
  next32();
  state_ += seed;
  next32();
}

std::uint32_t Rng::next32() {
  const std::uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  const auto xorshifted =
      static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
  const auto rot = static_cast<std::uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

std::uint64_t Rng::next64() {
  return (static_cast<std::uint64_t>(next32()) << 32) | next32();
}

std::uint64_t Rng::uniformInt(std::uint64_t bound) {
  if (bound <= 1) return 0;
  // Rejection sampling to remove modulo bias.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = next64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::uniformDouble() {
  return static_cast<double>(next64() >> 11) * 0x1.0p-53;
}

double Rng::exponential(double mean) {
  double u = uniformDouble();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniformDouble() < p;
}

Rng Rng::fork(std::uint64_t n) {
  return Rng(next64() ^ (n * 0x9e3779b97f4a7c15ULL), next64() | 1u);
}

}  // namespace rc::sim
