#pragma once

#include <cstdint>

namespace rc::sim {

/// Simulated time, in nanoseconds since the start of the simulation.
/// 64 signed bits cover ~292 years, far beyond any experiment here.
using SimTime = std::int64_t;

/// A span of simulated time, in nanoseconds.
using Duration = std::int64_t;

constexpr Duration nsec(std::int64_t n) { return n; }
constexpr Duration usec(std::int64_t n) { return n * 1'000; }
constexpr Duration msec(std::int64_t n) { return n * 1'000'000; }
constexpr Duration seconds(std::int64_t n) { return n * 1'000'000'000; }

/// Fractional helpers (used by calibrated service-time parameters).
constexpr Duration usecF(double n) { return static_cast<Duration>(n * 1e3); }
constexpr Duration secondsF(double n) { return static_cast<Duration>(n * 1e9); }

constexpr double toSeconds(Duration d) { return static_cast<double>(d) / 1e9; }
constexpr double toMicros(Duration d) { return static_cast<double>(d) / 1e3; }

}  // namespace rc::sim
