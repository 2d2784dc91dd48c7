#pragma once

#include <cstdint>
#include <string>

#include "sim/rng.hpp"

namespace rc::ycsb {

/// A YCSB core-workload specification (Cooper et al., SoCC'10). The paper
/// runs A/B/C over 1 KB records with a *uniform* request distribution and
/// names "more workloads" and "different request distributions" as future
/// work — D (read-latest with inserts) and F (read-modify-write) plus the
/// zipfian distribution are provided for that. (Workload E needs ordered
/// range scans, which hash-partitioned RAMCloud tables do not have.)
struct WorkloadSpec {
  std::string name = "custom";
  double readProportion = 1.0;
  double updateProportion = 0.0;
  double insertProportion = 0.0;
  double readModifyWriteProportion = 0.0;

  std::uint64_t recordCount = 100'000;
  std::uint32_t valueBytes = 1000;

  enum class Distribution {
    kUniform,
    kZipfian,
    kLatest,  ///< zipfian anchored at the newest record (workload D)
  };
  Distribution distribution = Distribution::kUniform;

  static WorkloadSpec A(std::uint64_t records = 100'000);
  static WorkloadSpec B(std::uint64_t records = 100'000);
  static WorkloadSpec C(std::uint64_t records = 100'000);
  static WorkloadSpec D(std::uint64_t records = 100'000);
  static WorkloadSpec F(std::uint64_t records = 100'000);
};

/// Skew of the zipfian and latest distributions: YCSB's default.
inline constexpr double kZipfianTheta = 0.99;

/// Draws keys in [0, recordCount) following the spec's distribution.
/// The zipfian generator uses Gray et al.'s rejection-free algorithm as in
/// YCSB's ZipfianGenerator, with the zeta constant precomputed.
class KeyChooser {
 public:
  KeyChooser(const WorkloadSpec& spec, sim::Rng rng);

  std::uint64_t next();

  /// Key over a keyspace grown to `currentN` records (inserts). kLatest
  /// anchors the skew at the newest key; kUniform spreads over all of it.
  std::uint64_t next(std::uint64_t currentN);

 private:
  std::uint64_t nextZipfian();

  std::uint64_t n_;
  WorkloadSpec::Distribution dist_;
  sim::Rng rng_;

  // Zipfian state.
  double zetan_ = 0;
  double zeta2_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
  double halfPowTheta_ = 0;  ///< pow(0.5, theta): loop-invariant, hoisted
};

}  // namespace rc::ycsb
