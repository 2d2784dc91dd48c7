#include "ycsb/workload.hpp"

#include <cmath>

namespace rc::ycsb {

WorkloadSpec WorkloadSpec::A(std::uint64_t records) {
  WorkloadSpec s;
  s.name = "A";
  s.readProportion = 0.5;
  s.updateProportion = 0.5;
  s.recordCount = records;
  return s;
}

WorkloadSpec WorkloadSpec::B(std::uint64_t records) {
  WorkloadSpec s;
  s.name = "B";
  s.readProportion = 0.95;
  s.updateProportion = 0.05;
  s.recordCount = records;
  return s;
}

WorkloadSpec WorkloadSpec::C(std::uint64_t records) {
  WorkloadSpec s;
  s.name = "C";
  s.readProportion = 1.0;
  s.updateProportion = 0.0;
  s.recordCount = records;
  return s;
}

WorkloadSpec WorkloadSpec::D(std::uint64_t records) {
  WorkloadSpec s;
  s.name = "D";
  s.readProportion = 0.95;
  s.insertProportion = 0.05;
  s.recordCount = records;
  s.distribution = Distribution::kLatest;
  return s;
}

WorkloadSpec WorkloadSpec::F(std::uint64_t records) {
  WorkloadSpec s;
  s.name = "F";
  s.readProportion = 0.5;
  s.readModifyWriteProportion = 0.5;
  s.recordCount = records;
  return s;
}

namespace {
double zetaStatic(std::uint64_t n, double theta) {
  double sum = 0;
  for (std::uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}
}  // namespace

KeyChooser::KeyChooser(const WorkloadSpec& spec, sim::Rng rng)
    : n_(spec.recordCount), dist_(spec.distribution), rng_(rng) {
  if (dist_ != WorkloadSpec::Distribution::kUniform) {
    constexpr double theta = kZipfianTheta;
    zetan_ = zetaStatic(n_, theta);
    zeta2_ = zetaStatic(2, theta);
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta)) /
           (1.0 - zeta2_ / zetan_);
    halfPowTheta_ = std::pow(0.5, theta);
  }
}

std::uint64_t KeyChooser::next() { return next(n_); }

std::uint64_t KeyChooser::next(std::uint64_t currentN) {
  if (currentN == 0) currentN = 1;
  switch (dist_) {
    case WorkloadSpec::Distribution::kUniform:
      return rng_.uniformInt(currentN);
    case WorkloadSpec::Distribution::kZipfian:
      return nextZipfian() % currentN;
    case WorkloadSpec::Distribution::kLatest: {
      // Skew anchored at the newest record: rank 0 = latest insert.
      const std::uint64_t rank = nextZipfian() % currentN;
      return currentN - 1 - rank;
    }
  }
  return 0;
}

std::uint64_t KeyChooser::nextZipfian() {
  const double u = rng_.uniformDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + halfPowTheta_) return 1;
  const auto rank = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return rank >= n_ ? n_ - 1 : rank;
}

}  // namespace rc::ycsb
