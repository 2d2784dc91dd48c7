#pragma once

#include <array>
#include <cstdint>

#include "power/energy_model.hpp"

namespace rc::power {

/// Per-node energy ledger: dynamic (event-driven) joules accumulated into
/// (component, op-class, tenant) cells.
///
/// Charge sites — worker-occupancy release, disk chunk completion, NIC
/// serialisation, DRAM log appends — call charge() with the EnergyTag the
/// operation carried; the static floors and the integral-vs-attributed
/// remainders (polling core, spin-before-sleep) are added at export time by
/// the node, never stored here. Charging is pure accounting: it reads
/// nothing back into the simulation, so runs are bit-identical with the
/// meter on or off (docs/ENERGY.md).
///
/// Tenant slots beyond the fixed capacity collapse into the last slot, so
/// the ledger stays a flat constant-size array (no per-charge allocation).
class EnergyMeter {
 public:
  /// Slot 0 = untenanted; slots 1..15 = SLO class id + 1; 16 = overflow.
  static constexpr std::size_t kTenantSlots = 17;

  void setEnabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void charge(Component c, EnergyTag tag, double joules) {
    if (!enabled_ || joules <= 0) return;
    const std::size_t ci = static_cast<std::size_t>(c);
    const std::size_t slot = tenantSlot(tag.tenant);
    cells_[cellIndex(ci, static_cast<std::size_t>(tag.cls), slot)] += joules;
    componentTotals_[ci] += joules;
    tenantTotals_[slot] += joules;
  }

  /// Dynamic joules charged to a component (all classes/tenants).
  double componentJoules(Component c) const {
    return componentTotals_[static_cast<std::size_t>(c)];
  }

  /// Dynamic joules charged against a tenant slot (all components).
  double tenantJoules(std::uint16_t tenant) const {
    return tenantTotals_[tenantSlot(tenant)];
  }

  std::array<double, kComponentCount> componentTotals() const {
    return componentTotals_;
  }

  /// Visit every non-zero cell in deterministic (component, class, tenant)
  /// order: fn(Component, OpClass, tenantSlot, joules).
  template <typename Fn>
  void forEachCell(Fn fn) const {
    for (std::size_t c = 0; c < kComponentCount; ++c) {
      for (std::size_t o = 0; o < kOpClassCount; ++o) {
        for (std::size_t t = 0; t < kTenantSlots; ++t) {
          const double j = cells_[cellIndex(c, o, t)];
          if (j > 0) {
            fn(static_cast<Component>(c), static_cast<OpClass>(o),
               static_cast<std::uint16_t>(t), j);
          }
        }
      }
    }
  }

  static std::size_t tenantSlot(std::uint16_t tenant) {
    return tenant < kTenantSlots ? tenant : kTenantSlots - 1;
  }

 private:
  static constexpr std::size_t cellIndex(std::size_t c, std::size_t o,
                                         std::size_t t) {
    return (c * kOpClassCount + o) * kTenantSlots + t;
  }

  bool enabled_ = true;
  std::array<double, kComponentCount * kOpClassCount * kTenantSlots> cells_{};
  std::array<double, kComponentCount> componentTotals_{};
  std::array<double, kTenantSlots> tenantTotals_{};
};

}  // namespace rc::power
