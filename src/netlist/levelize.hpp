// Levelization: topological ordering of the combinational core.
//
// Sources (primary inputs, constants, X-sources, DFF outputs) sit at level
// 0. Every combinational gate gets level = 1 + max(fanin levels). The
// resulting order drives the bit-parallel simulators and the fault
// simulator's event wheel.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace lbist {

class Levelized {
 public:
  /// Builds the levelization. Throws std::runtime_error on a combinational
  /// cycle (use Netlist::validate() first for a friendlier message).
  explicit Levelized(const Netlist& nl);

  /// All gates in non-decreasing level order; sources first.
  [[nodiscard]] std::span<const GateId> order() const { return order_; }

  /// Combinational gates only, in non-decreasing level order.
  [[nodiscard]] std::span<const GateId> combOrder() const {
    return comb_order_;
  }

  [[nodiscard]] uint32_t level(GateId id) const { return level_[id.v]; }
  [[nodiscard]] uint32_t maxLevel() const { return max_level_; }

 private:
  std::vector<GateId> order_;
  std::vector<GateId> comb_order_;
  std::vector<uint32_t> level_;
  uint32_t max_level_ = 0;
};

}  // namespace lbist
