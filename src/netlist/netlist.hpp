// Gate-level netlist graph.
//
// The netlist is a DAG of single-output gates (section 3 item 1 of
// DESIGN.md). Sequential elements are kDff gates whose clock is named by a
// clock-domain attribute; everything between DFF boundaries must be
// combinational and acyclic. DFT transforms (scan insertion, X-bounding,
// test points) mutate a netlist in place through the editing API.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "netlist/cell.hpp"
#include "netlist/ids.hpp"

namespace lbist {

/// A named functional clock domain. Periods are exact integers in
/// picoseconds so at-speed pulse spacing can be checked without rounding.
struct ClockDomain {
  std::string name;
  uint64_t period_ps = 0;

  [[nodiscard]] double freq_mhz() const {
    return period_ps == 0 ? 0.0 : 1e6 / static_cast<double>(period_ps);
  }
};

/// Per-gate flag bits.
enum GateFlag : uint8_t {
  kFlagNoScan = 1u << 0,        // DFF that must not be made scannable
  kFlagScanCell = 1u << 1,      // DFF converted to a scan cell
  kFlagObservePoint = 1u << 2,  // DFT-inserted observation point sink
  kFlagDftInserted = 1u << 3,   // any gate added by a DFT transform
  kFlagXBounded = 1u << 4,      // X source that has been bounded
  kFlagScanMux = 1u << 5,       // scan-path mux in front of a scan DFF's D
  kFlagRetimeFf = 1u << 6,      // hold-fix re-timing lockup FF on shift path
};

struct Gate {
  CellKind kind = CellKind::kBuf;
  uint8_t flags = 0;
  DomainId domain;  // valid only for kDff
  std::vector<GateId> fanins;
};

/// Primary output: a name bound to the net that drives it.
struct OutputPort {
  std::string name;
  GateId driver;
};

class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  // --- identity -----------------------------------------------------------
  [[nodiscard]] const std::string& name() const { return name_; }
  void setName(std::string name) { name_ = std::move(name); }

  // --- clock domains ------------------------------------------------------
  DomainId addClockDomain(std::string_view name, uint64_t period_ps);
  [[nodiscard]] const ClockDomain& domain(DomainId id) const;
  [[nodiscard]] size_t numDomains() const { return domains_.size(); }
  [[nodiscard]] std::span<const ClockDomain> domains() const {
    return domains_;
  }

  // --- construction -------------------------------------------------------
  GateId addInput(std::string_view name);
  GateId addConst(bool value);
  GateId addXSource(std::string_view name = {});
  GateId addGate(CellKind kind, std::span<const GateId> fanins);
  GateId addGate(CellKind kind, std::initializer_list<GateId> fanins);
  GateId addDff(GateId d, DomainId domain, std::string_view name = {});
  void addOutput(GateId driver, std::string_view name = {});

  void setGateName(GateId id, std::string_view name);
  [[nodiscard]] std::string gateName(GateId id) const;  // synthesized if unset
  [[nodiscard]] std::optional<GateId> findGateByName(
      std::string_view name) const;

  // --- inspection ---------------------------------------------------------
  [[nodiscard]] size_t numGates() const { return gates_.size(); }
  [[nodiscard]] const Gate& gate(GateId id) const { return gates_[id.v]; }
  [[nodiscard]] std::span<const GateId> inputs() const { return inputs_; }
  [[nodiscard]] std::span<const OutputPort> outputs() const {
    return outputs_;
  }
  [[nodiscard]] std::span<const GateId> dffs() const { return dffs_; }
  [[nodiscard]] std::span<const GateId> xsources() const { return xsources_; }

  /// Gate-equivalent area of the whole netlist (NAND2 == 1.0).
  [[nodiscard]] double gateEquivalents() const;
  /// Gate-equivalent area of DFT-inserted gates only.
  [[nodiscard]] double dftGateEquivalents() const;

  /// Iterates ids 0..numGates-1.
  template <typename Fn>
  void forEachGate(Fn&& fn) const {
    for (uint32_t i = 0; i < gates_.size(); ++i) fn(GateId{i}, gates_[i]);
  }

  // --- editing (DFT transforms) ------------------------------------------
  /// Redirects fanin slot `slot` of `gate` to `new_src`.
  void setFanin(GateId gate, size_t slot, GateId new_src);

  /// Replaces every use of `old_src` as a fanin with `new_src`.
  /// Returns the number of fanin slots rewritten.
  size_t replaceAllUses(GateId old_src, GateId new_src);

  /// Rebinds output port `index` to a new driver net.
  void setOutputDriver(size_t index, GateId new_driver);

  void setFlag(GateId id, GateFlag flag) { gates_[id.v].flags |= flag; }
  [[nodiscard]] bool hasFlag(GateId id, GateFlag flag) const {
    return (gates_[id.v].flags & flag) != 0;
  }

  void setDffDomain(GateId id, DomainId domain);

  // --- derived structure ---------------------------------------------------
  /// Fanout adjacency in CSR form; invalidated by any edit.
  struct FanoutMap {
    std::vector<uint32_t> offsets;  // size numGates + 1
    std::vector<GateId> targets;    // concatenated fanout lists

    [[nodiscard]] std::span<const GateId> fanout(GateId id) const {
      return {targets.data() + offsets[id.v],
              targets.data() + offsets[id.v + 1]};
    }
  };
  /// `comb_targets_only` restricts the targets to combinational gates —
  /// the working set of the event-driven simulators (DFF/PO sinks are
  /// observation points, not propagation targets). Same CSR layout,
  /// smaller streams.
  [[nodiscard]] FanoutMap buildFanoutMap(bool comb_targets_only = false) const;

  /// Structural validation; returns an empty string when healthy, else a
  /// description of the first problem found (bad arity, dangling id,
  /// combinational cycle, DFF without domain).
  [[nodiscard]] std::string validate() const;

 private:
  GateId allocGate(Gate gate);

  std::string name_;
  std::vector<Gate> gates_;
  std::vector<GateId> inputs_;
  std::vector<OutputPort> outputs_;
  std::vector<GateId> dffs_;
  std::vector<GateId> xsources_;
  std::vector<ClockDomain> domains_;
  std::unordered_map<uint32_t, std::string> names_;
  std::unordered_map<std::string, uint32_t> name_to_gate_;
};

}  // namespace lbist
