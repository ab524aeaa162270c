// Fault models and fault-list management.
//
// Sites are gate output stems and individual fanin pins (fanout branches),
// the classic single-stuck-line universe. Transition (delay) faults reuse
// the same sites with slow-to-rise / slow-to-fall polarities; they are the
// model the paper's double-capture at-speed scheme targets.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace lbist::fault {

/// Fault polarity: stuck-at for the static universe, slow-to-rise /
/// slow-to-fall for the transition universe.
enum class FaultType : uint8_t {
  kStuckAt0,
  kStuckAt1,
  kSlowToRise,
  kSlowToFall,
};

/// Short report name of `t`: "sa0", "sa1", "str" or "stf".
[[nodiscard]] std::string_view faultTypeName(FaultType t);

/// Pin index meaning "the gate's output stem".
inline constexpr uint8_t kOutputPin = 0xff;

/// One fault: a site (gate output stem or fanin pin) and its polarity.
struct Fault {
  GateId gate;
  uint8_t pin = kOutputPin;  // kOutputPin or fanin slot
  FaultType type = FaultType::kStuckAt0;

  /// "u42.in1 sa0"-style rendering: site name, port, fault type. Reports
  /// print this instead of raw gate ids.
  [[nodiscard]] std::string describe(const Netlist& nl) const;

  /// Same site and polarity.
  friend bool operator==(const Fault& a, const Fault& b) {
    return a.gate == b.gate && a.pin == b.pin && a.type == b.type;
  }
};

/// True when an input-pin fault of polarity `fault_is_low` (sa0 /
/// slow-to-rise) on a gate of kind `k` is structurally equivalent to a
/// fault on the same gate's output stem, and can therefore be dropped
/// during collapsing. Classic rules:
///   AND : in sa0 == out sa0      NAND: in sa0 == out sa1
///   OR  : in sa1 == out sa1      NOR : in sa1 == out sa0
///   BUF/NOT: both pin faults collapse onto the stem.
[[nodiscard]] bool pinFaultCollapsesOntoStem(CellKind k, bool fault_is_low);

/// Where a fault stands. Coverage counts kDetected and kChainTested as
/// covered; test coverage drops kUntestable and kRedundant from its
/// denominator.
enum class FaultStatus : uint8_t {
  kUndetected,
  kDetected,        // seen at an observation point by simulation/ATPG
  kChainTested,     // on the scan shift path; covered by the chain flush test
  kUntestable,      // untestable without a proof: a constant cell's own
                    // value (enumerate), a fault tied or blocked by the
                    // held pins or with no structural path to the
                    // observation set (FaultSimulator::classifyUntestable),
                    // or a PODEM target whose search tree ran out
  kRedundant,       // proved untestable by a completed CDCL search (SAT
                    // UNSAT verdict) — a machine-checkable proof, not a
                    // structural shortcut
};

/// A fault with its status and detection bookkeeping.
struct FaultRecord {
  Fault fault;
  FaultStatus status = FaultStatus::kUndetected;
  uint32_t detect_count = 0;       // N-detect bookkeeping
  int64_t first_detect_pattern = -1;
};

/// Coverage summary. "Fault coverage" follows the paper's convention:
/// detected (incl. chain-tested) over all collapsed faults. "Test
/// coverage" excludes untestable and proved-redundant faults from the
/// denominator.
struct Coverage {
  size_t total = 0;
  size_t detected = 0;
  size_t chain_tested = 0;
  size_t untestable = 0;
  size_t redundant = 0;

  /// Covered faults over all faults, in percent.
  [[nodiscard]] double faultCoveragePercent() const {
    return total == 0 ? 0.0
                      : 100.0 * static_cast<double>(detected + chain_tested) /
                            static_cast<double>(total);
  }
  /// Covered faults over the testable ones, in percent.
  [[nodiscard]] double testCoveragePercent() const {
    const size_t den = total - untestable - redundant;
    return den == 0 ? 0.0
                    : 100.0 * static_cast<double>(detected + chain_tested) /
                          static_cast<double>(den);
  }

  friend bool operator==(const Coverage&, const Coverage&) = default;
};

/// What FaultList::enumerate lists and how it starts their statuses.
struct FaultListOptions {
  bool collapse = true;          // structural equivalence collapsing
  bool include_pin_faults = true;
  /// When true, faults whose site lies on the scan shift path (SI/SE pins
  /// of DFT-inserted scan muxes) are pre-marked kChainTested, mirroring
  /// industrial accounting where the chain flush test covers them.
  bool mark_chain_faults = true;
};

/// The fault universe of one netlist in enumeration order; indices are
/// stable for the list's lifetime.
class FaultList {
 public:
  /// Enumerates (optionally collapsed) faults of `kind` for every
  /// combinational gate, DFF data pin, and primary-input stem in `nl`.
  static FaultList enumerate(const Netlist& nl, FaultType base_kind,
                             const FaultListOptions& opts = {});

  /// Stuck-at universe (SA0+SA1 per site).
  static FaultList enumerateStuckAt(const Netlist& nl,
                                    const FaultListOptions& opts = {});
  /// Transition universe (STR+STF per site).
  static FaultList enumerateTransition(const Netlist& nl,
                                       const FaultListOptions& opts = {});

  /// Number of faults.
  [[nodiscard]] size_t size() const { return records_.size(); }
  /// Fault `i`'s record.
  [[nodiscard]] const FaultRecord& record(size_t i) const {
    return records_[i];
  }
  /// Fault `i`'s record, for engines that update it.
  [[nodiscard]] FaultRecord& record(size_t i) { return records_[i]; }
  /// Every record, in fault-index order.
  [[nodiscard]] std::span<const FaultRecord> records() const {
    return records_;
  }

  /// Overwrites fault `i`'s status.
  void setStatus(size_t i, FaultStatus s) { records_[i].status = s; }

  /// Marks a detection of fault `i` by pattern `pattern_index`; promotes
  /// kUndetected to kDetected and counts repeats for N-detect stats.
  void recordDetection(size_t i, int64_t pattern_index);

  /// Status counts over the whole list.
  [[nodiscard]] Coverage coverage() const;

  /// Indices of faults still undetected (excluding untestable/chain).
  [[nodiscard]] std::vector<size_t> undetectedIndices() const;

  /// Fault `i` rendered by Fault::describe.
  [[nodiscard]] std::string describe(const Netlist& nl, size_t i) const;

 private:
  std::vector<FaultRecord> records_;
};

}  // namespace lbist::fault
