// Structural stuck-at / transition fault collapsing over an existing
// (uncollapsed-universe) fault list.
//
// Two analyses, both purely structural:
//
//  * Equivalence within fanout-free regions. An input-pin fault whose
//    polarity is controlling (pinFaultCollapsesOntoStem) is equivalent
//    to a fault on the same gate's output stem, and a stem fault whose
//    net has exactly one use folds forward through BUF / NOT / AND /
//    NAND / OR / NOR onto the consuming gate's stem (with the polarity
//    inverted through inverting kinds). Chaining these folds collapses
//    every fanout-free chain onto its most-downstream stem — the class
//    representative. For transition faults only BUF / NOT folds are
//    equivalence-exact (a controlling side input can mask the *output*
//    transition that the input-transition test provokes), so the other
//    kinds are skipped.
//
//    A stem may only fold forward if the tester cannot see it directly:
//    an observed stem (PO driver, scan-capture D driver, observation
//    point) detects its own fault at the site, which the downstream
//    representative would not. buildCollapseMap therefore takes the
//    observation set and refuses those folds — this is what makes the
//    fault simulator's class folding *exact*, not approximate: every
//    member of a class corrupts every observable net identically, so
//    per-fault detection masks are bit-identical whether the member or
//    its representative was simulated.
//
//  * Dominance marking (stuck-at only). For AND/NAND/OR/NOR, any test
//    for the non-controlling input-pin fault also detects the
//    corresponding output-stem fault (AND: in-j sa1 test drives the
//    output to 0 and observes it, detecting out sa1). Such stem faults
//    are flagged "dominance-prunable": deterministic ATPG may defer
//    targeting them until every fault they dominate has been resolved,
//    usually picking them up fortuitously. Pruning is a targeting
//    heuristic, not an accounting change — the faults stay in the list
//    and in coverage.
//
// The fault list itself is never rewritten: reporting, n-detect
// accounting, and diagnosis dictionaries keep speaking in terms of the
// uncollapsed universe, and representative() maps each fault onto the
// one member per class that actually needs simulating.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault.hpp"

namespace lbist::fault {

/// Per-net use summary: how many fanin slots consume each gate's output
/// and, when there is exactly one, which gate and slot. Shared by the
/// collapse analysis and the fault simulator's stem-CPT tables so the
/// two can never disagree about fanout-free structure.
struct NetUses {
  static constexpr uint32_t kNone = 0xffffffffu;
  std::vector<uint32_t> count;  // uses per gate output
  std::vector<uint32_t> gate;   // consuming gate (last seen; unique iff
                                // count == 1)
  std::vector<uint32_t> slot;   // fanin slot at that gate
};

/// Counts every gate output's uses in `nl` and records the consumer of
/// each single-use net.
[[nodiscard]] NetUses buildNetUses(const Netlist& nl);

/// Fault-list collapsing summary (core::renderCollapseStats prints it).
struct CollapseStats {
  size_t total = 0;    // faults in the (uncollapsed) list
  size_t classes = 0;  // equivalence classes = faults actually simulated
  size_t folded = 0;   // faults represented by another class member
  size_t dominance_prunable = 0;  // deferrable ATPG targets

  /// Share of the list folded onto another class member, in percent.
  [[nodiscard]] double foldedPercent() const {
    return total == 0
               ? 0.0
               : 100.0 * static_cast<double>(folded) /
                     static_cast<double>(total);
  }
};

/// Per-fault equivalence classes and dominance deferral flags of one
/// fault list, built by buildCollapseMap.
class CollapseMap {
 public:
  /// Index of fault i's equivalence-class representative (the
  /// most-downstream stem of its fanout-free chain). Idempotent:
  /// representative(representative(i)) == representative(i); a fault in
  /// a singleton class is its own representative.
  [[nodiscard]] size_t representative(size_t i) const { return rep_[i]; }

  /// representative(i) for every fault; empty when the map was never
  /// built (folding off).
  [[nodiscard]] std::span<const uint32_t> representatives() const {
    return rep_;
  }

  /// True when deterministic ATPG may defer targeting fault i because
  /// any test for some other listed fault detects it too.
  [[nodiscard]] bool dominancePrunable(size_t i) const {
    return prunable_[i] != 0;
  }

  /// Class and deferral counts over the whole list.
  [[nodiscard]] const CollapseStats& stats() const { return stats_; }

 private:
  friend CollapseMap buildCollapseMap(const Netlist& nl,
                                      const FaultList& faults,
                                      std::span<const GateId> observed);

  std::vector<uint32_t> rep_;
  std::vector<uint8_t> prunable_;
  CollapseStats stats_;
};

/// Builds the collapse analysis for `faults` over `nl`. `observed` is
/// the simulator's observation set; observed stems never fold forward
/// (see file comment).
[[nodiscard]] CollapseMap buildCollapseMap(const Netlist& nl,
                                           const FaultList& faults,
                                           std::span<const GateId> observed);

}  // namespace lbist::fault
