// Fast coverage flow: PRPG-exact fault simulation of the random phase
// plus the deterministic top-up phase. This is the path that regenerates
// the paper's Table 1 numbers (the cycle-accurate BistSession validates
// the signature plumbing; simulating 20K patterns x full shift windows
// gate-by-gate would be needlessly slow for coverage accounting, exactly
// as in production DFT flows).
//
// "PRPG-exact" means the scan state loaded for pattern p is computed from
// the real per-domain PRPG + phase shifter models over the real shift
// schedule — not from an idealized RNG — so coverage includes any
// structural correlation the TPG hardware would produce.
#pragma once

#include <cstdint>
#include <vector>

#include "atpg/topup.hpp"
#include "core/architect.hpp"
#include "core/pattern_source.hpp"
#include "fault/fsim.hpp"

namespace lbist::core {

/// Outcome of CoverageFlow::runRandomPhase: patterns simulated, the
/// coverage they reached and the wall time spent.
struct RandomPhaseResult {
  int64_t patterns = 0;
  fault::Coverage coverage;
  double wall_seconds = 0.0;
};

/// The fast coverage flow of the file comment for one BIST-ready core:
/// one fault list, one fault simulator fed by a PrpgPatternSource, and
/// top-up ATPG over what the random phase leaves.
class CoverageFlow {
 public:
  /// `transition` switches the fault universe to launch-on-capture
  /// transition faults (for the double-capture ablation); default is the
  /// stuck-at universe of Table 1. `fsim_opts` tunes the underlying
  /// fault simulator — lane_words widens the pattern blocks, threads
  /// shards each block's faults; results are bit-identical for every
  /// thread count, and coverage and first-detect patterns are invariant
  /// across lane widths too (n-detect drop points can shift within a
  /// block when lane_words changes, per the fsim.hpp contract).
  explicit CoverageFlow(const BistReadyCore& core, bool transition = false,
                        const fault::FsimOptions& fsim_opts = {});

  /// Simulates `n_patterns` PRPG patterns (with fault dropping), one
  /// lane block at a time.
  RandomPhaseResult runRandomPhase(int64_t n_patterns);

  /// Deterministic top-up targeting everything still undetected.
  atpg::TopUpResult runTopUp(const atpg::TopUpConfig& cfg = {});

  /// The flow's fault list (statuses update as the phases run).
  [[nodiscard]] fault::FaultList& faults() { return faults_; }
  /// Read-only view of the flow's fault list.
  [[nodiscard]] const fault::FaultList& faults() const { return faults_; }
  /// Structural-collapsing summary of the flow's fault simulator (for
  /// core::renderCollapseStats report lines).
  [[nodiscard]] const fault::CollapseStats& collapseStats() const {
    return fsim_.collapseStats();
  }
  /// The observation set the fault simulator detects at
  /// (fault::defaultObservationSet of the core's netlist).
  [[nodiscard]] const std::vector<GateId>& observed() const {
    return observed_;
  }
  /// The sources top-up ATPG may assign: the scan cells, plus the
  /// non-control primary inputs when IOs are not wrapped.
  [[nodiscard]] const std::vector<GateId>& assignable() const {
    return assignable_;
  }

 private:
  const BistReadyCore* core_;
  bool transition_;
  fault::FaultList faults_;
  std::vector<GateId> observed_;
  std::vector<GateId> assignable_;
  fault::FaultSimulator fsim_;
  PrpgPatternSource source_;
};

}  // namespace lbist::core
