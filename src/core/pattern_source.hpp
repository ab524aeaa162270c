// PRPG-exact scan-state source for block fault simulation.
//
// Computes, for lane-block-sized pattern groups (64 * laneWords()
// patterns), the per-scan-cell stimulus rows the real per-domain PRPG +
// phase-shifter hardware shifts in over the shift schedule, and loads
// them into a FaultSimulator. Shared by the coverage flow (Table 1
// accounting) and the diagnosis dictionary builder (src/diag) so both
// agree bit-for-bit with the cycle-accurate BistSession on what
// "pattern p" is. Widening the lane block never changes which stimulus
// pattern p receives — the PRPG stream is consumed strictly in pattern
// order regardless of how many lanes each block packs.
//
// The load is bit-sliced (Biham, FSE 1997). The LFSR, phase shifter and
// space expander are linear over GF(2), so every scan cell's stimulus
// is a fixed linear form of its domain LFSR's state at the pattern's
// first shift cycle: the chain's tap row, with expander taps folded in,
// times A^k, where A is the LFSR transition matrix and k the shift
// cycle that injects the cell's bit. The constructor builds these
// forms. A block load jumps from pattern to pattern with A^shift_cycles,
// transposes the lanes' start states into one word per LFSR bit, and
// XORs each cell's row from the words its form selects.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "bist/gf2.hpp"
#include "core/architect.hpp"
#include "fault/fsim.hpp"

namespace lbist::core {

/// The PRPG-exact pattern stream of a BistReadyCore, loaded one lane
/// block at a time into a simulator (see the file comment).
class PrpgPatternSource {
 public:
  /// Binds `core` and sizes the per-cell stimulus rows for blocks of
  /// `lane_words` 64-bit words (one of sim::isSupportedLaneWords();
  /// must match the sink simulator's width).
  explicit PrpgPatternSource(const BistReadyCore& core,
                             size_t lane_words = 1);

  /// Lane-block width in 64-bit words.
  [[nodiscard]] size_t laneWords() const { return lane_words_; }
  /// Maximum patterns per loadBlock call (64 * laneWords()).
  [[nodiscard]] size_t lanes() const { return lane_words_ * 64; }

  /// Loads sources for the next `lanes` patterns into `fsim`: PIs held 0,
  /// SE low / test-mode high, every scan cell set to the state the PRPGs
  /// shift in. Advances the PRPGs; successive calls emit consecutive
  /// pattern blocks.
  void loadBlock(fault::FaultSimulator& fsim, int lanes);

  /// Same block semantics into a bare 2-valued simulator — consumers
  /// that need PRPG-exact states without a fault list (the soc power
  /// estimator samples switching activity this way).
  void loadBlock(sim::Simulator2v& sim, int lanes);

  /// Pins the session holds at a fixed level during capture (SE low,
  /// test-mode high) — also what deterministic top-up must respect.
  [[nodiscard]] const std::vector<std::pair<GateId, bool>>& fixedPins()
      const {
    return fixed_;
  }

 private:
  /// One clock domain's PRPG as a linear map of its LFSR state.
  struct DomainModel {
    /// LFSR state at the next pattern's first shift cycle.
    uint64_t state = 0;
    /// A^shift_cycles: the state one pattern later.
    bist::Gf2Matrix pattern_step;
    /// Every scan cell the domain loads, with its stimulus as a linear
    /// form of `state` (bit j selects LFSR bit j).
    std::vector<std::pair<GateId, uint64_t>> cell_forms;
  };

  void computeCellWords(int lanes);

  const BistReadyCore* core_;
  size_t lane_words_;
  std::vector<DomainModel> domains_;
  std::vector<std::pair<GateId, bool>> fixed_;
  // Per-gate stimulus rows for the current block, gate-major with
  // stride laneWords(): gate g's lanes at [g*W, g*W + W).
  std::vector<uint64_t> cell_words_;
  // The block's LFSR start states transposed: bit j of every lane's
  // state at [j*W, j*W + W).
  std::vector<uint64_t> state_words_;
};

}  // namespace lbist::core
