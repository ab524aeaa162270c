// Phase shifter synthesis (paper Fig. 1 blocks PS1/PS2).
//
// Adjacent cells of one LFSR produce the same m-sequence shifted by one
// bit; feeding scan chains straight from the cells would load highly
// correlated (structurally dependent) columns. A phase shifter gives
// channel i the sequence advanced by offset_i with guaranteed minimum
// channel separation: the XOR tap set for a shift of k is row 0 of A^k,
// where A is the LFSR transition matrix (GF(2) matrix method).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bist/lfsr.hpp"

namespace lbist::bist {

/// Synthesis knobs of a PhaseShifter.
struct PhaseShifterOptions {
  /// Minimum sequence separation between adjacent channels, in bits.
  /// Must exceed the longest scan chain so no chain ever holds two
  /// correlated copies of the same sequence window.
  uint64_t separation = 512;
  /// Search window above the nominal offset: the synthesis picks the
  /// offset in [nominal, nominal + slack] whose tap row has the fewest
  /// XOR taps (cheapest hardware). 0 disables the search.
  uint64_t slack = 0;
};

/// XOR network giving each channel the LFSR's m-sequence advanced by its
/// own offset (see the file comment).
class PhaseShifter {
 public:
  /// Synthesizes `channels` channels over the LFSR `reference`.
  PhaseShifter(const Lfsr& reference, int channels,
               PhaseShifterOptions opts = {});

  /// Number of output channels.
  [[nodiscard]] int channels() const {
    return static_cast<int>(taps_.size());
  }
  /// LFSR cells XORed into `channel` (bit j = cell j).
  [[nodiscard]] uint64_t taps(int channel) const {
    return taps_[static_cast<size_t>(channel)];
  }
  /// Sequence offset of `channel`, in LFSR cycles.
  [[nodiscard]] uint64_t offset(int channel) const {
    return offsets_[static_cast<size_t>(channel)];
  }

  /// Channel value for a given LFSR state.
  [[nodiscard]] int outputBit(int channel, uint64_t lfsr_state) const {
    return gf2Dot(taps_[static_cast<size_t>(channel)], lfsr_state);
  }

  /// All channel values; out.size() must equal channels().
  void outputs(uint64_t lfsr_state, std::span<uint8_t> out) const;

  /// Packed form for up to 64 channels (bit i = channel i).
  [[nodiscard]] uint64_t outputsPacked(uint64_t lfsr_state) const;

  /// Total XOR taps across channels (hardware cost proxy).
  [[nodiscard]] size_t totalTaps() const;

 private:
  std::vector<uint64_t> taps_;
  std::vector<uint64_t> offsets_;
};

}  // namespace lbist::bist
