// Space expander and space compactor XOR networks (paper Fig. 1 SpE/SpC).
//
// The expander widens p phase-shifter outputs onto c >= p scan chains so
// a shorter PRPG can feed many chains; the compactor narrows c chain
// outputs onto m <= c MISR inputs so the MISR can be shorter. The paper's
// application disables the compactor (setup-time concern, section 3),
// which our LbistArchitect mirrors with a configuration flag.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace lbist::bist {

/// Expander: output j for j < inputs is the straight-through input j;
/// outputs beyond that XOR two distinct inputs chosen by a deterministic
/// stride so no two outputs share a tap set.
class SpaceExpander {
 public:
  /// Expands `inputs` channels onto `outputs` >= `inputs` chains.
  SpaceExpander(int inputs, int outputs);

  /// Input channels.
  [[nodiscard]] int inputs() const { return inputs_; }
  /// Output chains.
  [[nodiscard]] int outputs() const { return static_cast<int>(taps_.size()); }
  /// Inputs XORed into `output`.
  [[nodiscard]] std::span<const int> taps(int output) const {
    const auto& t = taps_[static_cast<size_t>(output)];
    return {t.data(), t.size()};
  }

  /// Writes every output bit from the input bits (sizes as constructed).
  void apply(std::span<const uint8_t> in, std::span<uint8_t> out) const;

  /// XOR gate count of the network.
  [[nodiscard]] size_t xorCount() const;

 private:
  int inputs_;
  std::vector<std::vector<int>> taps_;
};

/// Compactor: MISR input i is the XOR of chain outputs
/// {j : j % misr_inputs == i}.
class SpaceCompactor {
 public:
  /// Compacts `chain_outputs` chains onto `misr_inputs` <= that many.
  SpaceCompactor(int chain_outputs, int misr_inputs);

  /// MISR inputs driven.
  [[nodiscard]] int misrInputs() const { return misr_; }

  /// Writes every MISR input bit from the chain bits (sizes as
  /// constructed).
  void apply(std::span<const uint8_t> chain_out,
             std::span<uint8_t> misr_in) const;

  /// Packed convenience for <= 64 bits each side.
  [[nodiscard]] uint64_t applyPacked(uint64_t chain_bits) const;

  /// XOR gate count of the network.
  [[nodiscard]] size_t xorCount() const;

 private:
  int chains_;
  int misr_;
};

}  // namespace lbist::bist
