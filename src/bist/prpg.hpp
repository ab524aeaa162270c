// PRPG (pseudo-random pattern generator) and ODC (output data compressor)
// stacks, one pair per clock domain (paper Fig. 1).
//
// PRPG = LFSR -> phase shifter -> optional space expander -> scan chains.
// ODC  = scan chains -> optional space compactor -> MISR.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "bist/lfsr.hpp"
#include "bist/phase_shifter.hpp"
#include "bist/spatial.hpp"

namespace lbist::bist {

/// Shape of one domain's PRPG: LFSR length and seed, chains fed, and
/// the phase shifter and optional space expander between them.
struct PrpgConfig {
  int length = 19;          // LFSR cells (the paper uses 19 on both cores)
  uint64_t seed = 1;
  int chains = 1;           // scan chains fed in this clock domain
  /// Phase-shifter channels; 0 means one per chain (no expander). A value
  /// p < chains inserts a p->chains space expander.
  int ps_channels = 0;
  PhaseShifterOptions shifter;
};

/// The PRPG stack of the file comment, one shift cycle at a time.
class Prpg {
 public:
  /// Builds the stack; throws std::invalid_argument on a bad shape.
  explicit Prpg(const PrpgConfig& cfg);

  /// Restarts the LFSR from `seed` and the cycle count from zero.
  void loadSeed(uint64_t seed);

  /// Emits the per-chain stimulus bits for the current shift cycle into
  /// `chain_bits` (size == chains()), then advances the LFSR one cycle.
  void nextSlice(std::span<uint8_t> chain_bits);

  /// Chain bit for the current cycle without advancing (inspection).
  [[nodiscard]] uint8_t peekChainBit(int chain) const;

  /// Scan chains fed per slice.
  [[nodiscard]] int chains() const { return cfg_.chains; }
  /// Shift cycles since the last loadSeed().
  [[nodiscard]] uint64_t cyclesElapsed() const { return cycles_; }
  /// The LFSR in its current state.
  [[nodiscard]] const Lfsr& lfsr() const { return lfsr_; }
  /// The phase shifter between the LFSR and the chains.
  [[nodiscard]] const PhaseShifter& shifter() const { return shifter_; }
  /// The space expander, or nullptr when every chain has its channel.
  [[nodiscard]] const SpaceExpander* expander() const {
    return expander_ ? &*expander_ : nullptr;
  }

  /// Gate-equivalent hardware cost (LFSR FFs + XOR taps + expander XORs),
  /// for the Table 1 overhead accounting.
  [[nodiscard]] double gateEquivalents() const;

 private:
  PrpgConfig cfg_;
  Lfsr lfsr_;
  PhaseShifter shifter_;
  std::optional<SpaceExpander> expander_;
  std::vector<uint8_t> ps_out_;
  uint64_t cycles_ = 0;
};

/// Shape of one domain's ODC: MISR length, chains compacted, and whether
/// a space compactor sits between them.
struct OdcConfig {
  int misr_length = 19;
  int chains = 1;
  /// When false (the paper's production setting, section 3) the chains
  /// feed the MISR directly and misr_length must be >= chains.
  bool use_compactor = false;
};

/// The ODC stack of the file comment, one shift cycle at a time.
class Odc {
 public:
  /// Builds the stack; throws std::invalid_argument on a bad shape.
  explicit Odc(const OdcConfig& cfg);

  /// Compacts one shift-cycle slice of scan-out bits (size == chains()).
  void compact(std::span<const uint8_t> chain_out);

  /// The MISR signature words (WideMisr segment order).
  [[nodiscard]] std::vector<uint64_t> signature() const {
    return misr_.signatureWords();
  }
  /// The signature as WideMisr::signatureHex renders it.
  [[nodiscard]] std::string signatureHex() const {
    return misr_.signatureHex();
  }
  /// Clears the MISR.
  void reset() { misr_.reset(); }

  /// Scan chains compacted per slice.
  [[nodiscard]] int chains() const { return cfg_.chains; }
  /// The MISR in its current state.
  [[nodiscard]] const WideMisr& misr() const { return misr_; }
  /// The space compactor, or nullptr when the chains feed the MISR.
  [[nodiscard]] const SpaceCompactor* compactor() const {
    return compactor_ ? &*compactor_ : nullptr;
  }

  /// Gate-equivalent hardware cost (MISR FFs and XORs plus compactor
  /// XORs), for the Table 1 overhead accounting.
  [[nodiscard]] double gateEquivalents() const;

 private:
  OdcConfig cfg_;
  WideMisr misr_;
  std::optional<SpaceCompactor> compactor_;
  std::vector<uint8_t> misr_in_;
};

/// Lane-sliced counterpart of Odc for parallel-fault session replay: 64
/// machines compact at once, with one 64-lane word per MISR cell and
/// per scan-out, so the space compactor is word XORs and a MISR step is
/// one pass over the cells. Lane k's signature() is exactly what a
/// scalar Odc fed lane k's bits holds.
class LaneOdc {
 public:
  /// Same configuration, and the same errors, as Odc.
  explicit LaneOdc(const OdcConfig& cfg);

  /// Compacts one shift-cycle slice: chain_out[c] holds chain c's
  /// scan-out bit in every lane (size == chains()).
  void compact(std::span<const uint64_t> chain_out);

  /// Odc::signature() of lane `lane` (0..63).
  [[nodiscard]] std::vector<uint64_t> signature(int lane) const;
  /// Clears every lane's MISR.
  void reset();

 private:
  OdcConfig cfg_;
  int misr_inputs_ = 0;             // compactor outputs (chains without)
  std::vector<int> segments_;       // WideMisr::segmentLengths
  std::vector<uint64_t> cells_;     // one lane word per MISR cell
  std::vector<uint64_t> feedback_;  // per cell: all-ones if tapped
  std::vector<uint64_t> misr_in_;   // per cell: this slice's input
};

/// Input selector (paper Fig. 1): chooses between the PRPG stream and an
/// externally supplied deterministic (top-up ATPG) stream per chain.
class InputSelector {
 public:
  enum class Mode : uint8_t { kRandom, kExternal };

  explicit InputSelector(int chains)
      : external_(static_cast<size_t>(chains), 0) {}

  void setMode(Mode m) { mode_ = m; }
  [[nodiscard]] Mode mode() const { return mode_; }

  /// Loads the external slice used while in kExternal mode.
  void setExternalSlice(std::span<const uint8_t> bits);

  /// Produces this cycle's chain stimulus from `prpg` or the external
  /// slice depending on mode. Always advances the PRPG (it free-runs).
  void select(Prpg& prpg, std::span<uint8_t> out);

 private:
  Mode mode_ = Mode::kRandom;
  std::vector<uint8_t> external_;
};

}  // namespace lbist::bist
