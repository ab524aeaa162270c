// Linear-feedback shift registers (Galois and Fibonacci forms) and the
// multiple-input signature register (MISR) built from the same linear map.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bist/gf2.hpp"
#include "bist/polynomials.hpp"

namespace lbist::bist {

enum class LfsrForm : uint8_t { kGalois, kFibonacci };

/// An LFSR of `length` bits (2..63) with the library's primitive
/// polynomial of that degree. With a non-zero seed it cycles through all
/// 2^length - 1 non-zero states (maximal length).
class Lfsr {
 public:
  explicit Lfsr(int length, uint64_t seed = 1,
                LfsrForm form = LfsrForm::kGalois);

  [[nodiscard]] int length() const { return length_; }
  [[nodiscard]] uint64_t state() const { return state_; }
  void setState(uint64_t s);

  /// Serial output observed this cycle (cell 0).
  [[nodiscard]] int outputBit() const { return static_cast<int>(state_ & 1u); }

  /// Advances one cycle; returns the output bit that was shifted out.
  int step();

  /// Advances k cycles (O(k); use transitionMatrix().pow(k) for jumps).
  void stepMany(uint64_t k);

  /// The linear next-state map as a GF(2) matrix (column j = step(e_j)),
  /// built from the actual step function so it is correct by construction
  /// for either form.
  [[nodiscard]] Gf2Matrix transitionMatrix() const;

  [[nodiscard]] LfsrForm form() const { return form_; }

 private:
  [[nodiscard]] uint64_t next(uint64_t s) const;

  int length_;
  LfsrForm form_;
  uint64_t poly_low_;  // Galois overflow XOR mask
  uint64_t fib_taps_;  // Fibonacci feedback tap mask
  uint64_t mask_;
  uint64_t state_;
};

/// Multiple-input signature register over the same primitive polynomial:
/// state' = A * state XOR inputs, where input bit i is XORed into cell i.
/// Compacts one parallel response slice per clock; aliasing probability
/// for random error patterns approaches 2^-length.
class Misr {
 public:
  explicit Misr(int length, uint64_t seed = 0);

  [[nodiscard]] int length() const { return length_; }
  [[nodiscard]] uint64_t signature() const { return state_; }
  void reset(uint64_t seed = 0) { state_ = seed & mask_; }

  /// One compaction clock with up to `length` parallel input bits.
  void step(uint64_t inputs);

  /// State after `cycles` further clocks with all-zero inputs, starting
  /// from `state` instead of the live register. Because the MISR is
  /// linear, this also advances an error word E = faulty XOR golden:
  /// E' = A^cycles * E — the relation interval-signature diagnosis uses
  /// to tell which checkpoint window injected new errors.
  [[nodiscard]] uint64_t advance(uint64_t state, uint64_t cycles) const;

  [[nodiscard]] const Gf2Matrix& transitionMatrix() const { return matrix_; }

 private:
  int length_;
  uint64_t mask_;
  uint64_t state_;
  uint64_t poly_low_;
  Gf2Matrix matrix_;
};

/// MISR of arbitrary length built from concatenated primitive-polynomial
/// segments of <= 63 bits (a "segmented MISR"). The paper's cores use 99-
/// and 80-bit MISRs (one cell per chain, no space compactor); verified
/// primitive polynomials above degree 64 are not tabulated here, and under
/// the random-error model k independent segments of lengths n_i give the
/// same aliasing bound 2^-(sum n_i) as one n-bit register, with the same
/// flip-flop count. See DESIGN.md substitution notes.
class WideMisr {
 public:
  /// `length` >= 2; split greedily into segments of at most 63 bits.
  explicit WideMisr(int length);

  /// The segment lengths a WideMisr of `length` bits uses (greedy 63s,
  /// never leaving a 1-bit remainder, so e.g. 64 -> 62 + 2). Consumers
  /// that unpack signatureWords() into bit streams must follow this
  /// split, not a naive 63-bit one — use unpackBits below.
  [[nodiscard]] static std::vector<int> segmentLengths(int length);

  /// Unpacks signature words into `length` LSB-first bits using the
  /// segment split above. Missing words read as zero. The one shared
  /// words-to-bits path for every consumer (the LbistTop SIGNATURE
  /// register, soc::Chip golden comparison), so the packing can never
  /// diverge between them.
  [[nodiscard]] static std::vector<uint8_t> unpackBits(
      std::span<const uint64_t> words, int length);

  [[nodiscard]] int length() const { return length_; }
  [[nodiscard]] size_t numSegments() const { return segments_.size(); }

  void reset();

  /// One compaction clock; input bit i goes into MISR cell i. `inputs`
  /// may be shorter than length() (remaining cells get 0).
  void step(std::span<const uint8_t> inputs);

  /// Advances a signature (or, by linearity, a signature-difference)
  /// word vector by `cycles` zero-input clocks, segment by segment.
  [[nodiscard]] std::vector<uint64_t> advance(std::span<const uint64_t> words,
                                              uint64_t cycles) const;

  /// Precomputed advance-by-`cycles` operator (per-segment A^cycles).
  /// Build once, apply per checkpoint: interval diagnosis walks hundreds
  /// of checkpoints with the same step size, and the matrix power is the
  /// expensive part.
  class Advancer {
   public:
    [[nodiscard]] std::vector<uint64_t> apply(
        std::span<const uint64_t> words) const;

   private:
    friend class WideMisr;
    std::vector<Gf2Matrix> mats_;
  };
  [[nodiscard]] Advancer advancer(uint64_t cycles) const;

  [[nodiscard]] std::vector<uint64_t> signatureWords() const;
  [[nodiscard]] std::string signatureHex() const;
  /// signatureHex() of a WideMisr holding `words`: 16 hex digits per
  /// segment word, joined by '_'.
  [[nodiscard]] static std::string hex(std::span<const uint64_t> words);

  friend bool operator==(const WideMisr& a, const WideMisr& b) {
    return a.length_ == b.length_ &&
           a.signatureWords() == b.signatureWords();
  }

 private:
  int length_ = 0;
  std::vector<Misr> segments_;
  std::vector<int> segment_offsets_;
};

}  // namespace lbist::bist
