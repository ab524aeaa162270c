// Portable multi-word pattern-lane fabric for the PPSFP stack.
//
// A "lane" is one independent test pattern riding a bit position of the
// word-parallel simulation. The original engines hard-coded one 64-bit
// word (64 lanes); this header widens that to a compile-time block of W
// words — LaneWord<W> ≈ uint64_t[W], W in {1, 4, 8} for 64/256/512
// lanes — written as plain loops over fixed-size arrays so the compiler
// auto-vectorizes them (SSE2/AVX2/AVX-512 or NEON, no intrinsics).
//
// Two shapes travel through the stack:
//  * LaneWord<W>   — the compile-time value type the templated kernels
//    (sim/compiled.hpp evalOpT/evalW, the fault-simulator block engines)
//    compute with;
//  * LaneMask      — a non-owning runtime view of a W-word detection
//    row, the one shared mask type every consumer of widened rows
//    (fault::DetectionObserver, diag::ResponseDictionary,
//    soc::PowerModel, benches, tests) reads instead of a raw uint64_t.
//
// Storage convention everywhere: per-gate value arrays are gate-major
// with stride W — gate g's lanes live at words [g*W, g*W + W).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace lbist::sim {

/// Largest supported lane-block width in 64-bit words (512 lanes).
inline constexpr size_t kMaxLaneWords = 8;

/// True for the lane widths the engines compile kernels for. Widths are
/// a closed set — every W adds one template instantiation of the whole
/// block-engine stack — so arbitrary values are rejected up front.
[[nodiscard]] constexpr bool isSupportedLaneWords(size_t w) {
  return w == 1 || w == 4 || w == 8;
}

/// Fixed-width block of W 64-bit pattern words (64*W lanes). Aggregate,
/// zero-initialized by default, bitwise ops are element-wise plain loops.
template <size_t W>
struct LaneWord {
  /// The words; lane l lives at bit (l % 64) of word (l / 64).
  uint64_t w[W] = {};

  /// Number of pattern lanes in the block.
  static constexpr size_t kLanes = 64 * W;

  /// All-zero block.
  [[nodiscard]] static constexpr LaneWord zero() { return LaneWord{}; }

  /// All-ones block (every lane set).
  [[nodiscard]] static constexpr LaneWord ones() {
    LaneWord r;
    for (size_t i = 0; i < W; ++i) r.w[i] = ~uint64_t{0};
    return r;
  }

  /// Mask with the first `lanes` lanes set (lanes in [0, 64*W]).
  [[nodiscard]] static constexpr LaneWord firstLanes(size_t lanes) {
    LaneWord r;
    for (size_t i = 0; i < W; ++i) {
      const size_t lo = i * 64;
      if (lanes >= lo + 64) {
        r.w[i] = ~uint64_t{0};
      } else if (lanes > lo) {
        r.w[i] = (uint64_t{1} << (lanes - lo)) - 1;
      }
    }
    return r;
  }

  /// Loads W consecutive words from `p` (a gate-major row).
  [[nodiscard]] static LaneWord load(const uint64_t* p) {
    LaneWord r;
    for (size_t i = 0; i < W; ++i) r.w[i] = p[i];
    return r;
  }

  /// Stores the block to W consecutive words at `p`.
  void store(uint64_t* p) const {
    for (size_t i = 0; i < W; ++i) p[i] = w[i];
  }

  /// True when any lane is set.
  [[nodiscard]] bool any() const {
    uint64_t acc = 0;
    for (size_t i = 0; i < W; ++i) acc |= w[i];
    return acc != 0;
  }

  /// True when every lane of `m` is also set here ((*this & m) == m) —
  /// e.g. every pattern of a block has detected a fault.
  [[nodiscard]] bool covers(const LaneWord& m) const {
    uint64_t miss = 0;
    for (size_t i = 0; i < W; ++i) miss |= m.w[i] & ~w[i];
    return miss == 0;
  }

  /// Number of set lanes.
  [[nodiscard]] size_t popcount() const {
    size_t n = 0;
    for (size_t i = 0; i < W; ++i) {
      n += static_cast<size_t>(std::popcount(w[i]));
    }
    return n;
  }

  /// Index of the lowest set lane, or -1 when empty.
  [[nodiscard]] int64_t firstLane() const {
    for (size_t i = 0; i < W; ++i) {
      if (w[i] != 0) {
        return static_cast<int64_t>(i) * 64 + std::countr_zero(w[i]);
      }
    }
    return -1;
  }

  /// Element-wise AND-assign.
  LaneWord& operator&=(const LaneWord& o) {
    for (size_t i = 0; i < W; ++i) w[i] &= o.w[i];
    return *this;
  }
  /// Element-wise OR-assign.
  LaneWord& operator|=(const LaneWord& o) {
    for (size_t i = 0; i < W; ++i) w[i] |= o.w[i];
    return *this;
  }
  /// Element-wise XOR-assign.
  LaneWord& operator^=(const LaneWord& o) {
    for (size_t i = 0; i < W; ++i) w[i] ^= o.w[i];
    return *this;
  }

  /// Element-wise AND.
  [[nodiscard]] friend LaneWord operator&(LaneWord a, const LaneWord& b) {
    a &= b;
    return a;
  }
  /// Element-wise OR.
  [[nodiscard]] friend LaneWord operator|(LaneWord a, const LaneWord& b) {
    a |= b;
    return a;
  }
  /// Element-wise XOR.
  [[nodiscard]] friend LaneWord operator^(LaneWord a, const LaneWord& b) {
    a ^= b;
    return a;
  }
  /// Element-wise NOT.
  [[nodiscard]] friend LaneWord operator~(LaneWord a) {
    for (size_t i = 0; i < W; ++i) a.w[i] = ~a.w[i];
    return a;
  }
  /// Lane-exact equality.
  [[nodiscard]] friend bool operator==(const LaneWord&,
                                       const LaneWord&) = default;
};

/// Non-owning view of one runtime-width detection row (n 64-bit words,
/// lane l = bit l%64 of word l/64). This is the shared mask type the
/// widened observer/dictionary/power interfaces take: callees read lanes
/// through it without caring whether the producer ran W = 1, 4, or 8.
/// The view borrows the producer's buffer — valid only for the duration
/// of the call it is passed to; copy the words out to retain them.
class LaneMask {
 public:
  /// Empty view (zero words, no lanes).
  constexpr LaneMask() = default;
  /// Views `n_words` words at `words` (not owned, must outlive the view).
  constexpr LaneMask(const uint64_t* words, size_t n_words)
      : words_(words), n_words_(n_words) {}

  /// Number of 64-bit words in the row.
  [[nodiscard]] constexpr size_t words() const { return n_words_; }
  /// Number of lanes in the row.
  [[nodiscard]] constexpr size_t lanes() const { return n_words_ * 64; }
  /// Word `i` of the row.
  [[nodiscard]] uint64_t word(size_t i) const { return words_[i]; }
  /// Raw word pointer (for bulk copies into packed storage).
  [[nodiscard]] const uint64_t* data() const { return words_; }

  /// True when any lane is set.
  [[nodiscard]] bool any() const {
    uint64_t acc = 0;
    for (size_t i = 0; i < n_words_; ++i) acc |= words_[i];
    return acc != 0;
  }
  /// Whether lane `lane` is set.
  [[nodiscard]] bool test(size_t lane) const {
    return ((words_[lane / 64] >> (lane % 64)) & 1u) != 0;
  }
  /// Number of set lanes.
  [[nodiscard]] size_t popcount() const {
    size_t n = 0;
    for (size_t i = 0; i < n_words_; ++i) {
      n += static_cast<size_t>(std::popcount(words_[i]));
    }
    return n;
  }
  /// Index of the lowest set lane, or -1 when empty.
  [[nodiscard]] int64_t firstLane() const {
    for (size_t i = 0; i < n_words_; ++i) {
      if (words_[i] != 0) {
        return static_cast<int64_t>(i) * 64 + std::countr_zero(words_[i]);
      }
    }
    return -1;
  }

 private:
  const uint64_t* words_ = nullptr;
  size_t n_words_ = 0;
};

}  // namespace lbist::sim
