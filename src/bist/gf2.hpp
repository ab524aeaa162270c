// Dense linear algebra over GF(2) for registers up to 64 bits.
//
// Used to synthesize phase shifters: the tap set producing an m-sequence
// shifted by k is a row of the LFSR transition matrix raised to the k-th
// power (see phase_shifter.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace lbist::bist {

/// Square matrix over GF(2), one uint64_t per row, dimension <= 64.
/// Row-major: bit j of rows[i] is element (i, j).
class Gf2Matrix {
 public:
  Gf2Matrix() = default;
  /// The n x n zero matrix.
  explicit Gf2Matrix(int n) : n_(n), rows_(static_cast<size_t>(n), 0) {}

  /// The n x n identity.
  static Gf2Matrix identity(int n);

  /// Dimension n.
  [[nodiscard]] int dim() const { return n_; }
  /// Row i, bit j = element (i, j).
  [[nodiscard]] uint64_t row(int i) const {
    return rows_[static_cast<size_t>(i)];
  }
  /// Overwrites row i.
  void setRow(int i, uint64_t bits) { rows_[static_cast<size_t>(i)] = bits; }

  /// Element (i, j).
  [[nodiscard]] bool get(int i, int j) const {
    return ((rows_[static_cast<size_t>(i)] >> j) & 1u) != 0;
  }
  /// Sets element (i, j) to `v`.
  void set(int i, int j, bool v) {
    const uint64_t bit = uint64_t{1} << j;
    if (v) {
      rows_[static_cast<size_t>(i)] |= bit;
    } else {
      rows_[static_cast<size_t>(i)] &= ~bit;
    }
  }

  /// y = M * x  (x, y are column vectors packed LSB-first).
  [[nodiscard]] uint64_t apply(uint64_t x) const;

  [[nodiscard]] Gf2Matrix operator*(const Gf2Matrix& rhs) const;

  /// M^e by square-and-multiply.
  [[nodiscard]] Gf2Matrix pow(uint64_t e) const;

  /// Rank via Gaussian elimination (destructive on a copy).
  [[nodiscard]] int rank() const;

  /// Same dimension and elements.
  friend bool operator==(const Gf2Matrix& a, const Gf2Matrix& b) {
    return a.n_ == b.n_ && a.rows_ == b.rows_;
  }

 private:
  int n_ = 0;
  std::vector<uint64_t> rows_;
};

/// Parity of the bitwise AND of two packed vectors (dot product in GF(2)).
[[nodiscard]] inline int gf2Dot(uint64_t a, uint64_t b) {
  return __builtin_parityll(a & b);
}

}  // namespace lbist::bist
