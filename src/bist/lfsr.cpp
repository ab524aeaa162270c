#include "bist/lfsr.hpp"

#include <stdexcept>

namespace lbist::bist {

namespace {

uint64_t lengthMask(int length) {
  return length >= 64 ? ~uint64_t{0} : (uint64_t{1} << length) - 1;
}

}  // namespace

Lfsr::Lfsr(int length, uint64_t seed, LfsrForm form)
    : length_(length),
      form_(form),
      poly_low_(polynomialLowMask(length)),
      // Fibonacci feedback: with cells c_j = a_{t+j}, the recurrence from
      // p(x) gives a_{t+n} = XOR of c_e over taps e < n plus c_0, i.e. the
      // feedback mask is exactly the low polynomial mask.
      fib_taps_(polynomialLowMask(length)),
      mask_(lengthMask(length)) {
  if (length < 2 || length > 63) {
    throw std::out_of_range("Lfsr length must be in [2,63]");
  }
  setState(seed);
}

void Lfsr::setState(uint64_t s) {
  state_ = s & mask_;
  if (state_ == 0) state_ = 1;  // the all-zero state is a fixed point
}

uint64_t Lfsr::next(uint64_t s) const {
  if (form_ == LfsrForm::kGalois) {
    // Multiply the state polynomial by x modulo p(x).
    const uint64_t overflow = (s >> (length_ - 1)) & 1u;
    uint64_t n = (s << 1) & mask_;
    if (overflow != 0) n ^= poly_low_;
    return n;
  }
  // Fibonacci: shift right, feedback parity enters the top cell.
  const uint64_t fb = static_cast<uint64_t>(gf2Dot(s, fib_taps_));
  return (s >> 1) | (fb << (length_ - 1));
}

int Lfsr::step() {
  const int out = outputBit();
  state_ = next(state_);
  return out;
}

void Lfsr::stepMany(uint64_t k) {
  for (uint64_t i = 0; i < k; ++i) state_ = next(state_);
}

Gf2Matrix Lfsr::transitionMatrix() const {
  Gf2Matrix a(length_);
  for (int j = 0; j < length_; ++j) {
    const uint64_t col = next(uint64_t{1} << j);
    for (int i = 0; i < length_; ++i) {
      if (((col >> i) & 1u) != 0) a.set(i, j, true);
    }
  }
  return a;
}

Misr::Misr(int length, uint64_t seed)
    : length_(length),
      mask_(lengthMask(length)),
      state_(seed & mask_),
      poly_low_(polynomialLowMask(length)) {
  if (length < 2 || length > 63) {
    throw std::out_of_range("Misr length must be in [2,63]");
  }
  matrix_ = Lfsr(length, 1, LfsrForm::kGalois).transitionMatrix();
}

void Misr::step(uint64_t inputs) {
  const uint64_t overflow = (state_ >> (length_ - 1)) & 1u;
  uint64_t n = (state_ << 1) & mask_;
  if (overflow != 0) n ^= poly_low_;
  state_ = n ^ (inputs & mask_);
}

uint64_t Misr::advance(uint64_t state, uint64_t cycles) const {
  return matrix_.pow(cycles).apply(state & mask_);
}

std::vector<int> WideMisr::segmentLengths(int length) {
  std::vector<int> lengths;
  int remaining = length;
  while (remaining > 0) {
    // Keep every segment in [2, 63]: never leave a 1-bit remainder.
    int seg = remaining > 63 ? 63 : remaining;
    if (remaining - seg == 1) --seg;
    lengths.push_back(seg);
    remaining -= seg;
  }
  return lengths;
}

std::vector<uint8_t> WideMisr::unpackBits(std::span<const uint64_t> words,
                                          int length) {
  std::vector<uint8_t> bits;
  bits.reserve(static_cast<size_t>(length));
  const std::vector<int> segs = segmentLengths(length);
  for (size_t s = 0; s < segs.size(); ++s) {
    const uint64_t w = s < words.size() ? words[s] : 0;
    for (int b = 0; b < segs[s]; ++b) {
      bits.push_back(static_cast<uint8_t>((w >> b) & 1u));
    }
  }
  return bits;
}

WideMisr::WideMisr(int length) : length_(length) {
  if (length < 2) {
    throw std::out_of_range("WideMisr length must be >= 2");
  }
  int offset = 0;
  for (int seg : segmentLengths(length)) {
    segments_.emplace_back(seg, 0);
    segment_offsets_.push_back(offset);
    offset += seg;
  }
}

void WideMisr::reset() {
  for (Misr& m : segments_) m.reset();
}

void WideMisr::step(std::span<const uint8_t> inputs) {
  for (size_t s = 0; s < segments_.size(); ++s) {
    const int base = segment_offsets_[s];
    const int seg_len = segments_[s].length();
    uint64_t packed = 0;
    for (int i = 0; i < seg_len; ++i) {
      const size_t idx = static_cast<size_t>(base + i);
      if (idx < inputs.size() && (inputs[idx] & 1u) != 0) {
        packed |= uint64_t{1} << i;
      }
    }
    segments_[s].step(packed);
  }
}

std::vector<uint64_t> WideMisr::advance(std::span<const uint64_t> words,
                                        uint64_t cycles) const {
  if (words.size() != segments_.size()) {
    throw std::invalid_argument("WideMisr::advance: word count mismatch");
  }
  std::vector<uint64_t> out;
  out.reserve(segments_.size());
  for (size_t s = 0; s < segments_.size(); ++s) {
    out.push_back(segments_[s].advance(words[s], cycles));
  }
  return out;
}

WideMisr::Advancer WideMisr::advancer(uint64_t cycles) const {
  Advancer a;
  a.mats_.reserve(segments_.size());
  for (const Misr& seg : segments_) {
    a.mats_.push_back(seg.transitionMatrix().pow(cycles));
  }
  return a;
}

std::vector<uint64_t> WideMisr::Advancer::apply(
    std::span<const uint64_t> words) const {
  if (words.size() != mats_.size()) {
    throw std::invalid_argument("WideMisr::Advancer: word count mismatch");
  }
  std::vector<uint64_t> out;
  out.reserve(mats_.size());
  for (size_t s = 0; s < mats_.size(); ++s) {
    out.push_back(mats_[s].apply(words[s]));
  }
  return out;
}

std::vector<uint64_t> WideMisr::signatureWords() const {
  std::vector<uint64_t> words;
  words.reserve(segments_.size());
  for (const Misr& m : segments_) words.push_back(m.signature());
  return words;
}

std::string WideMisr::signatureHex() const {
  return hex(signatureWords());
}

std::string WideMisr::hex(std::span<const uint64_t> words) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (uint64_t v : words) {
    char buf[17];
    for (int i = 15; i >= 0; --i) {
      buf[i] = kHex[v & 0xf];
      v >>= 4;
    }
    buf[16] = '\0';
    if (!out.empty()) out += "_";
    out += buf;
  }
  return out;
}

}  // namespace lbist::bist
