#include "bist/prpg.hpp"

#include <algorithm>
#include <stdexcept>

namespace lbist::bist {

namespace {

int shifterChannels(const PrpgConfig& cfg) {
  if (cfg.ps_channels == 0) return cfg.chains;
  if (cfg.ps_channels < 0 || cfg.ps_channels > cfg.chains) {
    throw std::invalid_argument("ps_channels must be in [1, chains]");
  }
  return cfg.ps_channels;
}

/// MISR inputs an ODC of `cfg` feeds: the compactor's outputs, or one
/// per chain without it. Throws on configurations Odc rejects.
int odcMisrInputs(const OdcConfig& cfg) {
  if (cfg.misr_length < 2) {
    throw std::out_of_range("WideMisr length must be >= 2");
  }
  if (cfg.chains <= 0) {
    throw std::invalid_argument("Odc needs >= 1 chain");
  }
  if (cfg.use_compactor) return std::min(cfg.misr_length, cfg.chains);
  if (cfg.misr_length < cfg.chains) {
    throw std::invalid_argument(
        "without a space compactor the MISR must be at least as long as "
        "the chain count (this is why the paper's Core X uses a 99-bit "
        "MISR)");
  }
  return cfg.chains;
}

}  // namespace

Prpg::Prpg(const PrpgConfig& cfg)
    : cfg_(cfg),
      lfsr_(cfg.length, cfg.seed),
      shifter_(lfsr_, shifterChannels(cfg), cfg.shifter) {
  if (cfg_.chains <= 0) {
    throw std::invalid_argument("Prpg needs >= 1 chain");
  }
  if (shifter_.channels() < cfg_.chains) {
    expander_.emplace(shifter_.channels(), cfg_.chains);
  }
  ps_out_.resize(static_cast<size_t>(shifter_.channels()));
}

void Prpg::loadSeed(uint64_t seed) {
  lfsr_.setState(seed);
  cycles_ = 0;
}

void Prpg::nextSlice(std::span<uint8_t> chain_bits) {
  if (chain_bits.size() != static_cast<size_t>(cfg_.chains)) {
    throw std::invalid_argument("chain_bits size != chains");
  }
  shifter_.outputs(lfsr_.state(), ps_out_);
  if (expander_) {
    expander_->apply(ps_out_, chain_bits);
  } else {
    std::copy(ps_out_.begin(), ps_out_.end(), chain_bits.begin());
  }
  lfsr_.step();
  ++cycles_;
}

uint8_t Prpg::peekChainBit(int chain) const {
  if (!expander_) {
    return static_cast<uint8_t>(
        shifter_.outputBit(chain, lfsr_.state()));
  }
  uint8_t v = 0;
  for (int t : expander_->taps(chain)) {
    v ^= static_cast<uint8_t>(shifter_.outputBit(t, lfsr_.state()));
  }
  return v;
}

double Prpg::gateEquivalents() const {
  double ge = 6.0 * cfg_.length;                       // LFSR flip-flops
  ge += 2.5 * static_cast<double>(shifter_.totalTaps() -
                                  static_cast<size_t>(shifter_.channels()));
  if (expander_) ge += 2.5 * static_cast<double>(expander_->xorCount());
  return ge;
}

Odc::Odc(const OdcConfig& cfg) : cfg_(cfg), misr_(cfg.misr_length) {
  const int inputs = odcMisrInputs(cfg_);
  if (cfg_.use_compactor) {
    compactor_.emplace(cfg_.chains, inputs);
    misr_in_.resize(static_cast<size_t>(inputs));
  }
}

void Odc::compact(std::span<const uint8_t> chain_out) {
  if (chain_out.size() != static_cast<size_t>(cfg_.chains)) {
    throw std::invalid_argument("chain_out size != chains");
  }
  if (compactor_) {
    compactor_->apply(chain_out, misr_in_);
    misr_.step(misr_in_);
  } else {
    misr_.step(chain_out);
  }
}

double Odc::gateEquivalents() const {
  double ge = 6.0 * cfg_.misr_length + 2.5 * cfg_.misr_length;  // FF + XOR
  if (compactor_) ge += 2.5 * static_cast<double>(compactor_->xorCount());
  return ge;
}

LaneOdc::LaneOdc(const OdcConfig& cfg)
    : cfg_(cfg),
      misr_inputs_(odcMisrInputs(cfg)),
      segments_(WideMisr::segmentLengths(cfg.misr_length)),
      cells_(static_cast<size_t>(cfg.misr_length), 0),
      misr_in_(static_cast<size_t>(cfg.misr_length), 0) {
  // Galois feedback, as Misr::step: the top cell of a segment XORs into
  // every cell its polynomial's low mask taps.
  feedback_.reserve(cells_.size());
  for (int len : segments_) {
    const uint64_t taps = polynomialLowMask(len);
    for (int i = 0; i < len; ++i) {
      feedback_.push_back(((taps >> i) & 1u) != 0 ? ~uint64_t{0} : 0);
    }
  }
}

void LaneOdc::compact(std::span<const uint64_t> chain_out) {
  if (chain_out.size() != static_cast<size_t>(cfg_.chains)) {
    throw std::invalid_argument("chain_out size != chains");
  }
  // Input cell i takes the XOR of chains {j : j % misr_inputs == i},
  // which without a compactor is chain i alone.
  std::fill(misr_in_.begin(), misr_in_.end(), 0);
  for (size_t j = 0; j < chain_out.size(); ++j) {
    misr_in_[j % static_cast<size_t>(misr_inputs_)] ^= chain_out[j];
  }
  uint64_t* c = cells_.data();
  const uint64_t* fb = feedback_.data();
  const uint64_t* in = misr_in_.data();
  for (int len : segments_) {
    const uint64_t top = c[len - 1];
    for (int i = len - 1; i > 0; --i) {
      c[i] = c[i - 1] ^ (top & fb[i]) ^ in[i];
    }
    c[0] = (top & fb[0]) ^ in[0];
    c += len;
    fb += len;
    in += len;
  }
}

std::vector<uint64_t> LaneOdc::signature(int lane) const {
  std::vector<uint64_t> words;
  words.reserve(segments_.size());
  const uint64_t* c = cells_.data();
  for (int len : segments_) {
    uint64_t w = 0;
    for (int i = 0; i < len; ++i) w |= ((c[i] >> lane) & 1u) << i;
    words.push_back(w);
    c += len;
  }
  return words;
}

void LaneOdc::reset() {
  std::fill(cells_.begin(), cells_.end(), 0);
}

void InputSelector::setExternalSlice(std::span<const uint8_t> bits) {
  if (bits.size() != external_.size()) {
    throw std::invalid_argument("external slice size != chains");
  }
  std::copy(bits.begin(), bits.end(), external_.begin());
}

void InputSelector::select(Prpg& prpg, std::span<uint8_t> out) {
  if (mode_ == Mode::kRandom) {
    prpg.nextSlice(out);
    return;
  }
  if (out.size() != external_.size()) {
    throw std::invalid_argument("selector span size != chains");
  }
  std::vector<uint8_t> discard(out.size());
  prpg.nextSlice(discard);  // PRPG free-runs in external mode
  std::copy(external_.begin(), external_.end(), out.begin());
}

}  // namespace lbist::bist
