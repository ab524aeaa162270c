#include "core/pattern_source.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "bist/prpg.hpp"
#include "obs/obs.hpp"
#include "sim/lane.hpp"

namespace lbist::core {

namespace {

/// The row vector `form` times A. A form reading a bit off the state one
/// cycle after s becomes one reading the same bit off s itself:
/// form . (A s) == (form * A) . s.
uint64_t formTimes(uint64_t form, const bist::Gf2Matrix& a) {
  uint64_t out = 0;
  for (; form != 0; form &= form - 1) out ^= a.row(std::countr_zero(form));
  return out;
}

}  // namespace

PrpgPatternSource::PrpgPatternSource(const BistReadyCore& core,
                                     size_t lane_words)
    : core_(&core), lane_words_(lane_words) {
  if (!sim::isSupportedLaneWords(lane_words)) {
    throw std::invalid_argument("PrpgPatternSource: unsupported lane_words");
  }
  const int shift_cycles = core.shiftCyclesPerPattern();
  for (const DomainBist& db : core.domain_bist) {
    const bist::Prpg prpg(db.prpg);
    const bist::Gf2Matrix a = prpg.lfsr().transitionMatrix();
    DomainModel& dm = domains_.emplace_back();
    dm.state = prpg.lfsr().state();
    dm.pattern_step = a.pow(static_cast<uint64_t>(shift_cycles));
    for (size_t c = 0; c < db.chain_indices.size(); ++c) {
      // The chain's tap row: its phase-shifter channel, or the XOR of
      // the channels its expander output combines.
      uint64_t form = 0;
      if (const bist::SpaceExpander* ex = prpg.expander()) {
        for (int t : ex->taps(static_cast<int>(c))) {
          form ^= prpg.shifter().taps(t);
        }
      } else {
        form = prpg.shifter().taps(static_cast<int>(c));
      }
      // The bit injected at shift cycle k ends up in cell (L-1-k) of
      // each chain (closest-to-SI cell receives the last bit); bits
      // injected before a short chain's first cell shift out again.
      const dft::ScanChain& chain = core.scan.chains[db.chain_indices[c]];
      for (int k = 0; k < shift_cycles; ++k) {
        const size_t cell_pos = static_cast<size_t>(shift_cycles - 1 - k);
        if (cell_pos < chain.cells.size()) {
          dm.cell_forms.emplace_back(chain.cells[cell_pos], form);
        }
        form = formTimes(form, a);
      }
    }
  }
  fixed_.emplace_back(core.scan.se_port, false);
  if (core.scan.test_mode_port.valid()) {
    fixed_.emplace_back(core.scan.test_mode_port, true);
  }
  cell_words_.assign(core.netlist.numGates() * lane_words_, 0);
}

void PrpgPatternSource::computeCellWords(int lanes) {
  assert(lanes >= 0 && static_cast<size_t>(lanes) <= this->lanes());
  OBS_SPAN("prpg.block_load");
  OBS_COUNT("prpg.block_loads", 1);
  OBS_COUNT("prpg.patterns", static_cast<uint64_t>(lanes));
  const size_t w = lane_words_;

  // Only scan cells are ever written, so every other row stays zero.
  for (DomainModel& dm : domains_) {
    state_words_.assign(static_cast<size_t>(dm.pattern_step.dim()) * w, 0);
    for (int lane = 0; lane < lanes; ++lane) {
      const size_t word = static_cast<size_t>(lane) / 64;
      const uint64_t bit = uint64_t{1} << (lane % 64);
      for (uint64_t s = dm.state; s != 0; s &= s - 1) {
        state_words_[static_cast<size_t>(std::countr_zero(s)) * w + word] |=
            bit;
      }
      dm.state = dm.pattern_step.apply(dm.state);
    }
    for (const auto& [cell, form] : dm.cell_forms) {
      uint64_t* const row = cell_words_.data() + size_t{cell.v} * w;
      std::fill(row, row + w, 0);
      for (uint64_t f = form; f != 0; f &= f - 1) {
        const uint64_t* const src =
            state_words_.data() + static_cast<size_t>(std::countr_zero(f)) * w;
        for (size_t i = 0; i < w; ++i) row[i] ^= src[i];
      }
    }
  }
}

namespace {

/// One source-application path for every sink exposing
/// setSource(GateId, uint64_t) + setSourceRow(GateId, const uint64_t*)
/// — the overloads below must never drift. Constant-across-lanes pins
/// (PIs, fixed control) broadcast; scan cells copy their stride-W rows.
template <typename Sink>
void applySources(const BistReadyCore& core, size_t lane_words,
                  const std::vector<uint64_t>& cell_words,
                  const std::vector<std::pair<GateId, bool>>& fixed,
                  Sink& sink) {
  const Netlist& nl = core.netlist;
  for (GateId pi : nl.inputs()) sink.setSource(pi, 0);
  for (GateId dff : nl.dffs()) {
    sink.setSourceRow(dff, cell_words.data() + size_t{dff.v} * lane_words);
  }
  for (const auto& [id, v] : fixed) {
    sink.setSource(id, v ? ~uint64_t{0} : 0);
  }
}

}  // namespace

void PrpgPatternSource::loadBlock(fault::FaultSimulator& fsim, int lanes) {
  assert(fsim.laneWords() == lane_words_ &&
         "pattern source / simulator lane width mismatch");
  computeCellWords(lanes);
  applySources(*core_, lane_words_, cell_words_, fixed_, fsim);
}

void PrpgPatternSource::loadBlock(sim::Simulator2v& sim, int lanes) {
  assert(sim.laneWords() == lane_words_ &&
         "pattern source / simulator lane width mismatch");
  computeCellWords(lanes);
  applySources(*core_, lane_words_, cell_words_, fixed_, sim);
}

}  // namespace lbist::core
