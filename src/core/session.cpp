#include "core/session.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.hpp"

namespace lbist::core {

BistSession::BistSession(const BistReadyCore& core, const Netlist& die)
    : core_(&core), die_(&die), sim_(die) {
  // Injected faults may append tie cells, so the die can be slightly
  // larger than the reference; it must never be smaller.
  if (die.numGates() < core.netlist.numGates() ||
      die.numDomains() != core.netlist.numDomains()) {
    throw std::invalid_argument(
        "die must be structurally compatible with the BIST-ready core");
  }
  for (const DomainBist& db : core.domain_bist) {
    prpgs_.emplace_back(db.prpg);
    odcs_.emplace_back(db.odc);
    slice_.emplace_back(db.chain_indices.size(), 0);
    so_slice_.emplace_back(db.chain_indices.size(), 0);
  }
  holdInputs();
  buildShiftProgram();
}

void BistSession::holdInputs() {
  for (GateId pi : die_->inputs()) sim_.setInput(pi, 0);
  if (core_->scan.test_mode_port.valid()) {
    sim_.setInput(core_->scan.test_mode_port, ~uint64_t{0});
  }
  if (auto tm = die_->findGateByName("test_mode")) {
    sim_.setInput(*tm, ~uint64_t{0});
  }
}

void BistSession::buildShiftProgram() {
  using sim::kX3;
  const Netlist& nl = *die_;
  const sim::CompiledNetlist& cn = sim_.compiled();

  // Session-constant gates. Every source but the flops, the SI ports and
  // SE keeps the value holdInputs() (or construction) gave it for the
  // whole session, so one 01X pass with those three at X marks the gates
  // no pulse can change.
  std::vector<uint8_t> held(nl.numGates(), kX3);
  nl.forEachGate([&](GateId id, const Gate& g) {
    if (!isCombinational(g.kind) && g.kind != CellKind::kDff) {
      held[id.v] = static_cast<uint8_t>(sim_.value(id) & 1u);
    }
  });
  held[core_->scan.se_port.v] = kX3;
  for (const dft::ScanChain& c : core_->scan.chains) held[c.si_port.v] = kX3;
  cn.eval3(held.data());
  // Shift mode: the same with SE = 1.
  std::vector<uint8_t> shift = held;
  shift[core_->scan.se_port.v] = 1;
  cn.eval3(shift.data());
  // The select of a MUX in `vals`, or kX3 for any other gate.
  const auto select = [&](const Gate& g, const std::vector<uint8_t>& vals) {
    return g.kind == CellKind::kMux2 ? vals[g.fanins[2].v] : kX3;
  };

  // Live flops: those whose state can reach a MISR. Walk back from the
  // scan-out cells, stopping at session-constant gates; a MUX whose
  // select is session-constant is followed only through the selected
  // input. Dead flops (an X-bounded non-scan flop, say) are not loaded
  // by shift pulses: nothing a MISR sees depends on them, and capture
  // pulses re-evaluate the whole core from the sources anyway.
  std::vector<uint8_t> seen(nl.numGates(), 0);
  std::vector<GateId> stack;
  const auto visit = [&](GateId g) {
    if (seen[g.v] == 0 && held[g.v] == kX3) {
      seen[g.v] = 1;
      stack.push_back(g);
    }
  };
  std::vector<GateId> live;
  for (const dft::ScanChain& c : core_->scan.chains) visit(c.so_driver);
  while (!stack.empty()) {
    const GateId id = stack.back();
    stack.pop_back();
    const Gate& g = nl.gate(id);
    if (g.kind == CellKind::kDff) live.push_back(id);
    if (const uint8_t sel = select(g, held); sel != kX3) {
      visit(g.fanins[sel]);
    } else {
      for (GateId f : g.fanins) visit(f);
    }
  }
  std::sort(live.begin(), live.end());

  // Shift program: the ops in the live flops' D cones with SE = 1. A
  // flop loads through every MUX whose select is known in shift mode, so
  // on an intact die each scan cell loads its scan predecessor and the
  // program is empty. The cones stop at session-constant gates, which
  // already hold their values.
  std::fill(seen.begin(), seen.end(), 0);
  const auto need = [&](GateId g) {
    if (seen[g.v] == 0 && held[g.v] == kX3 &&
        isCombinational(nl.gate(g).kind)) {
      seen[g.v] = 1;
      stack.push_back(g);
    }
  };
  for (GateId dff : live) {
    GateId from = nl.gate(dff).fanins[0];
    while (select(nl.gate(from), shift) != kX3) {
      from = nl.gate(from).fanins[select(nl.gate(from), shift)];
    }
    shift_loads_.push_back({dff, from});
    need(from);
    while (!stack.empty()) {
      const GateId id = stack.back();
      stack.pop_back();
      shift_ops_.push_back(cn.opOf(id));
      for (GateId f : nl.gate(id).fanins) need(f);
    }
  }
  std::sort(shift_ops_.begin(), shift_ops_.end());
}

void BistSession::seedPrpgs() {
  for (size_t i = 0; i < prpgs_.size(); ++i) {
    prpgs_[i].loadSeed(core_->domain_bist[i].prpg.seed);
    odcs_[i].reset();
  }
}

void BistSession::shiftCycle() {
  // PRPG outputs feed the SI ports; MISRs compact the SO values present
  // before the edge; then one shift edge clocks every domain, the PRPGs
  // and the MISRs together (they share the slow shift clock).
  for (size_t i = 0; i < prpgs_.size(); ++i) {
    const DomainBist& db = core_->domain_bist[i];
    for (size_t c = 0; c < db.chain_indices.size(); ++c) {
      const dft::ScanChain& chain =
          core_->scan.chains[db.chain_indices[c]];
      so_slice_[i][c] =
          static_cast<uint8_t>(sim_.state(chain.so_driver) & 1u);
    }
    odcs_[i].compact(so_slice_[i]);
    prpgs_[i].nextSlice(slice_[i]);
    for (size_t c = 0; c < db.chain_indices.size(); ++c) {
      const dft::ScanChain& chain =
          core_->scan.chains[db.chain_indices[c]];
      sim_.setInput(chain.si_port, slice_[i][c] != 0 ? ~uint64_t{0} : 0);
    }
  }
  sim_.pulseOps(shift_ops_, shift_loads_);
}

SessionResult BistSession::run(const SessionOptions& opts,
                               const SessionResult* golden) {
  OBS_SPAN("session.run");
  SessionResult res;

  // Reset: known state everywhere (hardware gets this from the first full
  // shift window; starting from zero keeps the golden run reproducible).
  // One settle puts the session-constant gates at their values before
  // the first shift pulse, which does not evaluate them.
  sim_.resetState(0);
  holdInputs();
  sim_.settle();
  seedPrpgs();

  bist::BistController ctrl;
  ctrl.setSignatureInterval(opts.signature_interval);
  ctrl.start();
  ctrl.seedsLoaded();

  const int shift_cycles = core_->shiftCyclesPerPattern();
  const bist::AtSpeedTimingConfig& timing =
      opts.timing_override ? *opts.timing_override : core_->config.timing;
  bist::BistSchedule sched(die_->domains(), timing, shift_cycles,
                           opts.patterns);

  auto snapshot = [&]() {
    SignatureCheckpoint cp;
    cp.patterns_done = ctrl.patternsDone();
    for (bist::Odc& odc : odcs_) cp.domain_words.push_back(odc.signature());
    res.checkpoints.push_back(std::move(cp));
  };

  uint64_t shifts = 0;
  uint64_t captures = 0;
  while (auto ev = sched.next()) {
    ctrl.onEvent(*ev);
    if (ctrl.checkpointDue()) snapshot();
    switch (ev->kind) {
      case bist::ScheduleEvent::Kind::kShiftPulse:
        sim_.setInput(core_->scan.se_port, ~uint64_t{0});
        shiftCycle();
        ++shifts;
        break;
      case bist::ScheduleEvent::Kind::kSeFall:
        sim_.setInput(core_->scan.se_port, 0);
        break;
      case bist::ScheduleEvent::Kind::kLaunchPulse:
      case bist::ScheduleEvent::Kind::kCapturePulse:
        sim_.pulse(ev->domain);
        ++captures;
        break;
      case bist::ScheduleEvent::Kind::kSeRise:
        sim_.setInput(core_->scan.se_port, ~uint64_t{0});
        break;
      case bist::ScheduleEvent::Kind::kPatternEnd:
        break;
      case bist::ScheduleEvent::Kind::kSessionEnd:
        res.session_ps = ev->time_ps;
        break;
    }
  }

  // Final unload: shift the last captured responses into the MISRs.
  sim_.setInput(core_->scan.se_port, ~uint64_t{0});
  for (int s = 0; s < shift_cycles; ++s) shiftCycle();
  shifts += static_cast<uint64_t>(shift_cycles);
  OBS_COUNT("session.pulses", shifts + captures);
  OBS_COUNT("session.ops", shifts * shift_ops_.size() +
                               captures * sim_.compiled().numOps());

  res.patterns_done = ctrl.patternsDone();
  res.shift_pulses = ctrl.shiftPulses();
  res.capture_pulses = ctrl.capturePulses();
  for (bist::Odc& odc : odcs_) {
    res.signatures.push_back(odc.signatureHex());
    res.signature_words.push_back(odc.signature());
  }

  bool match = golden != nullptr;
  if (golden != nullptr) {
    if (golden->signatures.size() != res.signatures.size()) {
      match = false;
    } else {
      for (size_t i = 0; i < res.signatures.size(); ++i) {
        if (res.signatures[i] != golden->signatures[i]) match = false;
      }
    }
  }
  ctrl.setSignatureMatch(match);
  res.finish = ctrl.finish();
  res.result_pass = ctrl.result();
  return res;
}

}  // namespace lbist::core
